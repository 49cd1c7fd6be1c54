"""Command-line front end.

One subcommand per engine operation, plus reproduce-paper, which re-runs
the whole verification matrix.  Exit codes: 0 = all checks passed or the
computation succeeded, 1 = a checked claim failed (counterexample in the
report), 2 = usage or parse error.  --json switches the rendering; both
renderings carry identical verdicts and exact rational strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import corpus
from .algebras import (
    AlgebraStructure,
    check_identity,
    compatible_check,
    kantor_square,
    mutation,
    scalar_mutation,
    unital_hull,
)
from .errors import NassocError, ParseError
from .exact.poly import PolyQ
from .exprparse import rational
from .freealg import free_basis, label_str, normal_form
from .operads import (
    OperadPresentation,
    hilbert,
    implies,
    koszul_dual,
    koszulity_residual,
    multilinear_dim,
    nice_index,
    prove_zero,
    refuse_degree,
)
from .structure import (
    CocycleSpec,
    algebra_from_cocycle,
    derivation_algebra,
    fingerprint,
    is_leibniz_derivation,
    peirce,
    powers_and_nilpotency,
    wedderburn,
)
from .systems import BUILTIN_SYSTEM_NAMES, builtin_system
from .terms import catalan, multilinearize, parse_expr, parse_identity, parse_system, shape_at


class Report:
    def __init__(self, command: str):
        self.command = command
        self.verdict: bool | None = None
        self.data: dict = {}
        self.lines: list[str] = []

    def line(self, text: str):
        self.lines.append(text)

    def render(self, as_json: bool) -> str:
        if as_json:
            payload = {"command": self.command, "verdict": self.verdict, **self.data}
            return json.dumps(payload, indent=2, default=str)
        return "\n".join(self.lines)


def _load_system(value: str):
    if value in BUILTIN_SYSTEM_NAMES:
        return builtin_system(value)
    with open(value) as fh:
        return parse_system(value, fh.read())


def _load_algebra(value: str, sets):
    alg = corpus.load_algebra(value)
    if sets:
        env = {}
        for item in sets:
            name, sep, text = item.partition("=")
            if not (name and sep):
                raise ParseError(f"--set expects NAME=VALUE, got {item!r}")
            env[name] = rational(text, f"--set {name}")
        alg = alg.specialize(env)
    return alg


def _parse_element(A: AlgebraStructure, text: str, flag: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != A.dim:
        raise ParseError(f"{flag} expects {A.dim} coordinates, got {len(parts)}")
    return A.element([rational(p, flag) for p in parts])


def _check_and_report(report: Report, result) -> int:
    report.verdict = result.holds
    if result.holds:
        report.line("holds")
        return 0
    report.line(f"counterexample: {result.counterexample}")
    report.data["counterexample"] = {
        "identity": result.counterexample.identity,
        "tuple": list(result.counterexample.tuple_labels),
        "coordinate": result.counterexample.coordinate,
        "value": result.counterexample.value,
        "mode": result.counterexample.mode,
    }
    return 1


# ---------------------------------------------------------------------------
# subcommand registry

COMMANDS = []  # (name, help, handler, own flags, algebra flag or None), in registration order


def flag(*names, **kwargs):
    """One add_argument call, kept for build_parser."""
    return names, kwargs


def command(name: str, help: str, *flags, algebra: str | None = None):
    """Register the decorated handler as subcommand `name` with its own flags.

    Every subcommand also gets --json and --cap.  `algebra` names the flag
    ("--algebra" or "--lie") of a command that reads an algebra: that flag is
    required, --set is added, and the handler is called as
    handler(args, report, A) with the loaded, specialized algebra.  Other
    handlers are called as handler(args, report).  Handlers return the exit code.
    """

    def register(fn):
        COMMANDS.append((name, help, fn, flags, algebra))
        return fn

    return register


SYSTEM = flag("--system", required=True)
CHECK_SYSTEM = flag("--check-system")
VARIETY = flag("--variety", choices=("sas", "cas"), default="sas")


# ---------------------------------------------------------------------------
# subcommand handlers


@command("dims", "multilinear dimensions of a variety", SYSTEM, flag("--max-degree", type=int, default=5))
def cmd_dims(args, report):
    if args.max_degree < 1:
        raise ValueError(f"--max-degree must be at least 1, got {args.max_degree}")
    refuse_degree(args.max_degree, args.cap)
    sys_ = _load_system(args.system)
    dims = [multilinear_dim(sys_, n, args.cap) for n in range(1, args.max_degree + 1)]
    report.data["dims"] = dims
    report.line(" ".join(str(d) for d in dims))
    return 0


@command("hilbert", "signed exponential series", SYSTEM, flag("--order", type=int, default=5))
def cmd_hilbert(args, report):
    series = hilbert(_load_system(args.system), args.order, args.cap)
    report.data["series"] = str(series)
    report.data["coefficients"] = [str(c) for c in series.coeffs]
    report.line(str(series))
    return 0


@command("koszulity", "composition residual H_P(H_Q(t)) - t", SYSTEM,
         flag("--dual", help="second system; defaults to the computed dual"),
         flag("--order", type=int, default=5))
def cmd_koszulity(args, report):
    refuse_degree(args.order, args.cap)  # before the dual is built
    sys_p = _load_system(args.system)
    sys_q = _load_system(args.dual) if args.dual else koszul_dual(
        OperadPresentation.of_system(sys_p)
    ).to_identity_system()
    res = koszulity_residual(sys_p, sys_q, args.order, args.cap)
    report.data["residual"] = str(res)
    report.data["zero"] = res.is_zero()
    report.line(f"residual: {res}")
    report.line("consistent with Koszulity" if res.is_zero() else "not Koszul")
    return 0


@command("dual", "Koszul dual presentation", SYSTEM)
def cmd_dual(args, report):
    pres = OperadPresentation.of_system(_load_system(args.system))
    dual = koszul_dual(pres)
    ids = dual.to_identity_system()
    report.data["relations"] = [str(i) for i in ids.identities]
    report.data["self_dual"] = dual.same_space(pres)
    report.line(f"dual relation space (dim {dual.dim}):")
    for ident in ids.identities:
        report.line("  " + str(ident))
    report.line("self-dual" if report.data["self_dual"] else "not self-dual")
    return 0


@command("implies", "variety containment at a degree",
         flag("--sub", required=True, help="smaller variety's system"),
         flag("--sup", required=True, help="larger variety's system"),
         flag("--degree", type=int, required=True))
def cmd_implies(args, report):
    ok = implies(_load_system(args.sub), _load_system(args.sup), args.degree, args.cap)
    report.verdict = ok
    report.line("contained" if ok else "not contained")
    return 0 if ok else 1


@command("prove-zero", "membership in the consequence ideal", flag("--expr", required=True), SYSTEM)
def cmd_prove_zero(args, report):
    ok = prove_zero(parse_expr(args.expr), _load_system(args.system), args.cap)
    report.verdict = ok
    report.line("zero in the variety" if ok else "not a consequence")
    return 0 if ok else 1


@command("nice-index", "minimal k with an order/association free product", SYSTEM,
         flag("--kmax", type=int, default=6))
def cmd_nice_index(args, report):
    k = nice_index(_load_system(args.system), args.kmax, args.cap)
    report.data["nice_index"] = k
    report.line(str(k) if k is not None else "none")
    return 0


@command("normal-form", "free-algebra normal form", flag("--expr", required=True), VARIETY)
def cmd_normal_form(args, report):
    nf = normal_form(parse_expr(args.expr), args.variety, args.cap)
    report.data["terms"] = [[str(c), label_str(lab)] for c, lab in nf.terms]
    report.line(str(nf))
    return 0


@command("free-basis", "free-algebra basis enumeration", VARIETY,
         flag("--degree", type=int, required=True),
         flag("--generators", type=int, required=True),
         flag("--multilinear", action="store_true"))
def cmd_free_basis(args, report):
    labels = free_basis(args.variety, args.degree, args.generators, args.multilinear)
    report.data["count"] = len(labels)
    report.data["labels"] = [label_str(lab) for lab in labels]
    for lab in labels:
        report.line(label_str(lab))
    report.line(f"count: {len(labels)}")
    return 0


@command("check-identity", "identity check on an algebra", SYSTEM,
         flag("--mode", choices=("multilinear", "symbolic"), default="multilinear"),
         algebra="--algebra")
def cmd_check_identity(args, report, A):
    return _check_and_report(report, check_identity(A, _load_system(args.system), args.mode))


@command("polarize", "multilinearize an identity", flag("--identity", required=True))
def cmd_polarize(args, report):
    ident = parse_identity(args.identity)
    out = multilinearize(ident)
    report.data["identities"] = [str(i) for i in out]
    for i in out:
        report.line(str(i))
    return 0


def _construction(args, report, result: AlgebraStructure):
    """Print a constructed algebra and check it against --check-system if given."""
    report.line(f"{result.name} (dim {result.dim}"
                + (f", parameters {', '.join(result.parameters)})" if result.parameters else ")"))
    for line in result.products_str():
        report.line("  " + line)
    report.data["algebra"] = result.to_json_dict()
    if args.check_system:
        return _check_and_report(report, check_identity(result, _load_system(args.check_system)))
    return 0


@command("mutate", "(p,q)-mutation", flag("--p"), flag("--q"),
         flag("--generic", action="store_true", help="use generic p, q coordinates"),
         CHECK_SYSTEM, algebra="--algebra")
def cmd_mutate(args, report, A):
    if args.generic:
        ext, p = A.generic_element("p")
        ext, q = ext.generic_element("q")
        return _construction(args, report, mutation(ext, p, q))
    if args.p is None or args.q is None:
        raise ParseError("mutate needs --p and --q, or --generic")
    p, q = _parse_element(A, args.p, "--p"), _parse_element(A, args.q, "--q")
    return _construction(args, report, mutation(A, p, q))


@command("kantor", "Kantor square", flag("--p"), flag("--generic", action="store_true"), CHECK_SYSTEM,
         algebra="--algebra")
def cmd_kantor(args, report, A):
    if args.generic:
        ext, p = A.generic_element("p")
        return _construction(args, report, kantor_square(ext, p))
    if args.p is None:
        raise ParseError("kantor needs --p, or --generic")
    return _construction(args, report, kantor_square(A, _parse_element(A, args.p, "--p")))


@command("hull", "unital hull", CHECK_SYSTEM, algebra="--algebra")
def cmd_hull(args, report, A):
    return _construction(args, report, unital_hull(A))


@command("scalar-mutate", "scalar mutation alpha*xy + beta*yx",
         flag("--alpha", default="u"), flag("--beta", default="v"), CHECK_SYSTEM, algebra="--algebra")
def cmd_scalar_mutate(args, report, A):
    alpha = PolyQ.var(args.alpha) if args.alpha.isalpha() else rational(args.alpha, "--alpha")
    beta = PolyQ.var(args.beta) if args.beta.isalpha() else rational(args.beta, "--beta")
    return _construction(args, report, scalar_mutation(A, alpha, beta))


@command("compatible", "compatible pair of products",
         flag("--algebra-b", required=True), flag("--system", default="sas"), algebra="--algebra")
def cmd_compatible(args, report, A):
    B = _load_algebra(args.algebra_b, args.set)
    return _check_and_report(report, compatible_check(A, B, _load_system(args.system)))


@command("derivations", "derivation algebra", algebra="--algebra")
def cmd_derivations(args, report, A):
    der = derivation_algebra(A)
    report.data["dim"] = der.dim
    report.data["matrices"] = [[[str(x) for x in row] for row in m] for m in der.matrices]
    report.line(f"dim Der = {der.dim}")
    for idx, m in enumerate(der.matrices, 1):
        report.line(f"D{idx}:")
        for row in m:
            report.line("  [" + ", ".join(str(x) for x in row) + "]")
    return 0


@command("leibniz", "Leibniz-derivation check",
         flag("--matrix", required=True, help="JSON file with matrix rows"),
         flag("--order", type=int, required=True),
         flag("--bracketing", default="all"), algebra="--algebra")
def cmd_leibniz(args, report, A):
    with open(args.matrix) as fh:
        rows = json.load(fh)
    if not (isinstance(rows, list) and len(rows) == A.dim
            and all(isinstance(row, list) and len(row) == A.dim for row in rows)):
        raise ParseError(f"--matrix must be {A.dim}x{A.dim} for {A.name}")
    M = [[rational(x, "--matrix") for x in row] for row in rows]
    bracketing = "all"
    if args.bracketing != "all" and args.order >= 1:  # is_leibniz_derivation refuses a lower order
        count = catalan(args.order - 1)
        try:
            k = int(args.bracketing)
        except ValueError:
            k = -1
        if not 0 <= k < count:
            raise ParseError(f"--bracketing must be 'all' or 0..{count - 1} at order {args.order}")
        bracketing = shape_at(args.order, k)
    ok = is_leibniz_derivation(A, M, args.order, bracketing)
    report.verdict = ok
    report.line("Leibniz derivation" if ok else "not a Leibniz derivation")
    return 0 if ok else 1


@command("powers", "power and derived chains", algebra="--algebra")
def cmd_powers(args, report, A):
    rep = powers_and_nilpotency(A)
    report.data.update(asdict(rep))
    report.line(str(rep))
    return 0


@command("peirce", "Peirce split at an idempotent",
         flag("--idempotent", required=True, help="comma-separated coordinates"), algebra="--algebra")
def cmd_peirce(args, report, A):
    split = peirce(A, _parse_element(A, args.idempotent, "--idempotent"))
    report.data.update(
        {
            "dims": list(split.dims()),
            "a_half_zero": split.a_half_zero,
            "a0_ideal": split.a0_ideal,
            "a1_ideal": split.a1_ideal,
            "cross_products_zero": split.cross_products_zero,
            "a0": [[str(x) for x in v] for v in split.a0],
            "a1": [[str(x) for x in v] for v in split.a1],
        }
    )
    report.line(f"dims (A0, A1/2, A1) = {split.dims()}")
    report.line(f"A1/2 = 0: {split.a_half_zero}; ideals: {split.a0_ideal and split.a1_ideal}; "
                f"A0*A1 = A1*A0 = 0: {split.cross_products_zero}")
    return 0


@command("wedderburn", "semisimple + radical split with verification", algebra="--algebra")
def cmd_wedderburn(args, report, A):
    split = wedderburn(A)
    report.verdict = split.all_ok
    report.data.update(
        {
            "dims": list(split.dims()),
            "flags": split.flags,
            "idempotents": [[str(x) for x in v] for v in split.s_basis],
            "radical": [[str(x) for x in v] for v in split.r_basis],
        }
    )
    report.line(f"dim S = {split.dims()[0]}, dim R = {split.dims()[1]}")
    for k, v in split.flags.items():
        report.line(f"  {k}: {v}")
    return 0 if split.all_ok else 1


@command("cocycle", "product theta(x,y) + [x,y] on a Lie algebra",
         flag("--theta", required=True, help="JSON file of symmetric entries"),
         flag("--name"), CHECK_SYSTEM, algebra="--lie")
def cmd_cocycle(args, report, L):
    with open(args.theta) as fh:
        theta = CocycleSpec.from_json_dict(L.dim, json.load(fh))
    return _construction(args, report, algebra_from_cocycle(L, theta, args.name))


@command("fingerprint", "basis-change invariants", algebra="--algebra")
def cmd_fingerprint(args, report, A):
    fp = fingerprint(A)
    report.data["fingerprint"] = asdict(fp)
    report.line(str(fp.as_tuple()))
    return 0


@command("transform", "structure constants in a parametrized basis",
         flag("--cert", help="take basis/subst from a certificate file"),
         flag("--basis", help="JSON list of columns of rational-function strings"),
         flag("--subst", help="JSON object of parameter substitutions"), algebra="--algebra")
def cmd_transform(args, report, A):
    from .moduli import ParamBasis, transform

    if args.cert:
        basis = ParamBasis.from_strings(*corpus.certificate_basis(corpus.load_certificate(args.cert)))
    elif args.basis:
        basis = ParamBasis.from_strings(json.loads(args.basis), json.loads(args.subst) if args.subst else None)
    else:
        raise ParseError("transform needs --cert or --basis")
    out = transform(A, basis)
    entries = []
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                if out[i][j][k] != 0:
                    entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "value": str(out[i][j][k])})
                    report.line(f"c[{i+1}][{j+1}][{k+1}] = {out[i][j][k]}")
    report.data["constants"] = entries
    return 0


@command("degenerate", "check a degeneration certificate", flag("--cert", required=True),
         flag("--sample", help="family parameter sample (rational)"))
def cmd_degenerate(args, report):
    cert = corpus.load_certificate(args.cert)
    sample = None if args.sample is None else rational(args.sample, "--sample")
    result = corpus.run_certificate(cert, sample=sample)
    results = result if isinstance(result, list) else [result]
    ok = all(r.verdict for r in results)
    report.verdict = ok
    report.data["checks"] = []
    for r in results:
        entry = {"source": r.source, "target": r.target, "verdict": r.verdict}
        if not r.verdict:
            entry["failures"] = [
                {"i": e.i, "j": e.j, "k": e.k, "value": e.value, "limit": str(e.limit), "expected": str(e.expected)}
                for e in r.failures()
            ]
        report.data["checks"].append(entry)
        report.line(f"{r.source} -> {r.target}: {'verified' if r.verdict else 'FAILED'}")
        for e in r.failures():
            report.line(f"  c[{e.i}][{e.j}][{e.k}](t) = {e.value}, limit {e.limit}, expected {e.expected}")
    return 0 if ok else 1


@command("orbit-dim", "n^2 - dim Der (plus family parameters)", algebra="--algebra")
def cmd_orbit_dim(args, report, A):
    from .moduli import orbit_dim

    d = orbit_dim(A)
    report.data["orbit_dim"] = d
    report.line(str(d))
    return 0


@command("closed-set", "membership in a closed-set specification", flag("--spec", required=True),
         algebra="--algebra")
def cmd_closed_set(args, report, A):
    from .moduli import closed_set_membership

    member = closed_set_membership(corpus.load_closed_set(args.spec), A)
    report.verdict = member
    report.line("member" if member else "not a member")
    return 0 if member else 1


@command("pencil-invariant", "pencil invariant of a 3-dimensional algebra", algebra="--algebra")
def cmd_pencil_invariant(args, report, A):
    from .moduli import pencil_invariant

    value = pencil_invariant(A)
    report.data["invariant"] = str(value)
    report.line(str(value))
    return 0


@command("reproduce-paper", "run the full verification matrix", flag("--only", help="restrict to one section"),
         flag("--seed", type=int, default=0))
def cmd_reproduce(args, report):
    from .reproduce import run_reproduction

    rows, elapsed = run_reproduction(only=args.only, seed=args.seed, cap=args.cap)
    passed = sum(1 for r in rows if r.passed)
    report.verdict = passed == len(rows)
    report.data["rows"] = [
        {"section": r.section, "name": r.name, "passed": r.passed, "detail": r.detail} for r in rows
    ]
    report.data["elapsed_seconds"] = round(elapsed, 2)
    for r in rows:
        marker = "PASS" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        report.line(f"[{marker}] {r.section}: {r.name}{suffix}")
    report.line(f"{passed}/{len(rows)} rows passed in {elapsed:.1f}s")
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nassoc",
        description="Exact verification tools for nonassociative algebra varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, fn, flags, algebra in COMMANDS:
        sp = sub.add_parser(name, help=help)
        if algebra:
            sp.add_argument(algebra, required=True)
        for names, kwargs in flags:
            sp.add_argument(*names, **kwargs)
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        sp.add_argument("--cap", type=int, default=None, help="degree cap override (default 6, max 8)")
        if algebra:
            sp.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                            help="specialize an algebra parameter (repeatable)")
        sp.set_defaults(fn=fn, algebra_dest=algebra[2:] if algebra else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.command)
    try:
        if args.cap is not None and args.cap < 1:
            raise ParseError(f"--cap must be at least 1, got {args.cap}")
        if args.algebra_dest:
            code = args.fn(args, report, _load_algebra(getattr(args, args.algebra_dest), args.set))
        else:
            code = args.fn(args, report)
    except (NassocError, FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = report.render(args.json)
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
