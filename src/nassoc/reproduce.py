"""One-shot verification matrix over every computational target.

Each row re-derives a concrete claim (a dimension table, a dual operad, a
classification entry, a decomposition, a degeneration certificate) from
scratch and reports pass/fail.  The CLI's reproduce-paper subcommand and the
acceptance test suite both run these rows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import corpus
from .algebras import (
    check_identity,
    kantor_square,
    minus_algebra,
    mutation,
    scalar_mutation,
    unital_hull,
)
from .exact.poly import PolyQ
from .exact.series import SeriesQ
from .freealg import _quotient, free_basis, sas_normal_form
from .moduli import (
    closed_set_membership,
    degeneration_necessary,
    orbit_dim,
    pencil_invariant,
    random_invertible_matrix,
)
from .operads import (
    implies,
    koszul_dual,
    koszulity_residual,
    multilinear_dim,
    nice_index,
    polarized_identity_dim,
    prove_zero,
)
from .structure import change_basis, peirce, wedderburn
from .systems import anti_system, builtin_system
from .terms import parse_expr, parse_system

PARAM_SAMPLES = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))

# the seventeen bracket/anticommutator identities that vanish in every
# shift associative algebra, plus the two exchange rules
VANISHING_WORDS = (
    "[x1,[x2,[x3,[x4,x5]]]]",
    "[x1,[x2,[x3,(x4 o x5)]]]",
    "[x1,[x2,(x3 o [x4,x5])]]",
    "[x1,(x2 o [x3,[x4,x5]])]",
    "(x1 o [x2,[x3,[x4,x5]]])",
    "[x1,[x2,(x3 o (x4 o x5))]]",
    "[x1,(x2 o [x3,(x4 o x5)])]",
    "(x1 o [x2,[x3,(x4 o x5)]])",
    "[x1,(x2 o (x3 o [x4,x5]))]",
    "(x1 o [x2,(x3 o [x4,x5])])",
    "(x1 o (x2 o [x3,[x4,x5]]))",
    "(x1 o (x2 o (x3 o [x4,x5])))",
    "(x1 o (x2 o [x3,(x4 o x5)]))",
    "(x1 o [x2,(x3 o (x4 o x5))])",
    "[x1,(x2 o (x3 o (x4 o x5)))]",
)
EXCHANGE_WORDS = (
    "(x1 o (x2 o (x3 o x4))) - (x2 o (x1 o (x3 o x4)))",
    "(x1 o (x2 o (x3 o (x4 o x5)))) - (x1 o (x2 o (x4 o (x3 o x5))))",
)

SWAP_SYSTEM = "((x1 x2) (x3 x4)) = ((x2 x1) (x4 x3))"
TWO_STEP_SYSTEM = "((x1,x2,x3),x4,x5) = 0"
JORDAN_ADMISSIBLE_SYSTEM = "\n".join(
    [
        "[[x1,x2],x3] + [[x2,x3],x1] + [[x3,x1],x2] = 0",
        "((x1 o x2) o (x1 o x1)) = (x1 o (x2 o (x1 o x1)))",
        "[(x1 o x2),x3] + (x1 o [x2,x3]) + ([x1,x3] o x2) = 0",
        "(x3 o [x1,x2]) + (x2 o [x1,x3]) = [x3,(x1 o x2)] + [x2,(x1 o x3)]",
        "[x1,(x2 o x3)] + [x3,(x1 o x2)] + [x2,(x1 o x3)] = 0",
    ]
)
RIGHT_NESTED_FIVE = "(x1 (x2 (x3 (x4 x5)))) = 0"


@dataclass
class Row:
    section: str
    name: str
    passed: bool
    detail: str = ""


def _series(order, pairs):
    coeffs = [Fraction(0)] * order
    for n, c in pairs:
        coeffs[n - 1] = Fraction(c)
    return SeriesQ(order, coeffs)


def sas_family_entries():
    """Corpus entries claiming shift associativity (noncommutative tables)."""
    return corpus.SHIFT_ASSOCIATIVE_3D + corpus.SHIFT_ASSOCIATIVE_4D + ("dim5_nonassoc",)


def find_table_idempotent(A):
    for i in range(1, A.dim + 1):
        e = A.basis_element(i)
        if A.mul(e, e) == e:
            return i
    return None


def specializations(A):
    if not A.is_parametric():
        return [A]
    out = []
    for s in PARAM_SAMPLES:
        out.append(A.specialize({p: s for p in A.parameters}))
    return out


# ---------------------------------------------------------------------------
# section runners


def rows_operads(cap=None):
    rows = []
    sas = builtin_system("sas")
    dims = tuple(multilinear_dim(sas, n, cap) for n in range(1, 6))
    rows.append(Row("operads", "multilinear dims of the shift associative operad", dims == (1, 2, 6, 12, 1), f"{dims}"))

    res = koszulity_residual(sas, sas, 5, cap)
    rows.append(
        Row("operads", "self-composition residual 61/60 t^5", res == _series(5, [(5, Fraction(61, 60))]), str(res))
    )
    for name in ("a23", "a12"):
        sysn = builtin_system(name)
        r = koszulity_residual(sysn, koszul_dual(sysn), 5, cap)
        rows.append(
            Row("operads", f"residual of {name} against its dual is 7/6 t^5", r == _series(5, [(5, Fraction(7, 6))]), str(r))
        )
    asys = builtin_system("as")
    rows.append(Row("operads", "associative residual vanishes", koszulity_residual(asys, asys, 5, cap).is_zero()))

    expectations = {
        "as": ("self", None),
        "a123": ("self", None),
        "a132": ("self", None),
        "a23": ("anti", "a23"),
        "a12": ("anti", "a12"),
        "a13": ("anti", "a13"),
    }

    def same(a, b):
        return implies(a, b, 3) and implies(b, a, 3)

    for name, (kind, anti) in expectations.items():
        sysn = builtin_system(name)
        dual = koszul_dual(sysn)
        if kind == "self":
            ok = same(dual, sysn)
            detail = "self-dual"
        else:
            ok = same(dual, anti_system(anti)) and not same(dual, sysn)
            detail = "sign-flipped dual"
        rows.append(Row("operads", f"dual table row for {name}", ok, detail))
    for name in ("as", "sas", "a132"):
        sysn = builtin_system(name)
        rows.append(Row("operads", f"dual involution on {name}", same(koszul_dual(koszul_dual(sysn)), sysn)))
    return rows


def _nf_verdicts(q, idx, nf):
    """(idempotent, sound) for the normal form nf of the multilinear word at
    index idx, decided on index vectors in the quotient q of its degree."""
    c = [0] * len(q.labels)
    for coeff, label in nf.terms:
        c[q.labels.index(label)] = coeff
    # the rewrite is w / d: d e_idx - w lies in I(n) iff e_idx - w / d does
    w, d = q.expand(c)
    diff = {k: -x for k, x in w.items()}
    diff[idx] = diff.get(idx, 0) + d
    return q.coords(w, d) == c, q.cons.contains_vec(diff)


def rows_freealg(cap=None):
    rows = []
    sas = builtin_system("sas")
    cas = builtin_system("cas")
    counts_ok = (
        len(free_basis("sas", 4, 4, multilinear=True)) == 12
        and len(free_basis("sas", 5, 5, multilinear=True)) == 1
        and len(free_basis("cas", 3, 3, multilinear=True)) == 2
        and len(free_basis("cas", 4, 4, multilinear=True)) == 1
    )
    rows.append(Row("freealg", "free-basis monomial counts (12/1 and 2/1)", counts_ok))
    agree = all(
        len(free_basis("sas", n, n, multilinear=True)) == multilinear_dim(sas, n, cap) for n in range(1, 6)
    ) and all(len(free_basis("cas", n, n, multilinear=True)) == multilinear_dim(cas, n, cap) for n in range(1, 6))
    rows.append(Row("freealg", "basis counts agree with multilinear dimensions (n <= 5)", agree))

    ok_idem = True
    ok_sound = True
    for n in range(1, 6):
        q = _quotient("sas", n, cap)
        space = q.cons.space
        for idx in range(space.dim):
            nf = sas_normal_form(space.vec_to_expr({idx: 1}), cap)
            ok_idem, ok_sound = _nf_verdicts(q, idx, nf)
            if not (ok_idem and ok_sound):
                break
        if not (ok_idem and ok_sound):
            break
    rows.append(Row("freealg", "normal form idempotent on all multilinear words (degree <= 5)", ok_idem))
    rows.append(Row("freealg", "normal form sound on all multilinear words (degree <= 5)", ok_sound))
    return rows


def rows_identities(cap=None):
    rows = []
    sas = builtin_system("sas")
    held = sum(1 for s in VANISHING_WORDS + EXCHANGE_WORDS if prove_zero(parse_expr(s), sas, cap))
    rows.append(Row("identities", "all 17 vanishing/exchange identities hold", held == 17, f"{held}/17"))
    rows.append(
        Row(
            "identities",
            "double bracket [[x1,x2],x3] is not a consequence",
            not prove_zero(parse_expr("[[x1,x2],x3]"), sas, cap),
        )
    )
    nice = (
        nice_index(builtin_system("sas"), 6, cap),
        nice_index(builtin_system("cas"), 6, cap),
        nice_index(builtin_system("com-as"), 6, cap),
        nice_index(builtin_system("as"), 6, cap),
    )
    rows.append(Row("identities", "niceness indices (5, 4, 3, none)", nice == (5, 4, 3, None), f"{nice}"))
    cas = builtin_system("cas")
    casd = builtin_system("cas-dual")
    incl = all(implies(cas, sas, n, cap) and implies(sas, casd, n, cap) for n in (3, 4))
    strict = not implies(sas, builtin_system("as"), 3, cap)
    rows.append(Row("identities", "variety inclusions cyclic < shift < dual-cyclic (degrees 3, 4)", incl and strict))

    # the listed commutator/anticommutator identities of the type table
    jacobi = "[[x1,x2],x3] + [[x2,x3],x1] + [[x3,x1],x2]"
    listed = [
        ("as", jacobi, "associative commutator satisfies the Jacobi identity"),
        ("sas", jacobi, "shift associative commutator satisfies the Jacobi identity"),
        ("sas", "[[[[x1,x2],x3],x4],x5]", "shift associative commutator is 4-step nilpotent (left-normed)"),
        ("a132", "[[x1,x2],x3]", "(ab)c = c(ab): double bracket vanishes"),
        ("a132", "[(x1 o x2),x3]", "(ab)c = c(ab): bracket of an anticommutator vanishes"),
        ("a13", "[(x1 o x2),x3]", "(ab)c = c(ba): bracket of an anticommutator vanishes"),
        ("a13", "([x1,x2] o x3)", "(ab)c = c(ba): anticommutator of a bracket vanishes"),
        ("cas", "[[x1,x2],x3]", "cyclic associative double bracket vanishes"),
        ("cas", "((x1 o x2) o x3) - (x1 o (x2 o x3))", "cyclic associative anticommutator is associative"),
    ]
    for name, text, label in listed:
        rows.append(Row("identities", label, prove_zero(parse_expr(text), builtin_system(name), cap)))

    # the table's open entries have no printed target: report the computed
    # dimensions of the candidate identity spaces without asserting anything
    for name in ("a12", "a23"):
        dims = {
            op: polarized_identity_dim(builtin_system(name), op, 3, cap) for op in ("circle", "bracket")
        }
        rows.append(
            Row(
                "identities",
                f"open table entry for {name}: candidate polarized identity spaces (report only)",
                True,
                f"degree-3 dims incl. trivial symmetries: circle {dims['circle']}, bracket {dims['bracket']}",
            )
        )
    return rows


def rows_classification():
    rows = []
    for name in corpus.COMMUTATIVE_ASSOCIATIVE:
        A = corpus.load_algebra(name)
        ok = check_identity(A, builtin_system("com-as")).holds
        rows.append(Row("classification", f"{name} is commutative associative", ok))
    for name in corpus.SHIFT_ASSOCIATIVE_3D + corpus.SHIFT_ASSOCIATIVE_4D:
        A = corpus.load_algebra(name)
        ok = check_identity(A, builtin_system("sas")).holds
        detail = "symbolic in alpha" if A.is_parametric() else ""
        rows.append(Row("classification", f"{name} is shift associative", ok, detail))
    for name in corpus.SHIFT_ASSOCIATIVE_4D:
        A = corpus.load_algebra(name)
        ok = check_identity(A, builtin_system("cas")).holds
        rows.append(Row("classification", f"{name} is cyclic associative", ok))
    dim5 = corpus.load_algebra("dim5_nonassoc")
    ok = check_identity(dim5, builtin_system("sas")).holds
    rows.append(Row("classification", "minimal example is shift associative", ok))
    res = check_identity(dim5, builtin_system("as"))
    witness_ok = (not res.holds) and res.counterexample.tuple_labels == ("e1", "e2", "e1")
    rows.append(
        Row(
            "classification",
            "minimal example fails associativity at (e1, e2, e1)",
            witness_ok,
            str(res.counterexample) if res.counterexample else "",
        )
    )
    return rows


def rows_structure():
    rows = []
    swap_sys = parse_system("swap", SWAP_SYSTEM)
    apj_sys = parse_system("anti-poisson-jordan", JORDAN_ADMISSIBLE_SYSTEM)
    two_step = parse_system("two-step", TWO_STEP_SYSTEM)
    nested5 = parse_system("right-nested-5", RIGHT_NESTED_FIVE)

    for name in sas_family_entries():
        A = corpus.load_algebra(name)
        ok = check_identity(A, swap_sys).holds and check_identity(A, apj_sys).holds
        rows.append(Row("structure", f"{name}: polarized pair is anti-Poisson-Jordan", ok))
        rows.append(Row("structure", f"{name}: two-step associativity", check_identity(A, two_step).holds))
        rows.append(
            Row(
                "structure",
                f"{name}: commutator algebra is 4-step nilpotent",
                check_identity(minus_algebra(A), nested5).holds,
            )
        )

    for name in corpus.corpus_names():
        if name in ("L1", "L2"):
            continue
        A = corpus.load_algebra(name)
        idx = find_table_idempotent(A)
        if idx is None:
            continue
        for S in specializations(A):
            e = S.basis_element(idx)
            split = peirce(S, e)
            ok = split.a_half_zero and split.a0_ideal and split.a1_ideal and split.cross_products_zero
            rows.append(Row("structure", f"{name}: Peirce split at e{idx} ({S.name})", ok, f"dims {split.dims()}"))
            commutes = all(
                S.mul(e, S.basis_element(j)) == S.mul(S.basis_element(j), e)
                for j in range(1, S.dim + 1)
            )
            rows.append(Row("structure", f"{name}: idempotent commutes with everything ({S.name})", commutes))

    for name in corpus.corpus_names():
        if name in ("L1", "L2"):
            continue
        A = corpus.load_algebra(name)
        for S in specializations(A):
            split = wedderburn(S)
            rows.append(
                Row(
                    "structure",
                    f"{name}: semisimple/radical split verified ({S.name})",
                    split.all_ok,
                    f"dims {split.dims()}",
                )
            )
    return rows


def rows_constructions():
    rows = []
    cas = builtin_system("cas")
    sas = builtin_system("sas")
    for name in sas_family_entries():
        A = corpus.load_algebra(name)
        ext, p = A.generic_element("p")
        ext, q = ext.generic_element("q")
        rows.append(
            Row(
                "constructions",
                f"{name}: generic mutation is cyclic associative",
                check_identity(mutation(ext, p, q), cas).holds,
            )
        )
        ext2, p2 = A.generic_element("p")
        rows.append(
            Row(
                "constructions",
                f"{name}: generic Kantor square is cyclic associative",
                check_identity(kantor_square(ext2, p2), cas).holds,
            )
        )
        hull_fails = not check_identity(unital_hull(A), sas).holds
        rows.append(Row("constructions", f"{name}: unital hull fails shift associativity", hull_fails))

    a132 = builtin_system("a132")
    for name in ("a2", "A17"):
        A = corpus.load_algebra(name)
        mutated = scalar_mutation(A, PolyQ.var("u"), PolyQ.var("v"))
        rows.append(
            Row(
                "constructions",
                f"{name}: scalar mutation preserves (ab)c = c(ab) symbolically",
                check_identity(mutated, a132).holds,
            )
        )
    return rows


def rows_moduli():
    rows = []
    A17, a12 = corpus.load_algebra("A17"), corpus.load_algebra("a12")
    rows.append(Row("moduli", "orbit dimension of the split semisimple table is 16", orbit_dim(A17) == 16))
    fam = orbit_dim(a12)
    rows.append(Row("moduli", "orbit dimension of the a12 family is 13", fam == 13, f"family orbit {fam}"))
    per_sample = all(orbit_dim(a12.specialize({"alpha": s})) == 12 for s in PARAM_SAMPLES)
    rows.append(Row("moduli", "each a12 specialization has orbit dimension 12", per_sample))

    for certname in corpus.CERTIFICATES:
        cert = corpus.load_certificate(certname)
        results = corpus.run_certificate(cert)
        detail = f"{len(results)} samples" if "family_parameter" in cert else ""
        rows.append(Row("moduli", f"degeneration certificate {certname}", all(r.verdict for r in results), detail))

    spec = corpus.load_closed_set("a12_not_a10")
    in12 = closed_set_membership(spec, a12.specialize({"alpha": 1}))
    in10 = closed_set_membership(spec, corpus.load_algebra("a10").specialize({"alpha": 1}))
    rows.append(Row("moduli", "closed set contains the a12 representative", in12))
    rows.append(Row("moduli", "closed set excludes the a10 representative", not in10))

    rep = degeneration_necessary(A17, a12.specialize({"alpha": 1}))
    rows.append(Row("moduli", "necessary conditions for A17 -> a12@1", rep.possible, str(rep.details)))
    return rows


def rows_pencil(seed=0):
    rows = []
    a2 = corpus.load_algebra("a2")
    values_ok = all(
        pencil_invariant(a2.specialize({"alpha": s})) == s for s in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1))
    )
    rows.append(Row("pencil", "pencil invariant equals the family parameter", values_ok))
    rng = random.Random(seed)
    A = a2.specialize({"alpha": Fraction(2)})
    stable = True
    for _ in range(20):
        M = random_invertible_matrix(3, rng)
        if pencil_invariant(change_basis(A, M)) != Fraction(2):
            stable = False
            break
    rows.append(Row("pencil", "pencil invariant stable under 20 seeded basis changes", stable))
    return rows


SECTIONS = {
    "operads": lambda seed, cap: rows_operads(cap),
    "freealg": lambda seed, cap: rows_freealg(cap),
    "identities": lambda seed, cap: rows_identities(cap),
    "classification": lambda seed, cap: rows_classification(),
    "structure": lambda seed, cap: rows_structure(),
    "constructions": lambda seed, cap: rows_constructions(),
    "moduli": lambda seed, cap: rows_moduli(),
    "pencil": lambda seed, cap: rows_pencil(seed),
}


def run_reproduction(only=None, seed: int = 0, cap=None):
    """Run all (or selected) sections; returns (rows, elapsed seconds)."""
    start = time.time()
    names = [only] if only else list(SECTIONS)
    if only and only not in SECTIONS:
        raise ValueError(f"unknown section {only!r}; known: {', '.join(SECTIONS)}")
    rows: list[Row] = []
    for name in names:
        rows.extend(SECTIONS[name](seed, cap))
    return rows, time.time() - start
