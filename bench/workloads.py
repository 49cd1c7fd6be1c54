"""The three benchmark workloads: seeded inputs, timed operations, output checks.

Each workload has four steps:

* ``generate(workload, seed, size)`` makes the inputs.  It is pure Python,
  never imports nassoc, and gives byte-identical JSON for the same seed.
* ``prepare`` turns the inputs into program objects (parsed systems, loaded
  corpus tables, exact basis-change matrices).  It is part of set-up.
* ``execute`` is the timed part.  Every operation is run through ``_attempt``,
  so an exception fails that operation only.
* ``expected`` gives the answer for every operation; ``check`` compares.

Program functions are always reached through their module (``operads.x``,
not ``from nassoc.operads import x``) so that the tracer's wrappers, which
replace module attributes, see the calls.
"""

from __future__ import annotations

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("reproduce", "operad-build", "tables")
SIZES = ("full", "tiny")

# ---------------------------------------------------------------------------
# reproduce: the whole verification matrix of reproduce-paper

# the tiny size runs only the fast sections, checked against the same record
REPRODUCE_TINY_SECTIONS = ("classification", "moduli", "pencil")

# ---------------------------------------------------------------------------
# operad-build: cold consequence spaces for seeded presentations

# identities as {word: coefficient}, words as nested pairs of variable indices
BASE_PRESENTATIONS = {
    "sas": [{((1, 2), 3): 1, (2, (3, 1)): -1}],
    "cas": [{((1, 2), 3): 1, (1, (2, 3)): -1}, {((1, 2), 3): 1, (2, (3, 1)): -1}],
    "as": [{((1, 2), 3): 1, (1, (2, 3)): -1}],
    "a12": [{((1, 2), 3): 1, (2, (1, 3)): -1}],
}
# quotient dimensions in degrees 1..6; they do not depend on the presentation
EXPECTED_DIMS = {
    "sas": (1, 2, 6, 12, 1, 1),
    "cas": (1, 2, 2, 1, 1, 1),
    "as": (1, 2, 6, 24, 120, 720),
    "a12": (1, 2, 6, 12, 20, 30),
}
MAX_DEGREE = {"full": 6, "tiny": 4}

# ---------------------------------------------------------------------------
# tables: the non-Lie corpus in its shipped basis and after a basis change

CLASSES = {
    **{f"A{i:02d}": ("com-as",) for i in range(1, 30)},
    "a1": ("sas",),
    "a2": ("sas",),
    **{f"a{i:02d}": ("sas", "cas") for i in range(1, 15)},
    "dim5_nonassoc": ("sas",),
}
TINY_TABLES = ("A05", "A17", "a1", "a2", "a01", "a12", "dim5_nonassoc")
CERTIFICATES = ("a12_0_to_a11", "a12_m1t_to_a13", "a13_to_a14", "a12_family_to_a06")
PENCIL_ALPHA = "3/2"
PENCIL_CHANGES = 5
# basis changes are drawn at the largest table dimension; a table of
# dimension k uses the leading k x k block of each factor, which stays
# invertible because the matrix is a product L * D * U of triangular factors
MAX_TABLE_DIM = 5
# The cost of the checks on a dense table depends on the particular matrix:
# over seeds, fully random matrices moved the total size of the dense
# constants by +-11 % and the run time with it.  So each table's dense mix
# L * D * U is drawn once, from this fixed seed, and the run seed draws a
# signed permutation of the new basis, which changes the inputs and the
# order of the work but not its amount.
DENSE_MIX_SEED = "tables-dense-mix"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 5))


def _word_text(word) -> str:
    if isinstance(word, int):
        return f"x{word}"
    return f"({_word_text(word[0])} {_word_text(word[1])})"


def _relabel(word, sigma):
    if isinstance(word, int):
        return sigma[word]
    return (_relabel(word[0], sigma), _relabel(word[1], sigma))


def _identity_text(ident: dict) -> str:
    parts = []
    for word, c in sorted(ident.items(), key=lambda kv: _word_text(kv[0])):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)}*{_word_text(word)}")
    text = " ".join(parts)
    return (text[2:] if text.startswith("+ ") else "-" + text[2:]) + " = 0"


def _presentation(name: str, rng: random.Random) -> str:
    idents = [{w: Fraction(c) for w, c in ident.items()} for ident in BASE_PRESENTATIONS[name]]
    if len(idents) == 2:
        q = _rational(rng)
        combined = dict(idents[1])
        for w, c in idents[0].items():
            combined[w] = combined.get(w, Fraction(0)) + q * c
        idents[1] = combined
    sigma = [1, 2, 3]
    rng.shuffle(sigma)
    sigma = {i + 1: s for i, s in enumerate(sigma)}
    idents = [{_relabel(w, sigma): c for w, c in ident.items()} for ident in idents]
    rng.shuffle(idents)
    scaled = []
    for ident in idents:
        r = _rational(rng)
        scaled.append({w: r * c for w, c in ident.items()})
    return "\n".join(_identity_text(ident) for ident in scaled)


def _ldu(rng: random.Random, n: int) -> dict:
    """Factors of an invertible integer matrix L * D * U, dense after multiplying."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    diag = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    return {"L": lower, "D": diag, "U": upper}


def _signed_permutation(rng: random.Random, factors: dict) -> dict:
    n = len(factors["D"])
    perm = list(range(n))
    rng.shuffle(perm)
    return {**factors, "perm": perm, "signs": [rng.choice((-1, 1)) for _ in range(n)]}


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs for one run; JSON-serializable and a function of the arguments only."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {', '.join(SIZES)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reproduce":
        return {"workload": workload, "size": size, "seed": rng.randrange(2**31)}
    if workload == "operad-build":
        systems = [{"name": name, "text": _presentation(name, rng)} for name in BASE_PRESENTATIONS]
        return {"workload": workload, "size": size, "max_degree": MAX_DEGREE[size], "systems": systems}
    names = TINY_TABLES if size == "tiny" else tuple(CLASSES)
    return {
        "workload": workload,
        "size": size,
        "tables": [
            {
                "name": name,
                "basis_change": _signed_permutation(rng, _ldu(random.Random(f"{DENSE_MIX_SEED}:{name}"), MAX_TABLE_DIM)),
            }
            for name in names
        ],
        "certificates": list(CERTIFICATES),
        "pencil": {
            "alpha": PENCIL_ALPHA,
            "basis_changes": [_signed_permutation(rng, _ldu(rng, 3)) for _ in range(PENCIL_CHANGES)],
        },
    }


def input_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# exact basis-change matrices from the generated factors


def _unit_lower_inverse(lower):
    n = len(lower)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def basis_change(spec: dict, k: int):
    """(M, M^-1) as Fractions for a table of dimension k.

    M0 is the leading k x k block of L * D * U.  The new basis vector i is
    signs[i] times column perm_k[i] of M0, where perm_k lists the entries of
    perm below k in their order: M = M0 * P with P a signed permutation."""
    lower = [row[:k] for row in spec["L"][:k]]
    upper = [row[:k] for row in spec["U"][:k]]
    diag = spec["D"][:k]
    ld = [[Fraction(lower[i][j] * diag[j]) for j in range(k)] for i in range(k)]
    m0 = _matmul(ld, [[Fraction(x) for x in row] for row in upper])
    upper_t_inv = _unit_lower_inverse([[upper[j][i] for j in range(k)] for i in range(k)])
    upper_inv = [[upper_t_inv[j][i] for j in range(k)] for i in range(k)]
    dinv_linv = [[row[j] / diag[i] for j in range(k)] for i, row in enumerate(_unit_lower_inverse(lower))]
    m0_inv = _matmul(upper_inv, dinv_linv)
    perm = [p for p in spec["perm"] if p < k]
    signs = spec["signs"][:k]
    m = [[signs[i] * m0[r][perm[i]] for i in range(k)] for r in range(k)]
    minv = [[signs[i] * x for x in m0_inv[perm[i]]] for i in range(k)]
    return m, minv


# ---------------------------------------------------------------------------
# set-up, timed part and checks (these import nassoc)


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text())


def prepare(inputs: dict) -> dict:
    """Program objects for the timed part; this is the end of set-up."""
    from nassoc import corpus, terms

    workload = inputs["workload"]
    if workload == "reproduce":
        # nassoc/__init__ does not import it; loading it is set-up, not timed work
        importlib.import_module("nassoc.reproduce")
        return {"seed": inputs["seed"], "size": inputs["size"]}
    if workload == "operad-build":
        systems = [terms.parse_system(s["name"], s["text"]) for s in inputs["systems"]]
        return {"systems": systems, "max_degree": inputs["max_degree"]}
    record = load_expected("tables")
    tables = []
    for spec in inputs["tables"]:
        name = spec["name"]
        algebra = corpus.load_algebra(name)
        m, minv = basis_change(spec["basis_change"], algebra.dim)
        tables.append((name, algebra, m, minv, record["idempotents"][name]))
    pencil = inputs["pencil"]
    return {
        "tables": tables,
        "certificates": [(name, corpus.load_certificate(name)) for name in inputs["certificates"]],
        "a2": corpus.load_algebra("a2"),
        "alpha": Fraction(pencil["alpha"]),
        "pencil_changes": [basis_change(f, 3)[0] for f in pencil["basis_changes"]],
    }


def _attempt(outputs: dict, key: str, thunk):
    try:
        outputs[key] = thunk()
    except Exception as exc:  # one failed operation must not stop the run
        outputs[key] = f"error: {type(exc).__name__}: {exc}"


def execute(workload: str, state: dict) -> dict:
    """The timed part: every operation of the workload, outputs by key."""
    if workload == "reproduce":
        return _execute_reproduce(state)
    if workload == "operad-build":
        return _execute_operad_build(state)
    return _execute_tables(state)


def _execute_reproduce(state):
    from nassoc import reproduce

    if state["size"] == "full":
        batches = [None]
    else:
        batches = list(REPRODUCE_TINY_SECTIONS)
    rows = []
    try:
        for only in batches:
            rows.extend(reproduce.run_reproduction(only=only, seed=state["seed"])[0])
    except Exception as exc:  # the whole matrix is one call; report it as lost rows
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {_row_key(i, r.section, r.name): [r.passed, r.detail] for i, r in enumerate(rows)}


def _row_key(index: int, section: str, name: str) -> str:
    return f"{index:03d}|{section}|{name}"


def _execute_operad_build(state):
    from nassoc import operads

    outputs = {}
    top = state["max_degree"]
    for system in state["systems"]:
        for n in range(1, top + 1):
            _attempt(outputs, f"{system.name}.{n}", lambda: operads.multilinear_dim(system, n, top))
    return outputs


def _execute_tables(state):
    from nassoc import algebras, corpus, moduli, structure, systems

    outputs = {}

    def verdict(algebra, cls, mode):
        return algebras.check_identity(algebra, systems.builtin_system(cls), mode=mode).holds

    def wedderburn(algebra):
        split = structure.wedderburn(algebra)
        return [list(split.dims()), split.all_ok]

    def peirce(algebra, coords):
        split = structure.peirce(algebra, algebra.element(coords))
        flags = [split.a_half_zero, split.a0_ideal, split.a1_ideal, split.cross_products_zero]
        return [list(split.dims()), flags]

    for name, shipped, m, minv, idem in state["tables"]:
        dense = None
        try:
            dense = structure.change_basis(shipped, m)
        except Exception as exc:
            outputs[f"{name}.change_basis"] = f"error: {type(exc).__name__}: {exc}"
        else:
            outputs[f"{name}.change_basis"] = dense.dim == shipped.dim
        n = shipped.dim
        for tag, algebra in (("shipped", shipped), ("dense", dense)):
            if algebra is None:
                continue
            for cls in CLASSES[name]:
                _attempt(outputs, f"{name}.{tag}.{cls}.multilinear", lambda: verdict(algebra, cls, "multilinear"))
                if n <= 4:
                    _attempt(outputs, f"{name}.{tag}.{cls}.symbolic", lambda: verdict(algebra, cls, "symbolic"))
            if algebra.is_parametric():
                continue
            _attempt(outputs, f"{name}.{tag}.wedderburn", lambda: wedderburn(algebra))
            _attempt(outputs, f"{name}.{tag}.orbit_dim", lambda: moduli.orbit_dim(algebra))
            if idem is not None:
                if tag == "shipped":
                    coords = [Fraction(int(i == idem - 1)) for i in range(n)]
                else:
                    coords = [minv[i][idem - 1] for i in range(n)]
                _attempt(outputs, f"{name}.{tag}.peirce", lambda: peirce(algebra, coords))

    for name, cert in state["certificates"]:
        def run_cert():
            result = corpus.run_certificate(cert)
            results = result if isinstance(result, list) else [result]
            return all(r.verdict for r in results)

        _attempt(outputs, f"certificate.{name}", run_cert)

    def pencil(matrix):
        algebra = state["a2"].specialize({"alpha": state["alpha"]})
        if matrix is not None:
            algebra = structure.change_basis(algebra, matrix)
        return str(moduli.pencil_invariant(algebra))

    _attempt(outputs, "pencil.shipped", lambda: pencil(None))
    for i, matrix in enumerate(state["pencil_changes"]):
        _attempt(outputs, f"pencil.dense.{i}", lambda: pencil(matrix))
    return outputs


def expected(inputs: dict) -> dict:
    """The right output of every operation; it does not depend on the seed."""
    workload = inputs["workload"]
    if workload == "reproduce":
        rows = load_expected("reproduce")["rows"]
        if inputs["size"] == "tiny":
            rows = [r for r in rows if r[0] in REPRODUCE_TINY_SECTIONS]
        return {_row_key(i, sec, name): [passed, detail] for i, (sec, name, passed, detail) in enumerate(rows)}
    if workload == "operad-build":
        top = inputs["max_degree"]
        return {
            f"{s['name']}.{n}": EXPECTED_DIMS[s["name"]][n - 1] for s in inputs["systems"] for n in range(1, top + 1)
        }
    record = load_expected("tables")
    out = {}
    for spec in inputs["tables"]:
        name = spec["name"]
        facts = record["tables"][name]
        out[f"{name}.change_basis"] = True
        # the same answers in both bases: this is the basis-change invariance
        for tag in ("shipped", "dense"):
            for cls in CLASSES[name]:
                out[f"{name}.{tag}.{cls}.multilinear"] = True
                if facts["dim"] <= 4:
                    out[f"{name}.{tag}.{cls}.symbolic"] = True
            if facts["parametric"]:
                continue
            out[f"{name}.{tag}.wedderburn"] = [facts["wedderburn_dims"], True]
            out[f"{name}.{tag}.orbit_dim"] = facts["orbit_dim"]
            if facts["peirce"] is not None:
                out[f"{name}.{tag}.peirce"] = facts["peirce"]
    for name in inputs["certificates"]:
        out[f"certificate.{name}"] = True
    alpha = str(Fraction(inputs["pencil"]["alpha"]))
    out["pencil.shipped"] = alpha
    for i in range(len(inputs["pencil"]["basis_changes"])):
        out[f"pencil.dense.{i}"] = alpha
    return out


def check(inputs: dict, outputs: dict):
    """(attempted, failed, first mismatches) of one run's outputs."""
    want = expected(inputs)
    keys = list(want) + [key for key in outputs if key not in want]
    bad = [key for key in keys if key not in want or key not in outputs or outputs[key] != want[key]]
    mismatches = [{"key": k, "want": want.get(k), "got": outputs.get(k)} for k in bad[:10]]
    return len(keys), len(bad), mismatches
