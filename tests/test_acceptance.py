"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a [PASS] line on success; a failure prints the offending
rows.  The whole suite re-derives every number it asserts.
"""

from fractions import Fraction

from nassoc.exact import SeriesQ
from nassoc.operads import (
    koszul_dual,
    koszulity_residual,
    multilinear_dim,
    nice_index,
    prove_zero,
    implies,
)
from nassoc.freealg import free_basis
from nassoc.reproduce import (
    EXCHANGE_WORDS,
    VANISHING_WORDS,
    rows_classification,
    rows_constructions,
    rows_freealg,
    rows_moduli,
    rows_pencil,
    rows_structure,
)
from nassoc.systems import anti_system, builtin_system
from nassoc.terms import parse_expr

Q = Fraction


def _series(order, pairs):
    coeffs = [Q(0)] * order
    for n, c in pairs:
        coeffs[n - 1] = Q(c)
    return SeriesQ(order, coeffs)


def _report(name, rows):
    bad = [r for r in rows if not r.passed]
    for r in bad:
        print(f"[FAIL] {name}: {r.name} {r.detail}")
    assert not bad, f"{len(bad)} rows failed"
    print(f"[PASS] {name} ({len(rows)} rows)")


def test_criterion_01_operad_dimensions():
    sas = builtin_system("sas")
    dims = tuple(multilinear_dim(sas, n) for n in range(1, 6))
    assert dims == (1, 2, 6, 12, 1)
    from nassoc.operads import hilbert

    assert hilbert(sas, 5) == _series(5, [(1, -1), (2, 1), (3, -1), (4, Q(1, 2)), (5, Q(-1, 120))])
    print("[PASS] criterion 1: multilinear dimensions 1 2 6 12 1 with the signed series")


def test_criterion_02_koszulity_residuals():
    sas = builtin_system("sas")
    assert koszulity_residual(sas, sas, 5) == _series(5, [(5, Q(61, 60))])
    for name in ("a23", "a12"):
        sysn = builtin_system(name)
        assert koszulity_residual(sysn, koszul_dual(sysn), 5) == _series(5, [(5, Q(7, 6))])
    asys = builtin_system("as")
    assert koszulity_residual(asys, asys, 5).is_zero()
    print("[PASS] criterion 2: residuals 61/60 t^5, 7/6 t^5 (twice), and 0")


def test_criterion_03_dual_table():
    def same(a, b):
        return implies(a, b, 3) and implies(b, a, 3)

    for name in ("as", "sas", "a132"):
        sysn = builtin_system(name)
        assert same(koszul_dual(sysn), sysn), name
    for name in ("a23", "a12", "a13"):
        assert same(koszul_dual(builtin_system(name)), anti_system(name)), name
    print("[PASS] criterion 3: all six dual-table rows as relation-space equalities")


def test_criterion_04_free_bases_and_normal_forms():
    sas, cas = builtin_system("sas"), builtin_system("cas")
    assert len(free_basis("sas", 4, 4, multilinear=True)) == 12 == multilinear_dim(sas, 4)
    for n in (5, 6):
        assert len(free_basis("sas", n, n, multilinear=True)) == 1
    assert multilinear_dim(sas, 5) == 1
    assert len(free_basis("cas", 3, 3, multilinear=True)) == 2 == multilinear_dim(cas, 3)
    for n in (4, 5):
        assert len(free_basis("cas", n, n, multilinear=True)) == 1 == multilinear_dim(cas, n)
    _report("criterion 4: free bases and the exhaustive normal-form sweep", rows_freealg())


def test_criterion_05_vanishing_identity_suite():
    sas = builtin_system("sas")
    for text in VANISHING_WORDS + EXCHANGE_WORDS:
        assert prove_zero(parse_expr(text), sas), text
    assert not prove_zero(parse_expr("[[x1,x2],x3]"), sas)
    print("[PASS] criterion 5: all 17 identities vanish; the double bracket does not")


def test_criterion_06_niceness():
    assert nice_index(builtin_system("sas"), 6) == 5
    assert nice_index(builtin_system("cas"), 6) == 4
    assert nice_index(builtin_system("com-as"), 6) == 3
    assert nice_index(builtin_system("as"), 6) is None
    print("[PASS] criterion 6: niceness indices 5, 4, 3, absent")


def test_criterion_07_inclusions():
    cas, sas, casd = builtin_system("cas"), builtin_system("sas"), builtin_system("cas-dual")
    for n in (3, 4):
        assert implies(cas, sas, n)
        assert implies(sas, casd, n)
    print("[PASS] criterion 7: cyclic < shift < dual-cyclic at degrees 3 and 4")


def test_criterion_08_classification_corpus():
    _report("criterion 8: classification tables and the minimal example", rows_classification())


def test_criterion_09_structure_theory():
    _report("criterion 9: Peirce splits, verified decompositions, commuting idempotents",
            rows_structure())


def test_criterion_10_constructions():
    _report("criterion 10: mutations, Kantor squares, hulls, scalar mutations",
            rows_constructions())


def test_criterion_11_geometric_classification():
    _report("criterion 11: orbit dimensions, certificates, closed-set membership", rows_moduli())


def test_criterion_12_family_separation():
    _report("criterion 12: pencil invariant separates the family", rows_pencil(seed=0))
