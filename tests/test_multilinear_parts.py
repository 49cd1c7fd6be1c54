"""One path to the multilinear form: `terms.multilinear_parts` polarizes for
identity checks, consequence spaces, membership proofs and normal forms,
and refuses an expression that writes too many words before any of them
builds anything."""

from fractions import Fraction

import pytest

from nassoc import freealg, operads, terms
from nassoc.cli import main
from nassoc.errors import DegreeTooLarge, NotHomogeneous
from nassoc.freealg import sas_normal_form
from nassoc.operads import multilinear_dim, prove_zero
from nassoc.systems import builtin_system
from nassoc.terms import Expr, Identity, IdentitySystem, multilinear_parts, multilinearize, parse_expr, parse_system
from oracles import subs_vars

POWER = "((((x1 x1) x1) x1) x1)"  # 5! = 120 polarized words
JORDAN = "(x1 x2) = (x2 x1)\n((x1 o x2) o (x1 o x1)) = (x1 o (x2 o (x1 o x1)))\n"


def test_multilinear_parts_by_multidegree():
    expr = parse_expr("2 * ((x2 x2) x1) + (x1 x3) - (x3 x1) + ((x1 x1) x2)")
    parts = multilinear_parts(expr)
    assert [(spec, factor) for _, spec, factor in parts] == [
        ({1: 1, 2: 2, 3: 2}, 2),  # x1 x2^2
        ({1: 1, 2: 3}, 1),  # x1 x3, on slots 1 and 2
        ({1: 1, 2: 1, 3: 2}, 2),  # x1^2 x2
    ]
    # putting each slot's variable back gives the component times its factor
    total = Expr()
    for lin, spec, factor in parts:
        assert lin.is_multilinear()
        back = subs_vars(lin, {s: Expr.var(v) for s, v in spec.items()})
        total = total + back.scale(Fraction(1, factor))
    assert total == expr


def test_multilinear_component_comes_back_unchanged():
    expr = parse_expr("((x1 x2) x3) - (x2 (x3 x1))")
    ((lin, spec, factor),) = multilinear_parts(expr)
    assert lin == expr and spec == {1: 1, 2: 2, 3: 3} and factor == 1
    assert multilinear_parts(Expr()) == []


@pytest.fixture
def small_guard(monkeypatch):
    """MAX_POLARIZED_TERMS at 100, below the 120 words of POWER, and empty
    caches of consequence spaces and normal-form quotients."""
    monkeypatch.setattr(terms, "MAX_POLARIZED_TERMS", 100)
    monkeypatch.setattr(operads, "_consequence_cache", {})
    monkeypatch.setattr(freealg, "_quotient_cache", {})


@pytest.mark.parametrize(
    "call",
    [
        lambda: prove_zero(parse_expr(POWER), builtin_system("sas")),
        lambda: sas_normal_form(parse_expr(POWER)),
        lambda: multilinearize(Identity(parse_expr(POWER))),
    ],
    ids=["prove_zero", "sas_normal_form", "multilinearize"],
)
def test_polarization_guard_comes_before_any_build(small_guard, call):
    with pytest.raises(DegreeTooLarge, match="writes 120 words, more than 100"):
        call()
    assert operads._consequence_cache == {} and freealg._quotient_cache == {}


@pytest.mark.parametrize(
    "argv",
    [("prove-zero", "--expr", POWER, "--system", "sas"), ("normal-form", "--expr", POWER)],
    ids=["prove-zero", "normal-form"],
)
def test_polarization_guard_exits_2(small_guard, capsys, argv):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert not out and "writes 120 words, more than 100" in err


def test_jordan_system_is_linearized():
    """A system of homogeneous identities is read through their full
    linearizations: commutativity with the Jordan identity gives the
    dimensions of the Jordan operad."""
    jordan = parse_system("jordan", JORDAN)
    dims = [multilinear_dim(jordan, n) for n in range(1, 6)]
    assert dims == [1, 1, 3, 11, 55]
    written_out = IdentitySystem("jordan-lin", [lin for i in jordan.identities for lin in multilinearize(i)])
    assert [multilinear_dim(written_out, n) for n in range(1, 6)] == dims
    (linearized,) = multilinearize(jordan.identities[1])
    assert linearized.nvars == 4
    assert prove_zero(linearized.expr, jordan)
    assert prove_zero(parse_expr("((x1 x1) (x2 x1)) - (((x1 x1) x2) x1)"), jordan)
    assert not prove_zero(parse_expr("((x1 x2) x3) - (x1 (x2 x3))"), jordan)


def test_non_homogeneous_system_is_refused(capsys, tmp_path):
    system = parse_system("bad", "(x1 x2) = x1\n")
    with pytest.raises(NotHomogeneous, match="not homogeneous"):
        multilinear_dim(system, 2)
    path = tmp_path / "bad.ids"
    path.write_text("(x1 x2) = x1\n")
    assert main(["dims", "--system", str(path), "--max-degree", "3"]) == 2
    out, err = capsys.readouterr()
    assert not out and "not homogeneous" in err


def test_jordan_system_file_on_the_command_line(capsys, tmp_path):
    path = tmp_path / "jordan.txt"
    path.write_text(JORDAN)
    assert main(["dims", "--system", str(path), "--max-degree", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 3 11 55"
