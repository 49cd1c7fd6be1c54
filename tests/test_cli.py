"""Tests for the command-line interface: exit codes and report renderings."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

import nassoc
from nassoc import corpus
from nassoc.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_output(capsys):
    code, out, _ = run_cli(capsys, "dims", "--system", "sas", "--max-degree", "5")
    assert code == 0
    assert out.strip() == "1 2 6 12 1"


def test_check_identity_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "--algebra", "dim5_nonassoc", "--system", "sas")
    assert code == 0 and "holds" in out
    code, out, _ = run_cli(capsys, "check-identity", "--algebra", "dim5_nonassoc", "--system", "as")
    assert code == 1
    assert "(e1, e2, e1)" in out


def test_degenerate_certificate(capsys):
    code, out, _ = run_cli(capsys, "degenerate", "--cert", "a12_0_to_a11")
    assert code == 0
    assert "verified" in out


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "check-identity", "--algebra", "no_such_algebra", "--system", "sas")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "prove-zero", "--expr", "((x1 x2 x3)", "--system", "sas")
    assert code == 2


def test_transform_without_basis_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "transform", "--algebra", "a12")
    assert code == 2 and not out
    assert "--cert or --basis" in err


def test_transform_singular_basis_is_a_usage_error(capsys):
    basis = '[["t","0","0"],["t","0","0"],["0","0","1"]]'
    code, out, err = run_cli(capsys, "transform", "--algebra", "a1", "--basis", basis)
    assert code == 2 and not out
    assert err == "error: parametrized basis matrix is singular for every t\n"


def test_basis_column_of_wrong_length_is_a_usage_error(capsys, tmp_path):
    # a 5-entry column used to be accepted with its extra entry ignored, and a
    # 3-entry column exited 1 with an IndexError traceback
    rest = '["0","t^2","0","0"],["0","0","t^3","0"],["0","0","0","t^2"]'
    for first, length in (('["t","0","0","0","5"]', 5), ('["t","0","0"]', 3)):
        code, out, err = run_cli(capsys, "transform", "--algebra", "a13", "--basis", f"[{first},{rest}]")
        assert code == 2 and not out
        assert err == f"error: basis column 1 has {length} entries, expected 4\n"
    cert = corpus.load_certificate("a12_0_to_a11")
    for column, length in ((["0", "1", "0", "0", "0"], 5), (["0", "1", "0"], 3)):
        basis = [cert["basis"][0], column, *cert["basis"][2:]]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({**cert, "basis": basis}))
        for argv in (["degenerate", "--cert", str(path)], ["transform", "--algebra", "a12", "--cert", str(path)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and not out, argv
            assert err == f"error: basis column 2 has {length} entries, expected 4\n", argv


def test_mutate_and_kantor_without_elements_are_usage_errors(capsys):
    for argv in (["mutate", "--algebra", "a1"], ["mutate", "--algebra", "a1", "--p", "1,0,0"],
                 ["kantor", "--algebra", "a1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert "--generic" in err


def _leibniz(capsys, tmp_path, matrix, *extra):
    path = tmp_path / "D.json"
    path.write_text(matrix)
    return run_cli(capsys, "leibniz", "--algebra", "a1", "--matrix", str(path), *extra)


def test_leibniz_bracketing_out_of_range(capsys, tmp_path):
    # order 2 has a single bracketing, index 0
    assert _leibniz(capsys, tmp_path, LEIBNIZ_MATRIX, "--order", "2", "--bracketing", "0")[0] == 1
    for index in ("5", "-1", "x"):
        code, out, err = _leibniz(capsys, tmp_path, LEIBNIZ_MATRIX, "--order", "2", "--bracketing", index)
        assert (code, out) == (2, "")
        assert err == "error: --bracketing must be 'all' or 0..0 at order 2\n"
    code, out, err = _leibniz(capsys, tmp_path, LEIBNIZ_MATRIX, "--order", "0", "--bracketing", "0")
    assert (code, out, err) == (2, "", "error: Leibniz order must be at least 1, got 0\n")


def test_leibniz_bracketing_is_unranked_without_listing_the_shapes(capsys, tmp_path, monkeypatch):
    """Order 16 has Catalan(15) = 9694845 bracketings; picking one must not list them."""
    from nassoc import structure, terms

    def refuse(n):
        raise AssertionError(f"shapes({n}) listed")

    monkeypatch.setattr(terms, "shapes", refuse)
    monkeypatch.setattr(structure, "shapes", refuse)
    one = tmp_path / "one.json"
    one.write_text('{"name": "one", "dim": 1, "products": [{"left": "e1", "right": "e1", "value": [["1", "e1"]]}]}')
    matrix = tmp_path / "D.json"
    for entry, code, verdict in (("0", 0, "Leibniz derivation\n"), ("1", 1, "not a Leibniz derivation\n")):
        matrix.write_text(f"[[{entry}]]")
        argv = ("leibniz", "--algebra", str(one), "--matrix", str(matrix), "--order", "16", "--bracketing", "9694844")
        assert run_cli(capsys, *argv) == (code, verdict, "")


def test_leibniz_matrix_of_the_wrong_size(capsys, tmp_path):
    for matrix in ('[["1","0"],["0","1"]]', "5"):
        code, out, err = _leibniz(capsys, tmp_path, matrix, "--order", "2")
        assert code == 2 and not out
        assert "3x3" in err


def test_leibniz_order_zero_is_a_usage_error(capsys, tmp_path):
    # the matrix fails at order 2; order 0 used to report "Leibniz derivation"
    code, out, _ = _leibniz(capsys, tmp_path, LEIBNIZ_MATRIX, "--order", "0")
    assert code == 2 and not out


def test_leibniz_check_too_large_is_refused(capsys, tmp_path):
    # 1430 bracketings on 3^9 tuples, each evaluated 10 times
    code, out, err = _leibniz(capsys, tmp_path, LEIBNIZ_MATRIX, "--order", "9")
    assert (code, out) == (2, "")
    assert err == "error: Leibniz check of order 9 on a1 needs 281466900 word evaluations, more than 1000000\n"


def test_degree_caps_are_named_truthfully(capsys, monkeypatch):
    """A degree past a cap is refused before any degree is built."""
    from nassoc import operads

    def refuse(*args):
        raise AssertionError("a degree was built before the refusal")

    monkeypatch.setattr(operads, "_consequence_cache", {})
    monkeypatch.setattr(operads, "_primal_step", refuse)
    monkeypatch.setattr(operads, "_shape_graph", refuse)
    monkeypatch.delenv("NASSOC_DEGREE_CAP", raising=False)

    def comb(d):
        """The left comb ((x1 x2) ... xd) of degree d."""
        return "(" * (d - 1) + "x1 " + " ".join(f"x{i})" for i in range(2, d + 1))

    dims = ("dims", "--system", "sas", "--max-degree")
    commands = [
        (dims, str),
        (("hilbert", "--system", "sas", "--order"), str),
        (("koszulity", "--system", "sas", "--order"), str),
        (("normal-form", "--expr"), comb),
        (("prove-zero", "--system", "sas", "--expr"), comb),
    ]
    for command, top in commands:
        code, out, err = run_cli(capsys, *command, top(9), "--cap", "9")
        assert (code, out) == (2, ""), command
        assert err == "error: degree 9 exceeds the hard cap 8, which cannot be raised\n", command
        code, out, err = run_cli(capsys, *command, top(7))
        assert (code, out) == (2, ""), command
        assert err == "error: degree 7 exceeds the cap 6; raise it explicitly or via NASSOC_DEGREE_CAP\n", command
    for cap in ("0", "-1"):
        assert run_cli(capsys, *dims, "3", "--cap", cap) == (2, "", f"error: --cap must be at least 1, got {cap}\n")
    monkeypatch.setenv("NASSOC_DEGREE_CAP", "0")
    assert run_cli(capsys, *dims, "3") == (2, "", "error: NASSOC_DEGREE_CAP must be at least 1, got '0'\n")


def test_set_of_an_unknown_parameter_is_a_usage_error(capsys):
    # a1 has no parameters: --set gamma=7 used to be dropped and "holds" printed
    code, out, err = run_cli(capsys, "check-identity", "--algebra", "a1", "--set", "gamma=7", "--system", "sas")
    assert code == 2 and not out
    assert err.startswith("error: ") and "'gamma'" in err
    # a12's parameter is alpha: beta=1 used to fail later as "specialize a12[beta=1]"
    code, out, err = run_cli(capsys, "wedderburn", "--algebra", "a12", "--set", "beta=1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "'beta'" in err


def test_zero_denominators_are_usage_errors(capsys, tmp_path):
    # each of these used to exit 1 with a ZeroDivisionError traceback
    for argv in (
        ["normal-form", "--expr", "(x1 x2) + 2/0*(x2 x1)"],
        ["prove-zero", "--system", "sas", "--expr", "1/0 * (x1 x2)"],
        ["wedderburn", "--algebra", "a12", "--set", "alpha=1/0"],
        ["scalar-mutate", "--algebra", "a1", "--alpha", "1/0", "--beta", "1"],
        ["kantor", "--algebra", "a1", "--p", "1/0,0,0"],
        ["degenerate", "--cert", "a12_family_to_a06", "--sample", "1/0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith("error: ") and "zero" in err, argv
    code, out, err = _leibniz(capsys, tmp_path, '[["1/0","0","0"],["0","1","0"],["0","0","1"]]', "--order", "2")
    assert code == 2 and not out and err.startswith("error: ")
    cert = {**corpus.load_certificate("a12_family_to_a06"), "samples": ["1/0"]}
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "degenerate", "--cert", str(tmp_path / "cert.json"))
    assert code == 2 and not out and err.startswith("error: ")


def test_bad_rationals_name_their_flag(capsys, tmp_path):
    # each of these used to print only "Invalid literal for Fraction: ..."
    for argv, message in (
        (["wedderburn", "--algebra", "a12", "--set", "alpha"], "--set expects NAME=VALUE, got 'alpha'"),
        (["wedderburn", "--algebra", "a12", "--set", "=1"], "--set expects NAME=VALUE, got '=1'"),
        (["wedderburn", "--algebra", "a12", "--set", "alpha=x"], "--set alpha expects a rational number, got 'x'"),
        (["peirce", "--algebra", "a13", "--idempotent", "0,x,0,1"], "--idempotent expects a rational number, got 'x'"),
        (["kantor", "--algebra", "a1", "--p", "1,a,0"], "--p expects a rational number, got 'a'"),
        (["mutate", "--algebra", "a1", "--p", "1,0,0", "--q", "1,0"], "--q expects 3 coordinates, got 2"),
        (["scalar-mutate", "--algebra", "a1", "--alpha", "1/x", "--beta", "1"], "--alpha expects a rational number, got '1/x'"),
        (["degenerate", "--cert", "a12_family_to_a06", "--sample", "x"], "--sample expects a rational number, got 'x'"),
        (["wedderburn", "--algebra", "a12", "--set", "alpha=1/0"], "--set alpha: zero denominator in '1/0'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert err == f"error: {message}\n", argv
    code, out, err = _leibniz(capsys, tmp_path, '[["1","0","0"],["0",[1],"0"],["0","0","1"]]', "--order", "2")
    assert code == 2 and not out
    assert err == "error: --matrix expects a rational number, got [1]\n"


def test_dims_max_degree_zero_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "dims", "--system", "sas", "--max-degree", "0")
    assert code == 2 and not out and err.startswith("error: ")


def test_hilbert_order_zero_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "hilbert", "--system", "sas", "--order", "0")
    assert code == 2 and not out and err.startswith("error: ")


def test_nice_index_kmax_below_three_is_a_usage_error(capsys):
    for kmax in ("0", "2"):
        code, out, err = run_cli(capsys, "nice-index", "--system", "sas", "--kmax", kmax)
        assert code == 2 and not out and err.startswith("error: ")
    code, out, _ = run_cli(capsys, "nice-index", "--system", "com-as", "--kmax", "3")
    assert code == 0 and out.strip() == "3"


def test_json_and_text_verdicts_agree(capsys):
    code_t, out_t, _ = run_cli(capsys, "implies", "--sub", "cas", "--sup", "sas", "--degree", "3")
    code_j, out_j, _ = run_cli(capsys, "implies", "--sub", "cas", "--sup", "sas", "--degree", "3", "--json")
    assert code_t == code_j == 0
    payload = json.loads(out_j)
    assert payload["verdict"] is True
    assert "contained" in out_t
    # and the failing direction agrees too
    code_t, _, _ = run_cli(capsys, "implies", "--sub", "sas", "--sup", "cas", "--degree", "3")
    code_j, out_j, _ = run_cli(capsys, "implies", "--sub", "sas", "--sup", "cas", "--degree", "3", "--json")
    assert code_t == code_j == 1
    assert json.loads(out_j)["verdict"] is False


def test_hilbert_json_exact_strings(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--system", "sas", "--order", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["-1", "1", "-1", "1/2", "-1/120"]


def test_normal_form_and_free_basis(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "--expr", "((x1 x2) x3)")
    assert code == 0 and out.strip() == "(x2 (x3 x1))"
    code, out, _ = run_cli(capsys, "free-basis", "--variety", "sas", "--degree", "4",
                           "--generators", "4", "--multilinear")
    assert code == 0 and "count: 12" in out


def test_free_basis_degree_bound_is_fixed(capsys, monkeypatch):
    """The basis enumeration bound does not depend on the degree cap."""
    argv = ("free-basis", "--variety", "sas", "--generators", "2", "--cap", "8", "--degree")
    monkeypatch.delenv("NASSOC_DEGREE_CAP", raising=False)
    code, out, _ = run_cli(capsys, *argv, "9")
    assert code == 0 and "count: 10" in out
    monkeypatch.setenv("NASSOC_DEGREE_CAP", "8")
    code, out, _ = run_cli(capsys, *argv, "9")
    assert code == 0 and "count: 10" in out
    code, _, err = run_cli(capsys, *argv, "11")
    assert code == 2 and "degree 11 basis enumeration refused" in err


def test_invalid_degree_cap_variable_is_named(capsys, monkeypatch):
    monkeypatch.setenv("NASSOC_DEGREE_CAP", "abc")
    code, out, err = run_cli(capsys, "dims", "--system", "sas", "--max-degree", "3")
    assert code == 2 and not out
    assert err.strip() == "error: NASSOC_DEGREE_CAP must be an integer, got 'abc'"


def test_prove_zero_exit(capsys):
    code, _, _ = run_cli(capsys, "prove-zero", "--expr", "[x1,[x2,[x3,[x4,x5]]]]", "--system", "sas")
    assert code == 0
    code, _, _ = run_cli(capsys, "prove-zero", "--expr", "[[x1,x2],x3]", "--system", "sas")
    assert code == 1


def test_wedderburn_and_set(capsys):
    code, out, _ = run_cli(capsys, "wedderburn", "--algebra", "a12", "--set", "alpha=1")
    assert code == 0
    assert "dim S = 1, dim R = 3" in out


def test_mutate_with_check(capsys):
    code, _, _ = run_cli(capsys, "mutate", "--algebra", "dim5_nonassoc", "--generic",
                         "--check-system", "cas")
    assert code == 0
    code, _, _ = run_cli(capsys, "hull", "--algebra", "a1", "--check-system", "sas")
    assert code == 1


def test_closed_set_exit(capsys):
    code, out, _ = run_cli(capsys, "closed-set", "--spec", "a12_not_a10",
                           "--algebra", "a12", "--set", "alpha=1")
    assert code == 0 and "member" in out
    code, out, _ = run_cli(capsys, "closed-set", "--spec", "a12_not_a10",
                           "--algebra", "a10", "--set", "alpha=1")
    assert code == 1


def test_pencil_and_orbit(capsys):
    code, out, _ = run_cli(capsys, "pencil-invariant", "--algebra", "a2", "--set", "alpha=2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "orbit-dim", "--algebra", "A17")
    assert code == 0 and out.strip() == "16"


def test_dual_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dual", "--system", "sas")
    assert code == 0 and "self-dual" in out


def test_polarize(capsys):
    code, out, _ = run_cli(capsys, "polarize", "--identity", "(x1,x1,x1) = 0")
    assert code == 0
    assert out.count("= 0") == 1


def test_identities_too_large_to_check_fail_early(capsys, tmp_path):
    """244 M basis tuples, or 10! polarized words: exit 2 at once, not after minutes."""
    deep = " ".join(f"(x{i}" for i in range(1, 12)) + " x12" + ")" * 11 + " = 0"
    power = "x1"
    for _ in range(9):
        power = f"({power} x1)"
    power += " = 0"
    (tmp_path / "deep.ids").write_text(deep + "\n")
    (tmp_path / "power.ids").write_text(power + "\n")
    for argv in (
        ("check-identity", "--algebra", "dim5_nonassoc", "--system", str(tmp_path / "deep.ids")),
        ("check-identity", "--algebra", "dim5_nonassoc", "--system", str(tmp_path / "deep.ids"), "--mode", "symbolic"),
        ("check-identity", "--algebra", "dim5_nonassoc", "--system", str(tmp_path / "power.ids")),
        ("polarize", "--identity", power),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert "more than 1000000" in err, argv


def _algebra_file(tmp_path, basis, products):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "bad", "dim": 2, "basis": basis, "products": products}))
    return str(path)


def test_malformed_algebra_json_names_the_fault(capsys, tmp_path):
    e1e1 = {"left": "e1", "right": "e1", "value": [["1", "e2"]]}
    cases = [
        (["e1", "e1"], [], "basis label 'e1' is repeated"),
        (["e1", "e2"], [{"left": "e1", "right": "e3", "value": [["1", "e2"]]}], "unknown basis label 'e3'"),
        (["e1", "e2"], [{"left": "e1", "right": "e2", "value": [["1", "e3"]]}], "unknown basis label 'e3'"),
        (["e1", "e2"], [e1e1, {**e1e1, "value": [["2", "e1"]]}], "product e1 e1 is given twice"),
    ]
    for basis, products, message in cases:
        path = _algebra_file(tmp_path, basis, products)
        code, out, err = run_cli(capsys, "check-identity", "--algebra", path, "--system", "sas")
        assert code == 2 and not out
        assert err.strip() == f"error: {message}"
    code, out, _ = run_cli(capsys, "check-identity", "--algebra", _algebra_file(tmp_path, ["e1", "e2"], [e1e1]),
                           "--system", "sas")
    assert code == 0 and out.strip() == "holds"
    # the first three used to exit 1 with a TypeError traceback, a missing dim
    # printed `error: 'dim'`, a parameter string became one parameter per
    # letter, a repeated parameter was accepted, and a basis longer than dim
    # exited 1 with an IndexError traceback
    e1e1 = {**e1e1, "value": [["alpha", "e2"]]}
    good = {"name": "bad", "dim": 2, "parameters": ["alpha"], "products": [e1e1]}
    cases = [
        ({**good, "dim": "2"}, "field 'dim' of the algebra must be an integer, got a string"),
        ([good], "an algebra must be a JSON object, got a list"),
        ({**good, "products": {"e1 e1": e1e1}}, "field 'products' of the algebra must be a list, got an object"),
        ({k: v for k, v in good.items() if k != "dim"}, "the algebra has no field 'dim'"),
        ({**good, "parameters": "alpha"}, "field 'parameters' of the algebra must be a list, got a string"),
        ({**good, "parameters": ["alpha", "alpha"]}, "parameter 'alpha' is repeated"),
        ({**good, "basis": ["e1", "e2", "e3"]}, "basis label count does not match the dimension"),
        ({**good, "products": [{"left": "e1", "value": []}]}, "product 1 has no field 'right'"),
        ({**good, "products": [{**e1e1, "value": [["1", "e2", "e1"]]}]},
         "field 'value' of product 1 must list [coefficient, label] pairs, got [\"1\", \"e2\", \"e1\"]"),
    ]
    path = tmp_path / "alg.json"
    for data, message in cases:
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-identity", "--system", "sas", "--algebra", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n"), data
    path.write_text(json.dumps(good))
    assert run_cli(capsys, "check-identity", "--system", "sas", "--algebra", str(path))[:2] == (0, "holds\n")


def test_transform_reads_a_list_of_lists_and_an_object(capsys, tmp_path):
    """A list of strings used to be read digit by digit into the identity
    basis (exit 0), a list substitution to fail with an AttributeError
    traceback, and an object basis to print `unknown variable 'a'`."""
    identity = '[["1","0","0"],["0","1","0"],["0","0","1"]]'
    basis_error = "error: a basis is a list of columns, each a list of entries, got "
    for argv, err_want in (
        (["--basis", '["100","010","001"]'], basis_error + "['100', '010', '001']\n"),
        (["--basis", identity, "--subst", "[1]"],
         "error: a substitution is an object from parameter names to values, got [1]\n"),
        (["--basis", '{"a": 1}'], basis_error + "{'a': 1}\n"),
    ):
        assert run_cli(capsys, "transform", "--algebra", "A05", *argv) == (2, "", err_want), argv
    code, out, _ = run_cli(capsys, "transform", "--algebra", "A05", "--basis", identity)
    assert code == 0 and out
    cert = corpus.load_certificate("a12_0_to_a11")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**cert, "basis": ["1000", *cert["basis"][1:]]}))
    for argv in (["degenerate", "--cert", str(path)], ["transform", "--algebra", "a12", "--cert", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out and err.startswith(basis_error), argv


_CERT = corpus.load_certificate("a12_0_to_a11")
_THETA = {"parameters": ["alpha"], "entries": {"1,1": ["0", "0", "1"], "2,2": ["0", "0", "alpha"]}}


# each of these used to exit 1 with a traceback or print an error that did
# not name the field: an AttributeError or TypeError traceback for a list
# document or list entries, `not enough values to unpack` for a string
# containment or a key "1", `invalid literal for int()` for "A1*A2<=",
# `unknown variable 'alpha'` for a string parameter, an IndexError traceback
# for a short entry, `'to'` for a missing target; a key "2,1" was ignored
@pytest.mark.parametrize("argv, data, message", [
    ("closed-set --algebra A05 --spec", [{"contain": []}], "a closed set must be a JSON object, got a list"),
    ("closed-set --algebra A05 --spec", {"contain": "A1*A2<=A3"},
     "field 'contain' of the closed set must be a list, got a string"),
    ("closed-set --algebra A05 --spec", {"contain": ["A1*A2<="]},
     "field 'contain' of the closed set must list containments Ap*Aq<=Ar, got 'A1*A2<='"),
    ("closed-set --algebra A05 --spec", {"contain": ["A0*A1<=A2"]},
     "field 'contain' of the closed set must list containments Ap*Aq<=Ar, got 'A0*A1<=A2'"),
    ("cocycle --lie L1 --theta", [_THETA], "the theta file must be a JSON object, got a list"),
    ("cocycle --lie L1 --theta", {"entries": [[1, 2]]}, "field 'entries' of the theta file must be an object, got a list"),
    ("cocycle --lie L1 --theta", {**_THETA, "parameters": "alpha"},
     "field 'parameters' of the theta file must be a list, got a string"),
    ("cocycle --lie L1 --theta", {"entries": {"1": ["0", "0", "1"]}},
     "key '1' of field 'entries' of the theta file must read i,j with 1 <= i <= j <= 3"),
    ("cocycle --lie L1 --theta", {"entries": {"2,1": ["0", "0", "1"]}},
     "key '2,1' of field 'entries' of the theta file must read i,j with 1 <= i <= j <= 3"),
    ("cocycle --lie L1 --theta", {"entries": {"1,1": ["0", "1"]}},
     "entry '1,1' of the theta file must be a list of 3 coefficients, got a list of 2"),
    ("degenerate --cert", [_CERT], "a certificate must be a JSON object, got a list"),
    ("transform --algebra a12 --cert", [_CERT], "a certificate must be a JSON object, got a list"),
    ("degenerate --cert", {k: v for k, v in _CERT.items() if k != "to"}, "the certificate has no field 'to'"),
    ("transform --algebra a12 --cert", {**_CERT, "subst": [1]},
     "field 'subst' of the certificate must be an object, got a list"),
], ids=["spec-list", "contain-string", "contain-text", "contain-zero", "theta-list", "entries-list", "parameters-string",
        "entry-key", "entry-order", "entry-short", "cert-list", "transform-cert-list", "cert-no-to", "transform-subst-list"])
def test_malformed_json_file_names_the_field(capsys, tmp_path, argv, data, message):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, *argv.split(), str(path)) == (2, "", f"error: {message}\n")


def test_spaced_containment_still_reads(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"contain": ["A1 * A1 <= A3"]}))
    argv = ["closed-set", "--algebra", "a12", "--set", "alpha=1", "--spec", str(path)]
    assert run_cli(capsys, *argv) == (0, "member\n", "")


def test_numeric_coefficient_fields(capsys, tmp_path):
    """An integer coefficient reads as its string form; a float or a bool is
    a usage error, in algebra files, certificate bases and cocycle entries.
    Each of these used to exit 1 with a TypeError traceback."""
    bad = "error: expected a coefficient string or an integer, got "

    def algebra(coeff):
        e1e1 = {"left": "e1", "right": "e1", "value": [[coeff, "e2"]]}
        return _algebra_file(tmp_path, ["e1", "e2"], [e1e1])

    assert corpus.load_algebra(algebra(-2)).to_json_dict() == corpus.load_algebra(algebra("-2")).to_json_dict()
    for coeff, shown in ((0.5, "float 0.5"), (True, "bool True")):
        code, out, err = run_cli(capsys, "check-identity", "--algebra", algebra(coeff), "--system", "sas")
        assert code == 2 and not out
        assert err == f"{bad}{shown}\n"

    cert = corpus.load_certificate("a13_to_a14")
    path = tmp_path / "cert.json"
    outputs = []
    for zero in ("0", 0, 0.5):
        path.write_text(json.dumps({**cert, "basis": [[zero if x == "0" else x for x in col] for col in cert["basis"]]}))
        outputs.append(run_cli(capsys, "degenerate", "--cert", str(path), "--json"))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]
    assert outputs[2] == (2, "", f"{bad}float 0.5\n")

    theta = tmp_path / "theta.json"
    outputs = []
    for one in ("1", 1, 0.5):
        theta.write_text(json.dumps({"parameters": ["alpha"], "entries": {"1,1": ["0", "0", one], "2,2": ["0", 0, "alpha"]}}))
        outputs.append(run_cli(capsys, "cocycle", "--lie", "L1", "--theta", str(theta), "--check-system", "sas"))
    assert outputs[0][0] == 0 and "(alpha)*e3" in outputs[0][1] and outputs[1] == outputs[0]
    assert outputs[2] == (2, "", f"{bad}float 0.5\n")


def test_sample_of_a_plain_certificate_is_a_usage_error(capsys):
    # the sample used to be ignored, and the certificate reported as verified
    code, out, err = run_cli(capsys, "degenerate", "--cert", "a12_0_to_a11", "--sample", "5")
    assert code == 2 and not out
    assert err == "error: certificate a12 -> a11 has no family_parameter to sample\n"
    with pytest.raises(ValueError, match="no family_parameter"):
        corpus.run_certificate(corpus.load_certificate("a13_to_a14"), sample=Fraction(1))


def test_symbolic_check_refuses_a_parameter_named_like_a_coordinate(capsys, tmp_path):
    path = tmp_path / "clash.json"
    e1e1 = {"left": "e1", "right": "e1", "value": [["g1_1", "e2"]]}
    path.write_text(json.dumps({"name": "clash", "dim": 2, "parameters": ["g1_1"], "products": [e1e1]}))
    code, out, err = run_cli(capsys, "check-identity", "--algebra", str(path), "--system", "sas", "--mode", "symbolic")
    assert code == 2 and not out
    assert err.strip() == "error: generated coordinate 'g1_1' collides with a parameter"
    code, out, _ = run_cli(capsys, "check-identity", "--algebra", str(path), "--system", "sas")
    assert code == 0 and out.strip() == "holds"


def test_system_from_file(capsys, tmp_path):
    path = tmp_path / "anti.ids"
    path.write_text("# sign-flipped variant\n((x1 x2) x3) + (x1 (x3 x2)) = 0\n")
    code, out, _ = run_cli(capsys, "dims", "--system", str(path), "--max-degree", "4")
    assert code == 0
    assert out.strip() == "1 2 6 12"


def test_reproduce_subset(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper", "--only", "pencil")
    assert code == 0
    assert "[PASS] pencil" in out
    assert "rows passed" in out


def test_remaining_subcommand_sweep(capsys, tmp_path):
    """Every advertised subcommand runs and reports sensibly."""
    code, out, _ = run_cli(capsys, "koszulity", "--system", "a23", "--order", "5")
    assert code == 0 and "7/6*t^5" in out
    code, out, _ = run_cli(capsys, "derivations", "--algebra", "A17")
    assert code == 0 and "dim Der = 0" in out
    code, out, _ = run_cli(capsys, "powers", "--algebra", "a2")
    assert code == 0 and "class=2" in out
    code, out, _ = run_cli(capsys, "peirce", "--algebra", "a12", "--set", "alpha=1",
                           "--idempotent", "0,0,0,1")
    assert code == 0 and "(3, 0, 1)" in out
    code, out, _ = run_cli(capsys, "fingerprint", "--algebra", "a13")
    assert code == 0 and out.startswith("(4,")
    code, _, _ = run_cli(capsys, "compatible", "--algebra", "A04", "--algebra-b", "A04",
                         "--system", "sas")
    assert code == 0
    code, _, _ = run_cli(capsys, "scalar-mutate", "--algebra", "a2", "--check-system", "a132")
    assert code == 0
    code, _, _ = run_cli(capsys, "kantor", "--algebra", "dim5_nonassoc", "--generic",
                         "--check-system", "cas")
    assert code == 0
    code, out, _ = run_cli(capsys, "transform", "--algebra", "a12", "--cert", "a12_0_to_a11")
    assert code == 0 and "c[1][1][3] = t" in out
    code, out, _ = run_cli(capsys, "nice-index", "--system", "as")
    assert code == 0 and out.strip() == "none"
    matrix = tmp_path / "D.json"
    matrix.write_text('[["0","0","0"],["0","0","0"],["0","0","1"]]')
    code, _, _ = run_cli(capsys, "leibniz", "--algebra", "a1", "--matrix", str(matrix),
                         "--order", "2")
    assert code == 1
    theta = tmp_path / "theta.json"
    theta.write_text('{"parameters": ["alpha"], "entries": {"1,1": ["0","0","1"], "2,2": ["0","0","alpha"]}}')
    code, out, _ = run_cli(capsys, "cocycle", "--lie", "L1", "--theta", str(theta),
                           "--check-system", "sas")
    assert code == 0 and "(alpha)*e3" in out


def test_reproduce_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "reproduce-paper", "--only", "pencil", "--seed", "3", "--json")
    code2, out2, _ = run_cli(capsys, "reproduce-paper", "--only", "pencil", "--seed", "3", "--json")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
    assert d1 == d2


# ---------------------------------------------------------------------------
# CLI contract: option snapshot and golden outputs, recorded once with
# `python tests/test_cli.py --record` and compared on every run.

DATA = pathlib.Path(__file__).parent / "data"
OPTIONS_FILE = DATA / "cli_options.json"
GOLDEN_FILE = DATA / "cli_golden.json"
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

LEIBNIZ_MATRIX = '[["0","0","0"],["0","0","0"],["0","0","1"]]'
COCYCLE_THETA = '{"parameters": ["alpha"], "entries": {"1,1": ["0","0","1"], "2,2": ["0","0","alpha"]}}'

# one invocation per subcommand; {tmp} stands for a scratch directory holding
# D.json (LEIBNIZ_MATRIX) and theta.json (COCYCLE_THETA)
GOLDEN_INVOCATIONS = [
    "dims --system sas --max-degree 4",
    "hilbert --system sas --order 5",
    "koszulity --system a23 --order 5",
    "dual --system a23",
    "implies --sub sas --sup cas --degree 3",
    "prove-zero --expr [[x1,x2],x3] --system sas",
    "nice-index --system cas",
    'normal-form --expr "(((x1 x2) (x3 x4)) x5)"',
    "free-basis --variety cas --degree 3 --generators 2",
    "check-identity --algebra dim5_nonassoc --system as",
    'polarize --identity "(x1,x1,x1) = 0"',
    "mutate --algebra a1 --p 1,0,0 --q 0,1,0 --check-system sas",
    "kantor --algebra a1 --p 1,0,0 --check-system sas",
    "hull --algebra a1 --check-system sas",
    "scalar-mutate --algebra a2 --check-system a132",
    "compatible --algebra A17 --algebra-b A18",
    "derivations --algebra a2 --set alpha=2",
    "leibniz --algebra a1 --matrix {tmp}/D.json --order 2",
    "powers --algebra a2",
    "peirce --algebra a12 --set alpha=1 --idempotent 0,0,0,1",
    "wedderburn --algebra a12 --set alpha=1",
    "cocycle --lie L1 --theta {tmp}/theta.json --check-system sas",
    "fingerprint --algebra a13",
    "transform --algebra a12 --cert a12_0_to_a11",
    "degenerate --cert a12_family_to_a06 --sample 2",
    "orbit-dim --algebra a12",
    "closed-set --spec a12_not_a10 --algebra a10 --set alpha=1",
    "pencil-invariant --algebra a2 --set alpha=2",
    "reproduce-paper --only pencil --seed 1",
]


def _argv(invocation, tmp):
    return [part.replace("{tmp}", str(tmp)) for part in shlex.split(invocation)]


def _strip_elapsed(text):
    text = re.sub(r'"elapsed_seconds": [0-9.]+', '"elapsed_seconds": null', text)
    return re.sub(r"rows passed in [0-9.]+s", "rows passed in ?s", text)


def _option_snapshot():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = [[choice.dest, choice.help] for choice in sub._choices_actions]
    options = {}
    for name, sp in sub.choices.items():
        entries = []
        for a in sp._actions:
            entries.append({
                "flags": a.option_strings,
                "dest": a.dest,
                "type": getattr(a.type, "__name__", a.type),
                "default": a.default,
                "required": a.required,
                "choices": list(a.choices) if a.choices is not None else None,
                "help": a.help,
                "action": type(a).__name__,
                "metavar": a.metavar,
            })
        options[name] = sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))
    return {"commands": commands, "options": options}


def _golden_outputs(tmp, run):
    (tmp / "D.json").write_text(LEIBNIZ_MATRIX)
    (tmp / "theta.json").write_text(COCYCLE_THETA)
    outputs = {}
    for invocation in GOLDEN_INVOCATIONS:
        for suffix in ("", " --json"):
            code, out = run(_argv(invocation + suffix, tmp))
            outputs[invocation + suffix] = {"exit": code, "stdout": _strip_elapsed(out)}
    return outputs


def test_option_snapshot():
    assert _option_snapshot() == json.loads(OPTIONS_FILE.read_text())


def test_golden_outputs(capsys, tmp_path):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    expected = json.loads(GOLDEN_FILE.read_text())
    actual = _golden_outputs(tmp_path, run)
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], key


def test_module_entry_point_subprocess():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nassoc.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "nassoc.cli", "dims", "--system", "sas"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 2 6 12 1\n"


def _demo_output(script):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nassoc.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_scripts_run():
    """Each demo prints what was recorded in tests/data/<demo>.txt."""
    assert [s.name for s in DEMOS] == ["classification_walkthrough.py", "operad_walkthrough.py"]
    for script in DEMOS:
        assert _demo_output(script) == (DATA / f"{script.stem}.txt").read_text(), script.name


def _record():
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    DATA.mkdir(exist_ok=True)
    snapshot = _option_snapshot()
    # one line per subcommand and per option, so that a changed flag is a one-line diff
    commands = ",\n".join("  " + json.dumps(c) for c in snapshot["commands"])
    options = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join("   " + json.dumps(e) for e in entries) + "\n  ]"
        for name, entries in snapshot["options"].items()
    )
    OPTIONS_FILE.write_text('{\n "commands": [\n' + commands + '\n ],\n "options": {\n' + options + "\n }\n}\n")
    with tempfile.TemporaryDirectory() as tmp:
        golden = _golden_outputs(pathlib.Path(tmp), run)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    for script in DEMOS:
        (DATA / f"{script.stem}.txt").write_text(_demo_output(script))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli.py --record")
    _record()
