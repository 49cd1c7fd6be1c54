"""The benchmark's tracer (bench/tracing.py) wraps nassoc functions and
methods that it names as strings.  Resolving every name here makes a
refactor that drops or renames one fail in this suite, not in a traced
benchmark run.  The tracer's tables are read as literals, so no benchmark
code runs.  The tracer also reads a few attributes of nassoc objects; those
are checked here on real objects."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tables():
    tree = ast.parse(TRACING.read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("FUNCTIONS", "METHODS", "COUNTED", "SECTIONS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    tables = _tables()
    assert set(tables) == {"FUNCTIONS", "METHODS", "COUNTED", "SECTIONS"}
    for modname, attr in tables["FUNCTIONS"].values():
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    for modname, clsname, attr in {**tables["METHODS"], **tables["COUNTED"]}.values():
        cls = getattr(importlib.import_module(modname), clsname)
        # the tracer replaces the method on the class that defines it
        assert callable(cls.__dict__[attr]), f"{clsname}.{attr}"
    sections = importlib.import_module("nassoc.reproduce").SECTIONS
    assert set(tables["SECTIONS"]) <= set(sections)


def test_traced_attributes_exist():
    from nassoc.algebras import AlgebraStructure
    from nassoc.operads import _primal_step, consequences
    from nassoc.systems import builtin_system

    # Tracer._note_space and layer_metrics read these off each built space
    space = consequences(builtin_system("sas"), 3)
    assert (space.system_name, space.degree, space.dim) == ("sas", 3, 6)
    assert sum(len(row) for row in space.rref.rows.values()) > 0
    # degree 6 of sas is built on the shape graph; it reads as a primal build
    sas = builtin_system("sas")
    dual_built = consequences(sas, 6)
    primal = _primal_step(consequences(sas, 5).rref, 6, ())
    assert (dual_built.degree, dual_built.dim) == (6, primal.rank)
    assert dual_built.rref.rows == primal.rows
    # Tracer._check_tag classifies identity checks by this
    assert AlgebraStructure("z", 1, [[[0]]]).is_parametric() is False
