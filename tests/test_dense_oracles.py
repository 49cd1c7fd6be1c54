"""The dense eliminations of exact/linalg.py (`rref`, `det`) and the helpers
of tests/oracles.py (`bareiss_rank`, `subs_vars`) are test oracles: every
elimination of the package runs on `SparseRREF`, and none of it substitutes
expressions for variables.
Parsing the sources keeps the oracles from drifting back into the runtime,
where they would stop being independent of what they check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nassoc"
ORACLES = {"rref", "det", "bareiss_rank", "subs_vars"}


def _oracle_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (f"import {alias.name}" for alias in node.names if alias.name in ORACLES)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ORACLES:
                yield f"call {name} at line {node.lineno}"


def test_dense_oracles_stay_out_of_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "exact" / "linalg.py" in sources
    found = {
        str(path.relative_to(PACKAGE)): uses
        for path in sources
        if path != PACKAGE / "exact" / "linalg.py"
        if (uses := list(_oracle_uses(ast.parse(path.read_text()))))
    }
    assert found == {}
