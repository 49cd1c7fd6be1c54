"""The runtime uses the standard library only."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_packages(path: pathlib.Path):
    """The top-level package of every absolute import in a module, wherever it sits."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    outside = {
        (str(path.relative_to(ROOT)), name)
        for path in sorted((ROOT / "src" / "nassoc").rglob("*.py"))
        for name in _imported_packages(path)
        if name != "nassoc" and name not in sys.stdlib_module_names
    }
    assert not outside


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.M)
