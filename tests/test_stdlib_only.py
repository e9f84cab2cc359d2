"""lralg needs nothing beyond the standard library at run time: every
import in the package names either one of its own modules or a module
of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lralg"


def imported_roots(tree: ast.AST):
    """Top-level package of every absolute import; relative imports stay
    inside the package and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_itself():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    foreign = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in imported_roots(tree):
            if root != "lralg" and root not in sys.stdlib_module_names:
                foreign.setdefault(path.name, []).append(root)
    assert foreign == {}


def test_only_constraints_imports_gc():
    """The collector policy lives in constraints._gc_paused; every other
    module that builds large systems goes through it."""
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "gc" in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["constraints.py"]
