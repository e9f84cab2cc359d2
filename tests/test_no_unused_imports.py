"""Every module-level import in lralg is used by its module, and every
private module-level name is read somewhere in the package.

A name bound by an import and never read again is left behind when the
code that read it goes, and so is a private helper or constant; no
linter runs here, so this scans the package with ast.  __init__.py is
left out: its imports are the public API.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lralg"


def imported_names(tree: ast.Module):
    """(name bound, line) of each import at module level."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the names listed in __all__."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            }
    return used


def test_every_module_import_is_used():
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(files) > 5
    unused = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        for name, line in imported_names(tree):
            if name not in used:
                unused.setdefault(path.name, []).append(f"{name} (line {line})")
    assert unused == {}


def private_definitions(tree: ast.Module):
    """(name, line) of each module-level function, class or assignment
    whose name starts with an underscore, dunder names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def read_names(tree: ast.Module) -> set[str]:
    """used_names, and every name the module reads as an attribute."""
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return used_names(tree) | attrs


def test_every_private_name_is_read_in_the_package():
    """A private helper nobody reads is dead code: the package is its only
    possible caller, so deleting its last caller should delete it too."""
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    read = set().union(*(read_names(tree) for tree in trees.values()))
    unread = {}
    for fname, tree in trees.items():
        if fname == "__init__.py":
            continue
        for name, line in private_definitions(tree):
            if name not in read:
                unread.setdefault(fname, []).append(f"{name} (line {line})")
    assert unread == {}
