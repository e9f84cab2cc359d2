"""constructions and constraints read left and right multiplications off
the sparse product table only: neither module multiplies dense operator
matrices (`@`) nor asks for an operator matrix or a matrix rank, so an
adjoint word or a comparison invariant has one route, through
lie.basis_action and the table.  No linter runs here, so this scans the
two modules with ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lralg"
SPARSE_ONLY = ("constructions.py", "constraints.py")
DENSE_CALLS = {
    "ad",
    "ad_basis",
    "left_mult",
    "right_mult",
    "left_mult_basis",
    "right_mult_basis",
    "rank",
}


def dense_uses(tree: ast.AST):
    """(line, what) of each matrix product and each call of a dense
    operator or rank method, as attribute or as bare name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in DENSE_CALLS:
                yield node.lineno, name


def test_dense_use_scan_sees_each_form():
    src = "a @ b\nm @= n\ng.ad_basis(0)\nt.rank()\nleft_mult(x)\nt.column(0)\n"
    assert [what for _, what in sorted(dense_uses(ast.parse(src)))] == [
        "@",
        "@",
        "ad_basis",
        "rank",
        "left_mult",
    ]


def test_operators_come_from_the_sparse_table():
    found = {}
    for name in SPARSE_ONLY:
        path = PACKAGE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses = sorted(dense_uses(tree))
        if uses:
            found[name] = uses
    assert found == {}
