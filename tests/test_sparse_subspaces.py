"""Series, centers and completeness on sparse rows, against dense oracles.

The subspace layer runs on sparse rows through the one Eliminator.  The
oracles below are the dense routines it replaced: Gauss-Jordan on
Fraction rows, the centralizer as the kernel of the stacked dense
matrices ([e_j, e_k] mod s), the LR center as the kernel of the stacked
L(e_i) - R(e_i), and nilpotency of each L(e_i) by the image chain of its
dense matrix.  Subspaces are canonical RREF, so both sides must give the
same basis matrix, term by term.
"""

import random
from fractions import Fraction as QQ

import pytest

from lralg.catalog import catalog_entry, catalog_get, catalog_list, counterexample_g13
from lralg.catalog import sample_params
from lralg.constructions import FiliformSpec, filiform_lr, free3_lie, free3_lr
from lralg.extensions import invertible_generator_lift, random_abelian_extension
from lralg.lie import (
    abelian_lie,
    center,
    derived_series,
    lower_central_series,
    upper_central_series,
)
from lralg.lr import LRAlgebra, center as lr_center
from lralg.linalg import Matrix


def dense_span(n, vectors):
    """The nonzero rows of the RREF of the vectors, by dense Gauss-Jordan."""
    a = [list(v) for v in vectors if any(v)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return tuple(tuple(row) for row in a[:r])


def dense_kernel(n, rows):
    red = dense_span(n, rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [QQ(0)] * n
        v[f] = QQ(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return dense_span(n, basis)


def dense_reduce(span, v):
    res = list(v)
    for row in span:
        p = next(j for j, x in enumerate(row) if x)
        f = res[p]
        if f:
            res = [x - f * c for x, c in zip(res, row)]
    return res


def unit(n, i):
    return tuple(QQ(int(j == i)) for j in range(n))


def dense_centralizer_mod(g, span):
    """{x : [e_j, x] in span for every j}: block j of the stacked matrix
    has the columns ([e_j, e_k] mod span)."""
    n = g.dim
    rows = []
    for j in range(n):
        cols = [dense_reduce(span, g.bracket(unit(n, j), unit(n, k))) for k in range(n)]
        rows.extend(Matrix.from_columns(cols).entries)
    return dense_kernel(n, rows)


def dense_series(g, first, step):
    terms = [first]
    while True:
        terms.append(step(terms[-1]))
        if terms[-1] == terms[-2]:
            return terms, True
        if len(terms) > g.dim + 2:
            return terms, False


def dense_bracket_span(g, a, b):
    return dense_span(g.dim, [g.bracket(u, v) for u in a for v in b])


def dense_lie_checks(g):
    """(name, oracle terms, stabilized) for each series and the center."""
    n = g.dim
    full = dense_span(n, [unit(n, i) for i in range(n)])
    z = dense_centralizer_mod(g, ())
    yield "lower", dense_series(g, full, lambda s: dense_bracket_span(g, full, s))
    yield "derived", dense_series(g, full, lambda s: dense_bracket_span(g, s, s))
    yield "upper", dense_series(g, z, lambda s: dense_centralizer_mod(g, s))
    yield "center", ([z], True)


def dense_lr_center(a):
    rows = []
    for i in range(a.dim):
        rows.extend((a.left_mult_basis(i) - a.right_mult_basis(i)).entries)
    return dense_kernel(a.dim, rows)


def dense_is_nilpotent(m):
    """Image chain of the dense matrix m, as matrix_is_nilpotent ran it."""
    n = m.rows
    space = dense_span(n, [m.column(j) for j in range(n)])
    for _ in range(n):
        if not space:
            return True
        new = dense_span(n, [m.apply(v) for v in space])
        if new == space:
            return False
        space = new
    return not space


def check_lie(g):
    sparse = {
        "lower": lower_central_series(g),
        "derived": derived_series(g),
        "upper": upper_central_series(g),
    }
    for name, (terms, stabilized) in dense_lie_checks(g):
        if name == "center":
            assert center(g).basis.entries == terms[0], (g, name)
            continue
        got = sparse[name]
        assert [t.basis.entries for t in got.terms] == terms, (g, name)
        assert got.stabilized == stabilized, (g, name)


def check_lr(a):
    assert lr_center(a).basis.entries == dense_lr_center(a), a
    nilpotent = [dense_is_nilpotent(a.left_mult_basis(i)) for i in range(a.dim)]
    assert a.complete == all(nilpotent), a


def catalog_samples():
    return [
        catalog_get(key, params)
        for key in catalog_list()
        for params in sample_params(catalog_entry(key))
    ]


def filiform_samples():
    rng = random.Random(26)
    return [
        filiform_lr(
            FiliformSpec.from_free_row(
                n, [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 4)]
            )
        )
        for n in range(4, 10)
        for _ in range(10)
    ]


def lift_samples():
    rng = random.Random(26)
    return [
        invertible_generator_lift(*random_abelian_extension(rng, 1 + i % 4, 1 + (i // 4) % 4))
        for i in range(50)
    ]


def random_tables():
    """Products on abelian algebras that satisfy no LR axiom.  Half are
    dense, so that some L(e_i) are not nilpotent; in the other half
    e_i e_j has components above j only, so every L(e_i) is nilpotent."""
    rng = random.Random(7)
    out = []
    for n in (1, 2, 3, 4, 5, 6):
        for low in (0, None):
            table = {}
            for i in range(n):
                for j in range(n):
                    v = {
                        k: QQ(rng.randint(-3, 3), rng.randint(1, 2))
                        for k in range(j + 1 if low is None else low, n)
                        if rng.random() < 0.5
                    }
                    if v := {k: c for k, c in v.items() if c}:
                        table[(i, j)] = v
            out.append(LRAlgebra(abelian_lie(n), table))
    return out


def test_catalog_samples_match_the_dense_oracle():
    samples = catalog_samples()
    assert len(samples) == 86
    for a in samples:
        check_lie(a.g)
        check_lr(a)


def test_filiform_structures_match_the_dense_oracle():
    samples = filiform_samples()
    assert len(samples) == 60
    for a in samples:
        check_lie(a.g)
        check_lr(a)


def test_invertible_generator_lifts_match_the_dense_oracle():
    for a in lift_samples():
        check_lie(a.g)
        check_lr(a)


@pytest.mark.parametrize("n", [3, 4])
def test_free3_lr_matches_the_dense_oracle(n):
    a = free3_lr(n)
    check_lie(a.g)
    check_lr(a)


@pytest.mark.parametrize("g", [free3_lie(3), counterexample_g13()], ids=["free3_lie_3", "g13"])
def test_lie_algebras_match_the_dense_oracle(g):
    check_lie(g)


def test_random_non_lr_tables_match_the_dense_oracle():
    samples = random_tables()
    complete = [a.complete for a in samples]
    assert complete[1::2] == [True] * 6 and False in complete[::2]
    for a in samples:
        check_lr(a)
