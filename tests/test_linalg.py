"""Exact rational linear algebra: matrices, row reduction, subspaces."""

import random
from fractions import Fraction as QQ
from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg.catalog import counterexample_g13
from lralg.constraints import _identity_rows, _linear_parts, generate_lr_system
from lralg.linalg import (
    DimensionMismatch,
    Eliminator,
    Matrix,
    Subspace,
    kernel,
    matrix_is_nilpotent,
    nullspace,
    qq,
    rref,
    unit_vector,
    vec_add,
    vec_scale,
    vector,
    zero_vector,
)
from lralg.poly import Polynomial

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


# Subspace helpers with no caller in the package, kept as test oracles.


def pivot_columns(reduced: Matrix) -> tuple[int, ...]:
    """Pivot column indices of a matrix already in RREF."""
    pivots = []
    for row in reduced.entries:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return tuple(pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return Subspace.from_sparse(a.ambient_dim, a.rows + b.rows)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient problem."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # columns: coefficients on a-basis then b-basis; rows: ambient coordinates
    cols = [v for v in a.basis_vectors()] + [vec_scale(-1, v) for v in b.basis_vectors()]
    ker = nullspace(Matrix.from_columns(cols))
    vecs = []
    for coeff in ker.basis_vectors():
        v = zero_vector(a.ambient_dim)
        for c, bv in zip(coeff[: a.dim], a.basis_vectors()):
            v = vec_add(v, vec_scale(c, bv))
        vecs.append(v)
    return Subspace.from_vectors(a.ambient_dim, vecs)

def random_matrix(rng, rows, cols, span=6):
    return Matrix(
        [
            [QQ(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def det_by_permutations(m):
    """Leibniz formula; only usable for tiny matrices, which is the point."""
    n = m.rows
    total = QQ(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = QQ(1)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def test_qq_coercion():
    assert qq(3) == QQ(3)
    assert qq("-3/7") == QQ(-3, 7)
    assert qq(QQ(1, 2)) == QQ(1, 2)
    with pytest.raises(TypeError):
        qq(0.5)


def test_vector_helpers():
    v = vector([1, "1/2", QQ(-2)])
    assert v == (QQ(1), QQ(1, 2), QQ(-2))
    assert vec_add(v, v) == (QQ(2), QQ(1), QQ(-4))
    assert vec_scale("1/2", v) == (QQ(1, 2), QQ(1, 4), QQ(-1))
    assert unit_vector(3, 1) == (QQ(0), QQ(1), QQ(0))
    with pytest.raises(DimensionMismatch):
        unit_vector(3, 3)
    with pytest.raises(DimensionMismatch):
        vec_add(v, (QQ(1),))


def test_matrix_is_immutable():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])


def test_matrix_arithmetic_exact():
    a = Matrix([["1/3", 2], [0, "-1/7"]])
    b = Matrix([["2/3", -2], [1, "1/7"]])
    assert (a + b) == Matrix([[1, 0], [1, 0]])
    assert (a - a).is_zero()
    assert (-a).scale(-1) == a
    assert a @ Matrix.identity(2) == a
    assert a.transpose().transpose() == a


def test_matmul_against_hand_product():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])
    assert b @ a == Matrix([[3, 4], [1, 2]])
    assert a.commutator(b) == a @ b - b @ a


def test_apply_matches_matmul():
    rng = random.Random(42)
    for _ in range(20):
        m = random_matrix(rng, 3, 3)
        v = tuple(QQ(rng.randint(-5, 5)) for _ in range(3))
        col = Matrix.from_columns([v])
        assert (m @ col).column(0) == m.apply(v)


def test_power():
    m = Matrix([[1, 1], [0, 1]])
    assert m.power(0) == Matrix.identity(2)
    assert m.power(5) == Matrix([[1, 5], [0, 1]])
    step = Matrix.identity(2)
    for k in range(6):
        assert m.power(k) == step
        step = step @ m


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        Matrix.identity(2).power(-1)


def test_full_rank_iff_permutation_expansion_nonzero():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, span=1)
        assert (m.rank() == n) == (det_by_permutations(m) != 0)


def test_rank_of_singular_matrix():
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert det_by_permutations(m) == 0
    assert m.rank() == 2


def test_inverse_round_trip():
    rng = random.Random(11)
    found = 0
    while found < 15:
        m = random_matrix(rng, 3, 3)
        if m.rank() < 3:
            continue
        found += 1
        assert m @ m.inverse() == Matrix.identity(3)
        assert m.inverse() @ m == Matrix.identity(3)


def test_inverse_of_singular_raises():
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 1], [1, 1]]).inverse()


def test_rref_known_example():
    m = Matrix([[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    r = rref(m)
    assert r == Matrix([[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert pivot_columns(r) == (0, 2)


def dense_rref(m):
    """The dense Gauss-Jordan loop that rref used before it ran on the
    sparse Eliminator; the RREF is unique, so both must agree."""
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return Matrix(a)


@st.composite
def awkward_matrices(draw):
    """Rational matrices up to 7x7, sparse enough to be rank deficient,
    with zeroed rows and columns, repeated rows and empty shapes."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(QQ(0)), rationals)
    a = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows:
        for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
            a[i] = [QQ(0)] * cols
        pick = st.integers(0, rows - 1)
        for i, k in draw(st.lists(st.tuples(pick, pick), max_size=2)):
            a[i] = list(a[k])
    if cols:
        for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in a:
                row[j] = QQ(0)
    return Matrix(a)


@settings(max_examples=150, deadline=None)
@given(awkward_matrices())
def test_rref_rank_nullspace_inverse_match_dense_oracle(m):
    expect = dense_rref(m)
    assert rref(m) == expect
    nonzero = [row for row in expect.entries if any(row)]
    assert m.rank() == len(nonzero)
    assert Subspace.from_vectors(m.cols, m.entries).basis == Matrix(nonzero)
    kernel = nullspace(m)
    assert kernel.dim == m.cols - len(nonzero)
    for v in kernel.basis_vectors():
        assert all(x == 0 for x in expect.apply(v))
    if m.is_square():
        if len(nonzero) == m.rows:
            assert m @ m.inverse() == Matrix.identity(m.rows)
            assert m.inverse() @ m == Matrix.identity(m.rows)
        else:
            with pytest.raises(ZeroDivisionError):
                m.inverse()


def sparse_rows(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m.entries]


def dense_nullspace(m):
    """The kernel basis read off dense_rref, then itself brought to RREF."""
    red = [row for row in dense_rref(m).entries if any(row)]
    pivots = pivot_columns(Matrix(red))
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [QQ(0)] * m.cols
        v[f] = QQ(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return [row for row in dense_rref(Matrix(basis)).entries if any(row)]


def dense_reduce(basis, v):
    """The dense reduction loop Subspace.reduce ran before the sparse one,
    as a sparse residual."""
    res = list(v)
    for row, p in zip(basis.entries, pivot_columns(basis)):
        f = res[p]
        if f:
            for j, c in enumerate(row):
                if c:
                    res[j] -= f * c
    return {j: x for j, x in enumerate(res) if x}


polynomial_entries = st.builds(
    lambda c, v, k: Polynomial.variable(v).scale(c) + k,
    rationals,
    st.integers(0, 2),
    rationals,
)


@settings(max_examples=150, deadline=None)
@given(awkward_matrices(), st.data())
def test_sparse_subspace_kernel_and_reduce_match_dense(m, data):
    """The sparse constructor, kernel and reduce against the dense oracle,
    on matrices with zero rows, empty shapes and full rank alike."""
    s = Subspace.from_sparse(m.cols, sparse_rows(m))
    assert s == Subspace.from_vectors(m.cols, m.entries)
    assert s.basis.entries == tuple(row for row in dense_rref(m).entries if any(row))
    k = kernel(m.cols, sparse_rows(m))
    assert k == nullspace(m)
    assert list(k.basis.entries) == dense_nullspace(m)
    for entries in (st.one_of(st.just(QQ(0)), rationals), polynomial_entries):
        v = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
        expect = dense_reduce(s.basis, v)
        assert s.reduce_sparse({j: x for j, x in enumerate(v) if x}) == expect
        assert {j: x for j, x in enumerate(s.reduce(v)) if x} == expect


@pytest.mark.parametrize(
    "m",
    [Matrix([]), Matrix.zero(3, 4), Matrix.identity(4), Matrix([[0, 2, 1], [0, 0, 0], [3, 0, 1]])],
    ids=["empty", "zero", "full", "zero-row"],
)
def test_sparse_subspace_edge_cases(m):
    assert Subspace.from_sparse(m.cols, sparse_rows(m)) == Subspace.from_vectors(m.cols, m.entries)
    assert list(kernel(m.cols, sparse_rows(m)).basis.entries) == dense_nullspace(m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rref_idempotent_and_preserves_row_space(rows):
    m = Matrix(rows)
    r = rref(m)
    assert rref(r) == r
    # same row space in both directions
    s1 = Subspace.from_vectors(3, m.entries)
    s2 = Subspace.from_vectors(3, [row for row in r.entries if any(row)])
    assert s1 == s2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(rationals, min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_rank_nullity(rows):
    m = Matrix(rows)
    assert m.rank() + nullspace(m).dim == m.cols


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(23)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        for v in nullspace(m).basis_vectors():
            assert all(x == 0 for x in m.apply(v))


def test_subspace_equality_is_basis_independent():
    a = Subspace.from_vectors(3, [(QQ(1), QQ(1), QQ(0)), (QQ(0), QQ(1), QQ(1))])
    b = Subspace.from_vectors(
        3, [(QQ(2), QQ(3), QQ(1)), (QQ(1), QQ(0), QQ(-1)), (QQ(3), QQ(3), QQ(0))]
    )
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2


def test_subspace_membership():
    s = Subspace.from_vectors(3, [(QQ(1), QQ(0), QQ(2)), (QQ(0), QQ(1), QQ(1))])
    assert s.contains((QQ(2), QQ(-1), QQ(3)))
    assert not s.contains((QQ(0), QQ(0), QQ(1)))
    assert s.contains_subspace(Subspace.from_vectors(3, [(QQ(1), QQ(1), QQ(3))]))


def test_subspace_sum_and_intersection_dims():
    # dim(U + V) + dim(U n V) = dim U + dim V, on random spans
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 5)
        u = Subspace.from_vectors(
            n, [tuple(QQ(rng.randint(-3, 3)) for _ in range(n)) for _ in range(2)]
        )
        v = Subspace.from_vectors(
            n, [tuple(QQ(rng.randint(-3, 3)) for _ in range(n)) for _ in range(2)]
        )
        total = subspace_sum(u, v)
        meet = subspace_intersection(u, v)
        assert total.dim + meet.dim == u.dim + v.dim
        assert u.contains_subspace(meet) and v.contains_subspace(meet)
        assert total.contains_subspace(u) and total.contains_subspace(v)


def test_intersection_members_live_in_both():
    u = Subspace.from_vectors(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    v = Subspace.from_vectors(4, [(1, 1, 1, 1), (1, 0, 0, 0)])
    meet = subspace_intersection(u, v)
    assert meet.dim == 1
    for w in meet.basis_vectors():
        assert u.contains(w) and v.contains(w)


def test_nilpotency_against_dense_powers():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, span=2)
        dense = any(m.power(k).is_zero() for k in range(1, n + 1))
        assert matrix_is_nilpotent(m) == dense


def test_nilpotent_examples():
    shift = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert matrix_is_nilpotent(shift)
    assert not matrix_is_nilpotent(Matrix.identity(3))
    assert matrix_is_nilpotent(Matrix.zero(4, 4))
    with pytest.raises(DimensionMismatch):
        matrix_is_nilpotent(Matrix([[1, 2, 3]]))


class FractionEliminator:
    """The Eliminator as it was before it kept integral scalars as ints:
    every coefficient a Fraction, each pivot expression divided out in
    Fractions.  The oracle for the int-scalar one; rows given with int
    scalars are read as Fractions."""

    def __init__(self):
        self.pivots = {}
        self.order = []
        self.contradiction = False

    def add(self, coeffs, const):
        if self.contradiction:
            return
        coeffs = {v: QQ(c) for v, c in coeffs.items()}
        const = QQ(const)
        while True:
            hit = None
            for v in coeffs:
                if v in self.pivots:
                    if hit is None or v > hit:
                        hit = v
            if hit is None:
                break
            c = coeffs.pop(hit)
            ec, ek = self.pivots[hit]
            for v2, c2 in ec.items():
                s = coeffs[v2] + c * c2 if v2 in coeffs else c * c2
                if s:
                    coeffs[v2] = s
                else:
                    coeffs.pop(v2, None)
            const += c * ek
        if not coeffs:
            if const != 0:
                self.contradiction = True
            return
        p = max(coeffs)
        cp = coeffs.pop(p)
        expr = {v: -c / cp for v, c in coeffs.items()}
        self.pivots[p] = (expr, -const / cp)
        self.order.append(p)

    def finalize(self):
        done = {}
        for p in reversed(self.order):
            ec, ek = self.pivots[p]
            coeffs = {}
            const = ek
            for v, c in ec.items():
                if v in done:
                    dc, dk = done[v]
                    for v2, c2 in dc.items():
                        s = coeffs[v2] + c * c2 if v2 in coeffs else c * c2
                        if s:
                            coeffs[v2] = s
                        else:
                            coeffs.pop(v2, None)
                    const += c * dk
                else:
                    s = coeffs[v] + c if v in coeffs else c
                    if s:
                        coeffs[v] = s
                    else:
                        coeffs.pop(v, None)
            done[p] = (coeffs, const)
        self.pivots = done
        return done


def feed(elim, rows):
    for coeffs, const in rows:
        elim.add(coeffs, const)


def assert_finalize_matches_oracle(elim, oracle):
    """Same contradiction, same pivots in the same order, same forms;
    every returned scalar a Fraction, one object per value."""
    got, want = elim.finalize(), oracle.finalize()
    assert elim.contradiction is oracle.contradiction
    assert elim.order == oracle.order
    assert list(got) == list(want)
    assert got == want
    shared = {}
    for ec, ek in got.values():
        for x in (*ec.values(), ek):
            assert type(x) is QQ
            assert shared.setdefault(x, x) is x


COEFFICIENTS = {
    "integral": [QQ(c) for c in (-3, -2, -1, 1, 2, 3)],
    "half_integral": [QQ(c, 2) for c in (-5, -3, -2, -1, 1, 2, 3, 5)],
    "mixed": [QQ(c, d) for c in (-4, -3, -1, 1, 2, 5) for d in (1, 2, 3, 7)],
}


def seeded_rows(rng, pool):
    """Random sparse rows over a few variables.  Some rows are sums of
    two earlier rows with the constant kept or shifted, so rows reduce
    to zero and some sets are contradictory."""
    nvars = rng.randint(3, 9)
    rows = []
    for _ in range(rng.randint(2, 12)):
        if len(rows) >= 2 and rng.random() < 0.3:
            (c1, k1), (c2, k2) = rng.sample(rows, 2)
            f = rng.choice(pool)
            coeffs = {v: c1.get(v, 0) + f * c2.get(v, 0) for v in {*c1, *c2}}
            coeffs = {v: c for v, c in coeffs.items() if c}
            const = k1 + f * k2 + rng.choice((QQ(0), QQ(0), QQ(1), QQ(-1, 2)))
        else:
            support = rng.sample(range(nvars), rng.randint(1, min(4, nvars)))
            coeffs = {v: rng.choice(pool) for v in support}
            const = rng.choice((QQ(0), QQ(0), rng.choice(pool)))
        rows.append((coeffs, const))
    return rows


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_int_eliminator_matches_fraction_oracle(kind):
    """Two rounds, as structural_reduce runs them: a batch of rows, a
    finalize, a second batch added after it, and a finalize again."""
    rng = random.Random(f"eliminator-{kind}")
    contradictions = 0
    for _ in range(400):
        rows = seeded_rows(rng, COEFFICIENTS[kind])
        cut = rng.randint(0, len(rows))
        elim, oracle = Eliminator(), FractionEliminator()
        for batch in (rows[:cut], rows[cut:]):
            feed(elim, batch)
            feed(oracle, batch)
            assert_finalize_matches_oracle(elim, oracle)
        contradictions += oracle.contradiction
    assert 40 < contradictions < 360


def test_int_eliminator_matches_fraction_oracle_on_g13_rows():
    """The round-1 rows of g13's structural reduction, in its order."""
    g = counterexample_g13()
    rows = [
        lp for p in generate_lr_system(g).polys if (lp := _linear_parts(p)) is not None
    ]
    rows += [lp for _, lp in _identity_rows(g)]
    rows.sort(key=lambda rc: (len(rc[0]), *chain(*sorted(rc[0].items()))))
    elim, oracle = Eliminator(), FractionEliminator()
    feed(elim, rows)
    feed(oracle, rows)
    assert len(oracle.order) == 2139
    assert_finalize_matches_oracle(elim, oracle)
