"""Lie algebras from structure constants: validation, brackets, series.

The upper central series is checked step by step against the centers of
explicit quotients, and whole against a dense direct implementation, on
every algebra this package can construct.
"""

import random
from fractions import Fraction as QQ

import pytest

from lralg.catalog import counterexample_g13, lie_n3, lie_n3_plus_line, lie_n4, lie_r2
from lralg.constructions import (
    FiliformSpec,
    filiform_lie,
    free3_lie,
    free4_two_gen_lie,
    free_two_step_lie,
)
from lralg.extensions import extension_lie_algebra, random_abelian_extension
from lralg.lie import (
    AntisymmetryConflict,
    JacobiViolation,
    LieAlgebra,
    NotAnIdeal,
    abelian_lie,
    bracket_subspaces,
    center,
    classify_solvability,
    derived_series,
    direct_sum_with_abelian,
    is_two_step_solvable,
    lie_from_table,
    lower_central_series,
    quotient_by_ideal,
    upper_central_series,
)
from lralg.lie import _run_series
from lralg.linalg import Matrix, Subspace, nullspace, unit_vector, vec_add, vec_scale


def second_derived_is_zero(g: LieAlgebra) -> bool:
    """[[g, g], [g, g]] = 0 by two brackets of subspaces: the oracle of
    the derived series' two-step test."""
    full = Subspace.full(g.dim)
    d1 = bracket_subspaces(g, full, full)
    d2 = bracket_subspaces(g, d1, d1)
    return d2.dim == 0

def e(dim, k, c=1):
    return tuple(QQ(c) if t == k - 1 else QQ(0) for t in range(dim))


def rand_vec(rng, n):
    return tuple(QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))


ALL_ALGEBRAS = [
    lie_r2(),
    lie_n3(),
    lie_n4(),
    lie_n3_plus_line(),
    abelian_lie(3),
    free_two_step_lie(2),
    free_two_step_lie(3),
    free_two_step_lie(4),
    free3_lie(2),
    free3_lie(3),
    free4_two_gen_lie(),
    counterexample_g13(),
    direct_sum_with_abelian(lie_n4(), 2),
]


def test_from_table_fills_antisymmetric_half():
    g = lie_from_table(3, [(1, 2, e(3, 3))])
    assert g.bracket_basis(1, 0) == {2: QQ(-1)}
    assert g.bracket_basis(0, 1) == {2: QQ(1)}
    assert g.bracket_basis(0, 2) == {}


def test_from_table_rejects_antisymmetry_conflict():
    with pytest.raises(AntisymmetryConflict):
        lie_from_table(3, [(1, 2, e(3, 3)), (2, 1, e(3, 3))])
    # explicitly giving both halves consistently is fine
    g = lie_from_table(3, [(1, 2, e(3, 3)), (2, 1, e(3, 3, -1))])
    assert g.bracket_basis(0, 1) == {2: QQ(1)}


def test_from_table_rejects_diagonal_entry():
    with pytest.raises(AntisymmetryConflict):
        lie_from_table(2, [(1, 1, e(2, 2))])


JACOBI_VIOLATIONS = [
    # (dim, entries, first failing triple, its dense residual)
    # [[e3,e1],e2] = e1 here, while the other two cyclic terms vanish
    (3, [(1, 2, e(3, 3)), (1, 3, e(3, 3)), (2, 3, e(3, 1))], (0, 1, 2), e(3, 1)),
    # (1, 2, 3) and (1, 2, 4) hold; (1, 3, 4) gives -2/3 e1 - 4/3 e1 + 0
    (
        4,
        [(1, 2, e(4, 2)), (1, 3, e(4, 3)), (2, 3, e(4, 4)),
         (1, 4, e(4, 4, 2)), (3, 4, e(4, 1, QQ(-2, 3)))],
        (0, 2, 3),
        e(4, 1, -2),
    ),
    # a residual with several rational coordinates
    (
        4,
        [(2, 3, (1, QQ(-1, 2), QQ(-1, 2), 2)), (3, 4, (0, QQ(1, 3), 2, 1))],
        (1, 2, 3),
        (-2, QQ(5, 6), 0, QQ(-9, 2)),
    ),
]


def test_from_table_rejects_jacobi_violation():
    for dim, bad, triple, residual in JACOBI_VIOLATIONS:
        with pytest.raises(JacobiViolation) as err:
            lie_from_table(dim, bad)
        assert err.value.triple == triple
        assert err.value.residual == tuple(QQ(x) for x in residual)


def test_explicit_zero_entries_do_not_change_identity():
    plain = lie_from_table(3, [(1, 2, e(3, 3))])
    padded = lie_from_table(3, [(1, 2, e(3, 3)), (1, 3, (QQ(0),) * 3)])
    assert plain == padded
    assert hash(plain) == hash(padded)


def test_zero_then_conflicting_entry_is_caught():
    entries = [(1, 2, (QQ(0),) * 3), (2, 1, e(3, 3))]
    with pytest.raises(AntisymmetryConflict):
        lie_from_table(3, entries)


def test_bracket_bilinear_and_alternating():
    rng = random.Random(314)
    for g in (lie_n4(), free3_lie(3), counterexample_g13()):
        n = g.dim
        for _ in range(10):
            u, v, w = rand_vec(rng, n), rand_vec(rng, n), rand_vec(rng, n)
            c = QQ(rng.randint(-3, 3), 2)
            assert g.bracket(u, u) == (QQ(0),) * n
            assert g.bracket(u, v) == vec_scale(-1, g.bracket(v, u))
            left = g.bracket(vec_add(vec_scale(c, u), v), w)
            right = vec_add(vec_scale(c, g.bracket(u, w)), g.bracket(v, w))
            assert left == right


def test_ad_is_a_representation():
    # ad([x,y]) = ad(x) ad(y) - ad(y) ad(x), the operator form of Jacobi
    rng = random.Random(2718)
    for g in (lie_n4(), free4_two_gen_lie(), counterexample_g13()):
        for _ in range(8):
            x, y = rand_vec(rng, g.dim), rand_vec(rng, g.dim)
            assert g.ad(g.bracket(x, y)) == g.ad(x).commutator(g.ad(y))


def test_series_dims_on_reference_algebras():
    assert derived_series(lie_r2()).dims() == (2, 1, 0)
    assert lower_central_series(lie_n3()).dims() == (3, 1, 0)
    assert upper_central_series(lie_n3()).dims() == (1, 3)
    assert lower_central_series(lie_n4()).dims() == (4, 2, 1, 0)
    assert upper_central_series(lie_n4()).dims() == (1, 2, 4)
    assert lower_central_series(abelian_lie(3)).dims() == (3, 0)


def test_r2_is_solvable_not_nilpotent():
    rep = classify_solvability(lie_r2())
    assert rep.solvable_class == 2
    assert rep.nilpotency_class is None
    assert rep.is_two_step_solvable


def test_free_algebras_have_expected_class():
    assert classify_solvability(free_two_step_lie(3)).nilpotency_class == 2
    assert classify_solvability(free3_lie(3)).nilpotency_class == 3
    assert classify_solvability(free4_two_gen_lie()).nilpotency_class == 4


def sl2():
    # e1 = h, e2 = e, e3 = f
    return lie_from_table(3, [(1, 2, e(3, 2, 2)), (1, 3, e(3, 3, -2)), (2, 3, e(3, 1))])


def derivation_on_heisenberg():
    """d acting on h3 = span(x, y, z), [x, y] = z, by x -> x, y -> y,
    z -> 2z; 3-step solvable.  Basis d, x, y, z."""
    entries = [(1, 2, e(4, 2)), (1, 3, e(4, 3)), (1, 4, e(4, 4, 2)), (2, 3, e(4, 4))]
    return lie_from_table(4, entries)


def series_algebras():
    rng = random.Random(4)
    out = ALL_ALGEBRAS + [sl2(), derivation_on_heisenberg(), free3_lie(4)]
    for n in range(4, 10):
        row = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n - 4)]
        out.append(filiform_lie(FiliformSpec.from_free_row(n, row)))
    for seed in range(1, 6):
        d, _ = random_abelian_extension(random.Random(seed), 1 + seed % 3, 2)
        out.append(extension_lie_algebra(d))
    return out


def residual_matrix(s):
    """Matrix of w -> (w reduced by the RREF basis of s)."""
    n = s.ambient_dim
    ident = [list(unit_vector(n, i)) for i in range(n)]
    for row, p in zip(s.basis.entries, s.pivots()):
        for m in range(n):
            ident[m][p] -= row[m]
    return Matrix(ident)


def upper_central_series_direct(g):
    """Oracle: Z_{i+1} = {x : [e_j, x] in Z_i for all j}, the kernel of the
    dense matrices (w -> w mod Z_i) @ ad(e_j), from Z_0 = 0."""

    def step(s):
        residual = residual_matrix(s)
        rows = [r for j in range(g.dim) for r in (residual @ g.ad_basis(j)).entries]
        return nullspace(Matrix(rows))

    return _run_series(step(Subspace.zero(g.dim)), step)


def test_upper_series_matches_direct_and_quotient_centers():
    """Each step Z_i -> Z_{i+1} adds exactly the center of g / Z_i, and the
    series equals the one built by the dense direct oracle."""
    for g in series_algebras():
        series = upper_central_series(g)
        direct = upper_central_series_direct(g)
        assert series.dims() == direct.dims(), repr(g)
        assert series.terms == direct.terms, repr(g)
        for z, z_next in zip(series.terms, series.terms[1:]):
            q, proj = quotient_by_ideal(g, z)
            zq = center(q)
            assert z_next.dim - z.dim == zq.dim, repr(g)
            image = [proj.apply(v) for v in z_next.basis_vectors()]
            assert Subspace.from_vectors(q.dim, image) == zq, repr(g)


def test_center_matches_first_upper_term():
    for g in ALL_ALGEBRAS:
        assert center(g) == upper_central_series(g).terms[0]


def test_bracket_subspaces_of_full_is_derived():
    g = counterexample_g13()
    full = Subspace.full(g.dim)
    assert bracket_subspaces(g, full, full).dim == derived_series(g).dims()[1]


def test_quotient_by_the_whole_algebra_is_zero():
    """g / g has dim 0 and a 0 x n projection that sends every vector to ()."""
    for g in (counterexample_g13(), sl2(), free3_lie(3)):
        n = g.dim
        q, proj = quotient_by_ideal(g, Subspace.full(n))
        assert q.dim == 0
        assert (proj.rows, proj.cols) == (0, n)
        for i in range(n):
            assert proj.apply(unit_vector(n, i)) == ()
        assert proj.apply(tuple(QQ(k + 1, 2) for k in range(n))) == ()


def central_sub_ideals(g, seed, count):
    """count seeded ideals of g inside its center, each spanned by 1 to
    dim Z - 1 random integer combinations of the center's basis."""
    rng = random.Random(seed)
    z = center(g)
    out = []
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(1, z.dim - 1)):
            v = {}
            for row in z.rows:
                t = rng.randint(-2, 2)
                for k, c in row.items():
                    v[k] = v.get(k, 0) + t * c
            vectors.append(v)
        out.append(Subspace.from_sparse(g.dim, vectors))
    return out


def test_quotient_projection_is_a_homomorphism():
    """The projection kills the ideal and carries the bracket to the
    quotient's: by [g, g], whose quotient is abelian, and by ideals whose
    quotient is not, g13 by its center, free3_lie(3) by gamma_3 and seeded
    central sub-ideals of free3_lie(4)."""
    rng = random.Random(55)
    full = Subspace.full
    cases = [(g, bracket_subspaces(g, full(g.dim), full(g.dim)), False)
             for g in (lie_n4(), free3_lie(3), counterexample_g13())]
    g13, f3, f4 = counterexample_g13(), free3_lie(3), free3_lie(4)
    cases += [(g13, center(g13), True), (f3, lower_central_series(f3).term(3), True)]
    cases += [(f4, ideal, True) for ideal in central_sub_ideals(f4, 3, 4)]
    for g, ideal, bracketed in cases:
        q, proj = quotient_by_ideal(g, ideal)
        assert q.dim == g.dim - ideal.dim
        assert bool(q.table) == bracketed
        assert not any(any(proj.apply(v)) for v in ideal.basis_vectors())
        for _ in range(8):
            x, y = rand_vec(rng, g.dim), rand_vec(rng, g.dim)
            assert proj.apply(g.bracket(x, y)) == q.bracket(proj.apply(x), proj.apply(y))


def test_quotient_rejects_non_ideal():
    g = lie_n3()
    line = Subspace.from_vectors(3, [e(3, 1)])  # span(e1) is not an ideal
    with pytest.raises(NotAnIdeal):
        quotient_by_ideal(g, line)


def test_direct_sum_with_abelian():
    g = direct_sum_with_abelian(lie_n3(), 2)
    assert g.dim == 5
    assert g.bracket_basis(0, 1) == {2: QQ(1)}
    assert g.bracket_basis(0, 3) == {}
    assert center(g).dim == center(lie_n3()).dim + 2


def test_two_step_solvable_agrees_with_second_derived():
    for g in ALL_ALGEBRAS:
        assert is_two_step_solvable(g) == second_derived_is_zero(g)


def test_g13_series_pinned_dims():
    g = counterexample_g13()
    assert lower_central_series(g).dims() == (13, 9, 5, 0)
    assert derived_series(g).dims() == (13, 9, 0)
    assert upper_central_series(g).dims() == (5, 9, 13)
    assert second_derived_is_zero(g)
