"""Constructed families: filiform, halved adjoint, free nilpotent algebras."""

import random
from fractions import Fraction as QQ

import pytest

from lralg.catalog import catalog_get, lie_n3, lie_n4
from lralg.constructions import (
    FiliformSpec,
    NotTwoStepNilpotent,
    SpecViolation,
    filiform_lie,
    filiform_lr,
    free3_dimension,
    free3_lie,
    free3_lr,
    free4_two_gen_lie,
    free4_two_gen_lr,
    free_two_step_lie,
    halved_adjoint_lr,
)
from lralg.fileformat import format_algebra
from lralg.lie import classify_solvability, is_two_step_solvable, lower_central_series
from lralg.linalg import Matrix
from lralg.lr import is_complete, lemma_suite, lr_from_table, verify_axioms


def random_spec(rng, n):
    row = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 4)]
    return FiliformSpec.from_free_row(n, row)


def test_filiform_spec_validation():
    with pytest.raises(SpecViolation):
        FiliformSpec(3)
    with pytest.raises(SpecViolation):
        FiliformSpec.from_free_row(6, [1])  # needs exactly 2 entries
    with pytest.raises(SpecViolation):
        FiliformSpec(6, {(2, 5): QQ(1)})  # row index out of range
    # shift constraint: c[4,7] must equal c[3,6]
    with pytest.raises(SpecViolation):
        FiliformSpec(7, {(3, 6): QQ(1), (4, 7): QQ(2)})


def test_filiform_free_row_fills_shifts():
    spec = FiliformSpec.from_free_row(7, [QQ(2), QQ(-1), QQ(3)])
    assert spec.coefficient(3, 5) == 2
    assert spec.coefficient(3, 6) == -1
    assert spec.coefficient(3, 7) == 3
    assert spec.coefficient(4, 6) == 2  # shifted copy of c[3,5]
    assert spec.coefficient(4, 7) == -1
    assert spec.coefficient(5, 7) == 2


def test_filiform_lie_is_filiform():
    rng = random.Random(101)
    for n in (4, 5, 7):
        g = filiform_lie(random_spec(rng, n))
        dims = lower_central_series(g).dims()
        # one-dimensional drops all the way down after the first step
        assert dims == (n, n - 2) + tuple(range(n - 3, -1, -1))
        assert is_two_step_solvable(g)


def test_filiform_lr_axioms_and_right_mults():
    rng = random.Random(202)
    for n in (4, 5, 6):
        for _ in range(3):
            spec = random_spec(rng, n)
            a = filiform_lr(spec)
            assert verify_axioms(a).ok
            assert a.complete
            g = a.g
            ad1, ad2 = g.ad_basis(0), g.ad_basis(1)
            assert a.right_mult_basis(0) == -ad1
            assert a.right_mult_basis(1) == Matrix.zero(n, n)
            for i in range(3, n + 1):
                expect = ad2
                for _ in range(i - 2):
                    expect = expect @ ad1
                assert a.right_mult_basis(i - 1) == expect


def test_filiform_left_mults_are_adjoint_words():
    # the dense words ad(e1)^(i-2) ad(e2) are the oracle for the sparse build
    rng = random.Random(31)
    for k in range(30):
        n = 4 + k % 6
        a = filiform_lr(random_spec(rng, n))
        g = a.g
        ad1, ad2 = g.ad_basis(0), g.ad_basis(1)
        words = [Matrix.zero(n, n), ad2]
        for _ in range(3, n + 1):
            words.append(ad1 @ words[-1])
        for i, word in enumerate(words):
            assert a.left_mult_basis(i) == word
        entries = [
            (i + 1, j + 1, word.column(j))
            for i, word in enumerate(words)
            for j in range(n)
            if any(word.column(j))
        ]
        oracle = lr_from_table(g, entries, validate=False)
        assert format_algebra("f", g, a) == format_algebra("f", g, oracle)


def test_halved_adjoint_on_two_step_algebras():
    for g in (lie_n3(), free_two_step_lie(2), free_two_step_lie(3), free_two_step_lie(4)):
        a = halved_adjoint_lr(g)
        assert verify_axioms(a).ok
        assert a.complete
        # product really is half the bracket
        for (i, j), v in g.table.items():
            assert a.product_basis(i, j) == {k: c / 2 for k, c in v.items()}


def test_halved_adjoint_reproduces_catalog_entry():
    assert halved_adjoint_lr(lie_n3()) == catalog_get("n3/A3")


def test_halved_adjoint_rejects_higher_class():
    with pytest.raises(NotTwoStepNilpotent):
        halved_adjoint_lr(lie_n4())
    with pytest.raises(NotTwoStepNilpotent):
        halved_adjoint_lr(free3_lie(2))


def test_free_two_step_dims():
    for n in (2, 3, 4, 5):
        g = free_two_step_lie(n)
        assert g.dim == n + n * (n - 1) // 2
        assert classify_solvability(g).nilpotency_class == 2


def test_free3_dimension_formula():
    assert [free3_dimension(n) for n in (2, 3, 4, 5)] == [5, 14, 30, 55]
    for n in (2, 3, 4):
        assert free3_lie(n).dim == free3_dimension(n)


def test_free3_lr_valid_and_complete():
    for n in (2, 3):
        a = free3_lr(n)
        assert verify_axioms(a).ok
        assert a.complete
        assert classify_solvability(a.g).nilpotency_class == 3
        assert lemma_suite(a).ok


def test_free3_generator_products_match_brackets():
    a = free3_lr(3)
    g = a.g
    # x_j . x_i = -y_(i,j) = -[x_i, x_j] for generators i < j
    for i in range(3):
        for j in range(i + 1, 3):
            expect = {k: -c for k, c in g.bracket_basis(i, j).items()}
            assert a.product_basis(j, i) == expect
            assert a.product_basis(i, j) == {}


def test_free4_two_gen():
    g = free4_two_gen_lie()
    assert g.dim == 8
    assert classify_solvability(g).nilpotency_class == 4
    assert is_two_step_solvable(g)
    a = free4_two_gen_lr()
    assert verify_axioms(a).ok
    assert a.complete
    for i in (5, 6, 7):
        assert a.left_mult_basis(i).is_zero()


def test_free4_left_mults_are_the_stated_words():
    a = free4_two_gen_lr()
    g = a.g
    ad1, ad2 = g.ad_basis(0), g.ad_basis(1)
    assert a.left_mult_basis(0).is_zero()
    assert a.left_mult_basis(1) == ad2
    assert a.left_mult_basis(2) == ad1 @ ad2
    assert a.left_mult_basis(3) == ad1 @ ad1 @ ad2
    assert a.left_mult_basis(4) == ad2 @ ad1 @ ad2
    # the degree-4 words collapse to zero, in both bracketings
    assert (ad2 @ ad1 @ ad1 @ ad2).is_zero()
    assert (ad1 @ ad2 @ ad1 @ ad2).is_zero()


def test_constructors_reject_tiny_inputs():
    with pytest.raises(SpecViolation):
        free_two_step_lie(1)
    with pytest.raises(SpecViolation):
        free3_lie(1)
