"""LR products: axiom verification, completeness, the derived-identity suite.

A valid instance must satisfy commuting left multiplications, commuting
right multiplications, and product minus opposite product equal to the
bracket.  The perturbation tests check the verifier actually has teeth:
bumping any single table entry of a valid instance must be detected.
"""

import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg.catalog import catalog_get, lie_n3, lie_r2
from lralg.constructions import free3_lr, free4_two_gen_lr
from lralg.lie import LieAlgebra, lie_from_table
from lralg.lr import (
    CompatViolation,
    LR1Violation,
    LR2Violation,
    LRAlgebra,
    center,
    ideal_product,
    is_complete,
    is_two_sided_ideal,
    lemma_suite,
    lr_from_table,
    verify_axioms,
)
from lralg.linalg import Matrix, Subspace


LEMMA_CHECKS = (
    "product_cycle_left",
    "product_cycle_right",
    "ad_product_rule_left",
    "ad_product_rule_right",
    "product_square_commute",
    "derived_brackets_vanish",
    "two_step_solvable",
    "lower_series_two_sided_ideal",
    "upper_series_two_sided_ideal",
    "center_kills_derived",
    "series_product_grading",
    "left_derivation",
    "right_derivation",
)


def sample_instances():
    return [
        catalog_get("r2/A2"),
        catalog_get("n3/A1", {"alpha": QQ(-1, 2)}),
        catalog_get("n3/A4"),
        catalog_get("n4/A4", {"alpha": 1, "beta": 0, "gamma": 1}),
        catalog_get("n3_r/A9", {"alpha": QQ(3, 4)}),
        free3_lr(3),
        free4_two_gen_lr(),
    ]


def test_valid_instances_pass_all_axioms():
    for a in sample_instances():
        report = verify_axioms(a)
        assert report.ok, report.violations[:3]
        assert not report.violations
        assert report.counts["compat"] == a.dim * (a.dim - 1) // 2
        n = a.dim
        assert report.counts["left_commute"] == n * n * (n - 1) // 2
        assert report.counts["right_commute"] == n * n * (n - 1) // 2


def test_left_multiplications_commute_as_matrices():
    for a in sample_instances():
        n = a.dim
        lmats = [a.left_mult_basis(i) for i in range(n)]
        rmats = [a.right_mult_basis(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                assert lmats[i].commutator(lmats[j]).is_zero()
                assert rmats[i].commutator(rmats[j]).is_zero()


def test_product_minus_opposite_is_bracket():
    rng = random.Random(17)
    for a in sample_instances():
        n = a.dim
        for _ in range(6):
            u = tuple(QQ(rng.randint(-3, 3)) for _ in range(n))
            v = tuple(QQ(rng.randint(-3, 3)) for _ in range(n))
            uv = a.product(u, v)
            vu = a.product(v, u)
            assert tuple(x - y for x, y in zip(uv, vu)) == a.g.bracket(u, v)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


SAMPLES = sample_instances()  # free3_lr(3) among them


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_left_right_mult_matrices_match_products(data):
    """The operator matrices, the products and the brackets all come from
    one structure-constant core; they must agree on arbitrary vectors."""
    for a in SAMPLES:
        n = a.dim
        zero = (QQ(0),) * n
        vectors = st.one_of(st.just(zero), st.tuples(*[RATIONALS] * n))
        x, y = data.draw(vectors), data.draw(vectors)
        assert a.left_mult(x).apply(y) == a.product(x, y)
        assert a.right_mult(x).apply(y) == a.product(y, x)
        assert a.g.ad(x).apply(y) == a.g.bracket(x, y)
        for i in range(n):
            e = tuple(QQ(int(t == i)) for t in range(n))
            assert a.left_mult_basis(i) == a.left_mult(e)
            assert a.right_mult_basis(i) == a.right_mult(e)
            assert a.g.ad_basis(i) == a.g.ad(e)


def heisenberg_a3():
    g = lie_n3()
    half = QQ(1, 2)
    return lr_from_table(
        g,
        [
            (1, 2, (0, 0, half)),
            (2, 1, (0, 0, -half)),
        ],
    )


def dense_axiom_oracle(a):
    """Independent check via dense matrices only; no sparse shortcuts."""
    n = a.dim
    lmats = [a.left_mult_basis(i) for i in range(n)]
    rmats = [a.right_mult_basis(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if not lmats[i].commutator(lmats[j]).is_zero():
                return False
            if not rmats[i].commutator(rmats[j]).is_zero():
                return False
    for i in range(n):
        ei = tuple(QQ(1) if t == i else QQ(0) for t in range(n))
        for j in range(n):
            ej = tuple(QQ(1) if t == j else QQ(0) for t in range(n))
            diff = tuple(
                x - y for x, y in zip(a.product(ei, ej), a.product(ej, ei))
            )
            if diff != a.g.bracket(ei, ej):
                return False
    return True


def test_single_entry_bumps_agree_with_dense_oracle():
    """Bump every tensor entry by 1 and compare the verifier against an
    independent dense implementation.  Some bumps stay on the solution
    variety (the product is not rigid), but the two checkers must agree
    on every one of them, and the bumps that only touch one side of an
    off-diagonal pair must always fail compatibility."""
    base = heisenberg_a3()
    n = base.dim
    tensor = base.product_tensor()
    detected = 0
    survived = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table = {}
                for p in range(n):
                    for q in range(n):
                        vals = list(tensor[p][q])
                        if (p, q) == (i, j):
                            vals[k] += 1
                        sv = {t: c for t, c in enumerate(vals) if c != 0}
                        if sv:
                            table[(p, q)] = sv
                cand = LRAlgebra(base.g, table)
                got = verify_axioms(cand).ok
                assert got == dense_axiom_oracle(cand), (i, j, k)
                if i != j:
                    # changing e_i.e_j alone shifts the commutator away
                    # from the bracket, so these must all be rejected
                    assert not got, (i, j, k)
                if got:
                    survived += 1
                else:
                    detected += 1
    assert detected >= 2 * n * n * (n - 1) // 2
    assert detected + survived == n**3


def test_constructor_raises_typed_violation_on_bad_table():
    base = heisenberg_a3()
    tensor = base.product_tensor()
    n = base.dim
    entries = []
    for p in range(n):
        for q in range(n):
            vals = list(tensor[p][q])
            if (p, q) == (0, 1):
                vals[2] += 1  # breaks compatibility with the bracket
            entries.append((p + 1, q + 1, tuple(vals)))
    with pytest.raises((LR1Violation, LR2Violation, CompatViolation)):
        lr_from_table(base.g, entries)


def test_violation_report_structure():
    g = lie_n3()
    # e1.e1 = e1 alone cannot reproduce [e1,e2] = e3
    bad = LRAlgebra(g, {(0, 0): {0: QQ(1)}})
    report = verify_axioms(bad)
    assert not report.ok
    kinds = {v.check for v in report.violations}
    assert "compat" in kinds
    for v in report.by_check("compat"):
        assert len(v.where) == 2
        assert any(c != 0 for c in v.residual)


def test_validate_false_skips_axiom_check():
    g = lie_n3()
    a = lr_from_table(g, [(1, 1, (1, 0, 0))], validate=False)
    assert isinstance(a, LRAlgebra)
    assert not verify_axioms(a).ok


def test_completeness_flags():
    assert is_complete(catalog_get("r2/A2"))
    assert not is_complete(catalog_get("r2/A1"))
    assert not is_complete(catalog_get("n3/A4"))
    assert is_complete(free3_lr(2))
    assert is_complete(free4_two_gen_lr())


def test_lemma_suite_green_on_valid_instances():
    for a in sample_instances():
        report = lemma_suite(a)
        assert report.ok, (repr(a), report.violations[:3])
        for name in LEMMA_CHECKS:
            assert report.counts.get(name, 0) > 0, name


def test_lemma_suite_flags_broken_instance():
    g = lie_n3()
    bad = LRAlgebra(g, {(0, 0): {0: QQ(1)}, (1, 1): {1: QQ(1)}})
    assert not verify_axioms(bad).ok
    report = lemma_suite(bad)
    assert not report.ok


def test_center_equals_lie_center_on_valid_instances():
    from lralg.lie import center as lie_center

    for a in sample_instances():
        assert center(a) == lie_center(a.g)


def test_series_terms_are_two_sided_ideals():
    from lralg.lie import lower_central_series, upper_central_series

    a = free3_lr(3)
    for term in lower_central_series(a.g).terms:
        assert is_two_sided_ideal(a, term)
    for term in upper_central_series(a.g).terms:
        assert is_two_sided_ideal(a, term)


def test_ideal_product_grading():
    from lralg.lie import lower_central_series

    a = free3_lr(3)
    gammas = lower_central_series(a.g).terms
    # product of gamma_2 with gamma_2 lands in gamma_3
    prod = ideal_product(a, gammas[1], gammas[1])
    assert gammas[2].contains_subspace(prod)


def test_equality_and_tensor_round_trip():
    a = heisenberg_a3()
    tensor = a.product_tensor()
    rebuilt = lr_from_table(
        a.g,
        [
            (i + 1, j + 1, tensor[i][j])
            for i in range(a.dim)
            for j in range(a.dim)
        ],
    )
    assert rebuilt == a
