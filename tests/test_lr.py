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

from lralg.catalog import (
    catalog_entry,
    catalog_get,
    catalog_list,
    counterexample_g13,
    lie_n3,
    lie_n4,
    lie_r2,
    sample_params,
)
from lralg.constructions import FiliformSpec, filiform_lr, free3_lr, free4_two_gen_lr
from lralg.extensions import invertible_generator_lift, random_abelian_extension
from lralg.lie import LieAlgebra, lie_from_table
from lralg.lie import sparse_add as add
from lralg.lr import (
    Checks,
    CompatViolation,
    LR1Violation,
    LR2Violation,
    LRAlgebra,
    center,
    ad_product_residual,
    compat_residual,
    derivation_residual,
    ideal_product,
    is_complete,
    is_two_sided_ideal,
    lemma_suite,
    lr1_residual,
    lr2_residual,
    lr_from_table,
    opposite,
    verify_axioms,
)
from lralg.linalg import Matrix, Subspace
from lralg.lr import _at_basis as at_basis
from lralg.poly import Polynomial


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


LINEAR_IN_LAST = (
    "product_cycle_left",
    "product_cycle_right",
    "ad_product_rule_left",
    "ad_product_rule_right",
    "left_derivation",
    "right_derivation",
)


def per_triple_checks(a):
    """The six identity families linear in their last argument, checked on
    every basis triple (i, j, k): the checks lemma_suite runs before the
    quartic identities, and those it runs last."""
    n = a.dim
    basis = [{i: QQ(1)} for i in range(n)]
    prod = a.product_sparse
    rprod = opposite(prod)
    brak = a.g.bracket_sparse
    head, tail = Checks(n), Checks(n)
    for i in range(n):
        for j in range(n):
            bij = brak(basis[i], basis[j])
            for k in range(n):
                acc = prod(bij, basis[k])
                acc = add(acc, prod(brak(basis[j], basis[k]), basis[i]))
                acc = add(acc, prod(brak(basis[k], basis[i]), basis[j]))
                head.sparse("product_cycle_left", (i, j, k), acc)
                acc = prod(basis[k], bij)
                acc = add(acc, prod(basis[i], brak(basis[j], basis[k])))
                acc = add(acc, prod(basis[j], brak(basis[k], basis[i])))
                head.sparse("product_cycle_right", (i, j, k), acc)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                res = ad_product_residual(brak, prod, 1, x, y, z)
                head.sparse("ad_product_rule_left", (i, j, k), res)
                res = ad_product_residual(brak, rprod, -1, x, y, z)
                head.sparse("ad_product_rule_right", (i, j, k), res)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                res = derivation_residual(brak, prod, x, y, z)
                tail.sparse("left_derivation", (i, j, k), res)
                res = derivation_residual(brak, rprod, x, y, z)
                tail.sparse("right_derivation", (i, j, k), res)
    return head, tail


def random_table(rng, n, density):
    """A product table with each component of each e_i.e_j nonzero with
    the given probability, from small rationals."""
    table = {}
    for i in range(n):
        for j in range(n):
            v = {
                k: QQ(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
                for k in range(n)
                if rng.random() < density
            }
            if v:
                table[(i, j)] = v
    return table


def random_products():
    """Seeded random products, a sparse and a dense one per Lie algebra;
    on g13 "dense" means about one component in twenty."""
    bases = [
        (lie_r2, 0.3, 1.0),
        (lie_n3, 0.15, 0.8),
        (lie_n4, 0.1, 0.8),
        (counterexample_g13, 0.005, 0.05),
    ]
    for seed, (base, sparse, dense) in enumerate(bases):
        rng = random.Random(seed)
        g = base()
        yield LRAlgebra(g, random_table(rng, g.dim, sparse))
        yield LRAlgebra(g, random_table(rng, g.dim, dense))


def seeded_filiform(rng, n):
    row = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 4)]
    return filiform_lr(FiliformSpec.from_free_row(n, row))


def seeded_lift(rng, a_dim, b_dim):
    return invertible_generator_lift(*random_abelian_extension(rng, a_dim, b_dim))


def catalog_samples():
    return [
        catalog_get(key, params)
        for key in catalog_list()
        for params in sample_params(catalog_entry(key))
    ]


def assert_lemma_suite_matches_oracle(a):
    """lemma_suite's whole report equals the one assembled from the
    per-triple checks and lemma_suite's own other families; returns it."""
    report = lemma_suite(a)
    head, tail = per_triple_checks(a)
    others = [v for v in report.violations if v.check not in LINEAR_IN_LAST]
    violations = head.violations + others + tail.violations
    counts = dict(head.counts)
    counts.update((c, m) for c, m in report.counts.items() if c not in LINEAR_IN_LAST)
    counts.update(tail.counts)
    got = [(v.check, v.where, v.residual) for v in report.violations]
    assert got == [(v.check, v.where, v.residual) for v in violations]
    assert all(type(c) is QQ for v in report.violations for c in v.residual)
    assert report.ok == (not violations)
    assert list(report.counts.items()) == list(counts.items())
    return report


def test_lemma_suite_matches_per_triple_checks():
    """lemma_suite checks the six families once per basis pair, on the
    generic vector; its whole report must equal the per-triple one.  The
    seeded filiform of dimension 9 and the 4x4 lift are the sparse cases,
    where most generic images and triples are zero."""
    algebras = catalog_samples() + [free3_lr(3), free4_two_gen_lr()]
    algebras += [seeded_filiform(random.Random(3), 9), seeded_lift(random.Random(4), 4, 4)]
    broken = list(random_products())
    flagged = set()
    for a in algebras + broken:
        report = assert_lemma_suite_matches_oracle(a)
        flagged.update(v.check for v in report.violations)
        assert report.ok == (a not in broken)
    assert flagged.issuperset(LINEAR_IN_LAST)


def axiom_oracle(a):
    """verify_axioms as a loop over every basis tuple, recording by hand:
    (ok, [(check, where, dense residual)] in run order, counts items)."""
    n, t, brackets = a.dim, a.table, a.g.table
    counts = {"left_commute": 0, "right_commute": 0, "compat": 0}
    violations = []

    def record(check, where, residual):
        counts[check] += 1
        if residual:
            violations.append((check, where, tuple(residual.get(m, QQ(0)) for m in range(n))))

    for i in range(n):
        for j in range(i + 1, n):
            record("compat", (i, j), compat_residual(t, brackets, i, j))
            for k in range(n):
                record("left_commute", (i, j, k), lr1_residual(t, i, j, k))
                record("right_commute", (k, i, j), lr2_residual(t, k, i, j))
    return not violations, violations, list(counts.items())


def assert_verify_axioms_matches_oracle(a):
    report = verify_axioms(a)
    got = [(v.check, v.where, v.residual) for v in report.violations]
    assert (report.ok, got, list(report.counts.items())) == axiom_oracle(a)
    assert all(type(c) is QQ for v in report.violations for c in v.residual)
    return report


def test_verify_axioms_matches_per_triple_oracle():
    """verify_axioms evaluates LR1 and LR2 only where a table key names an
    inner product and counts the other triples in bulk; its whole report
    must equal the per-triple loop's, and lr_from_table must raise the
    typed violation of the report's first entry."""
    rng = random.Random(11)
    algebras = catalog_samples() + [free3_lr(3), free3_lr(4), free4_two_gen_lr()]
    algebras += [seeded_filiform(rng, n) for n in range(4, 10) for _ in range(3)]
    algebras += [seeded_lift(rng, 1 + k % 4, 1 + k // 4) for k in range(16)]
    broken = list(random_products())
    raisers = {"left_commute": LR1Violation, "right_commute": LR2Violation}
    for a in algebras + broken:
        report = assert_verify_axioms_matches_oracle(a)
        assert report.ok == (a not in broken)
        n = a.dim
        entries = [
            (i + 1, j + 1, tuple(v.get(m, QQ(0)) for m in range(n)))
            for (i, j), v in a.table.items()
        ]
        if report.ok:
            assert lr_from_table(a.g, entries) == a
            continue
        first = report.violations[0]
        with pytest.raises(raisers.get(first.check, CompatViolation)) as err:
            lr_from_table(a.g, entries)
        assert err.value.residual == first.residual
        assert getattr(err.value, "triple", getattr(err.value, "pair", None)) == first.where


SMALL_RATIONALS = st.sampled_from([QQ(-2), QQ(-1), QQ(1, 2), QQ(1), QQ(3)])


@st.composite
def sparse_product_tables(draw):
    """A product on r2, n3 or n4 with a few nonzero components; some keys
    hold an explicit empty vector, which the trusting constructor allows."""
    g = draw(st.sampled_from([lie_r2, lie_n3, lie_n4]))()
    index = st.integers(0, g.dim - 1)
    keys = draw(st.lists(st.tuples(index, index), unique=True, max_size=8))
    table = {k: draw(st.dictionaries(index, SMALL_RATIONALS, max_size=2)) for k in keys}
    return LRAlgebra(g, table)


@settings(max_examples=60, deadline=None)
@given(sparse_product_tables())
def test_checks_on_sparse_tables_match_per_triple_oracles(a):
    assert_verify_axioms_matches_oracle(a)
    assert_lemma_suite_matches_oracle(a)


def test_generic_residual_must_be_linear():
    t0, t1 = Polynomial.variable(0), Polynomial.variable(1)
    assert at_basis(2, {1: t0 * QQ(3) + t1, 0: -t1}) == [{1: 3}, {1: 1, 0: -1}]
    for bad in (t0 * t1, t0 * t0, Polynomial.constant(2), t1 + Polynomial.constant(1)):
        with pytest.raises(RuntimeError):
            at_basis(2, {0: t0, 1: bad})


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
