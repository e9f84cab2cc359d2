"""Acceptance suite: eleven numbered criteria, one test each.

Every test performs its criterion's checks with exact arithmetic (the
stated tolerance is exact equality unless a runtime budget is named),
then records a single PASS line including measured runtimes where a
budget applies.  The closing summary test fails if any criterion did
not record a PASS, so a red criterion shows up twice: once as its own
failed test and once in the summary.

Run the whole module; the summary skips itself when invoked alone.
"""

import functools
import random
import time
from fractions import Fraction as QQ

import pytest

from lralg.catalog import (
    catalog_entry,
    catalog_get,
    catalog_list,
    catalog_verify,
    counterexample_g13,
    lie_n3,
    lie_n3_plus_line,
    lie_n4,
    lie_r2,
    sample_params,
)
from lralg.constraints import (
    assignment_from_lr,
    buchberger_certify,
    generate_lr_system,
    structural_reduce,
)
from lralg.constructions import (
    FiliformSpec,
    filiform_lr,
    free3_dimension,
    free3_lie,
    free3_lr,
    free4_two_gen_lr,
    free_two_step_lie,
    halved_adjoint_lr,
)
from lralg.extensions import (
    CONDITION_NAMES,
    ExtensionData,
    HypothesisFailed,
    LiftData,
    extension_lie_algebra,
    invertible_generator_lift,
    lift_product,
    lift_product_tensor,
    random_abelian_extension,
    semidirect_lr,
    verify_lift_conditions,
)
from lralg.lie import (
    abelian_lie,
    derived_series,
    is_two_step_solvable,
    lower_central_series,
    upper_central_series,
)
from lralg.linalg import Matrix
from lralg.lr import LRAlgebra, lemma_suite, lr_from_table, verify_axioms
from lralg.poly import Polynomial

RESULTS: dict[int, str] = {}


def record(num, detail: str) -> None:
    RESULTS[num] = detail
    print(f"criterion {num:>2}: PASS  {detail}")


def all_catalog_instances():
    for key in catalog_list():
        entry = catalog_entry(key)
        for params in sample_params(entry):
            yield key, params, catalog_get(key, params)


# ---------------------------------------------------------------------------
# 1. catalog verification


def test_criterion_01_catalog_verification_under_10s():
    t0 = time.perf_counter()
    count = 0
    for key, params, a in all_catalog_instances():
        report = verify_axioms(a)
        assert report.ok, (key, params, report.violations[:3])
        count += 1
    results = catalog_verify()
    elapsed = time.perf_counter() - t0
    assert count == 86
    assert all(r["ok"] for r in results.values())
    assert sum(r["instances"] for r in results.values()) == 86

    incomplete = {k for k in catalog_list() if not catalog_entry(k).complete}
    assert incomplete == {"r2/A1", "r2/A3", "n3/A4", "n4/A6"}
    assert all(
        catalog_entry(k).complete for k in catalog_list() if k.startswith("n3_r/")
    )
    assert elapsed < 10.0, f"catalog verification took {elapsed:.2f}s"
    record(
        1,
        f"86 instances, zero residual, completeness flags exact; "
        f"{elapsed:.2f}s < 10s budget",
    )


# ---------------------------------------------------------------------------
# 2. lemma suite and two-step solvability


def constructed_structures():
    rng = random.Random(20230)
    out = []
    for n in range(4, 7):
        row = [
            QQ(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(max(0, n - 4))
        ]
        out.append((f"filiform{n}", filiform_lr(FiliformSpec.from_free_row(n, row))))
    for label, g in [
        ("halfad n3", lie_n3()),
        ("halfad n3+line", lie_n3_plus_line()),
        ("halfad free2step2", free_two_step_lie(2)),
        ("halfad free2step3", free_two_step_lie(3)),
        ("halfad free2step4", free_two_step_lie(4)),
    ]:
        out.append((label, halved_adjoint_lr(g)))
    out.append(("free3 2gen", free3_lr(2)))
    out.append(("free3 3gen", free3_lr(3)))
    out.append(("free4 2gen", free4_two_gen_lr()))
    return out


def test_criterion_02_lemma_suite_everywhere():
    t0 = time.perf_counter()
    checked = 0
    for key, params, a in all_catalog_instances():
        report = lemma_suite(a)
        assert report.ok, (key, params, report.violations[:3])
        assert is_two_step_solvable(a.g), (key, params)
        checked += 1
    for label, a in constructed_structures():
        report = lemma_suite(a)
        assert report.ok, (label, report.violations[:3])
        assert is_two_step_solvable(a.g), label
        checked += 1
    elapsed = time.perf_counter() - t0
    record(
        2,
        f"lemma suite exact on {checked} structures (86 catalog + "
        f"{checked - 86} constructed); second derived always zero; "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. filiform family


def test_criterion_03_filiform_random_coefficients_under_30s():
    rng = random.Random(40902)
    t0 = time.perf_counter()
    instances = 0
    for n in range(4, 10):
        for _ in range(10):
            row = [
                QQ(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(max(0, n - 4))
            ]
            a = filiform_lr(FiliformSpec.from_free_row(n, row))
            assert verify_axioms(a).ok, (n, row)
            assert a.complete, (n, row)
            g = a.g
            ad1 = g.ad_basis(0)
            ad2 = g.ad_basis(1)
            assert a.right_mult_basis(0) == ad1.scale(-1), (n, row)
            assert a.right_mult_basis(1) == Matrix.zero(n, n), (n, row)
            for i in range(3, n + 1):
                assert a.right_mult_basis(i - 1) == ad2 @ ad1.power(i - 2), (
                    n,
                    row,
                    i,
                )
            instances += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"filiform sweep took {elapsed:.2f}s"
    record(
        3,
        f"n=4..9, 10 random coefficient sets each ({instances} instances), "
        f"axioms + completeness + exact right-multiplication identities; "
        f"{elapsed:.2f}s < 30s budget",
    )


# ---------------------------------------------------------------------------
# 4. halved bracket product


def test_criterion_04_halved_adjoint_cases():
    cases = [
        ("n3", lie_n3()),
        ("n3+line", lie_n3_plus_line()),
        ("free2step2", free_two_step_lie(2)),
        ("free2step3", free_two_step_lie(3)),
        ("free2step4", free_two_step_lie(4)),
    ]
    for label, g in cases:
        a = halved_adjoint_lr(g)
        assert verify_axioms(a).ok, label
        assert a.complete, label

    a = halved_adjoint_lr(lie_n3())
    ref = catalog_get("n3/A3")
    assert a == ref
    for i in range(3):
        for j in range(3):
            assert a.product_basis(i, j) == ref.product_basis(i, j), (i, j)
    record(
        4,
        "axioms + completeness on n3, n3+line, free 2-step with 2..4 "
        "generators; n3 case matches the catalog A3 tensor exactly",
    )


# ---------------------------------------------------------------------------
# 5. free two-step solvable family

# three-generator tables, 1-based indices, absent entries are zero
FREE3_BRACKETS = {
    (1, 2): {4: 1},
    (1, 3): {5: 1},
    (2, 3): {6: 1},
    (1, 4): {7: 1},
    (2, 4): {8: 1},
    (3, 4): {9: 1},
    (1, 5): {10: 1},
    (2, 5): {11: 1},
    (3, 5): {12: 1},
    (1, 6): {11: 1, 9: -1},
    (2, 6): {13: 1},
    (3, 6): {14: 1},
}
FREE3_PRODUCTS = {
    (2, 1): {4: -1},
    (2, 4): {8: 1},
    (2, 5): {9: 1},
    (3, 1): {5: -1},
    (3, 2): {6: -1},
    (3, 4): {9: 1},
    (3, 5): {12: 1},
    (3, 6): {14: 1},
    (4, 1): {7: -1},
    (5, 1): {10: -1},
    (5, 2): {9: 1, 11: -1},
    (6, 1): {9: 1, 11: -1},
    (6, 2): {13: -1},
}


def test_criterion_05_free3_dimensions_and_tables():
    dims = [free3_dimension(n) for n in range(2, 6)]
    assert dims == [5, 14, 30, 55]
    for n, expected in zip(range(2, 6), dims):
        assert free3_lie(n).dim == expected
        a = free3_lr(n)
        assert a.dim == expected
        assert verify_axioms(a).ok, n
        assert a.complete, n

    a = free3_lr(3)
    g = a.g
    for i in range(1, 15):
        for j in range(i + 1, 15):
            want = {k - 1: QQ(v) for k, v in FREE3_BRACKETS.get((i, j), {}).items()}
            assert g.bracket_basis(i - 1, j - 1) == want, (i, j)
    for i in range(1, 15):
        for j in range(1, 15):
            want = {k - 1: QQ(v) for k, v in FREE3_PRODUCTS.get((i, j), {}).items()}
            assert a.product_basis(i - 1, j - 1) == want, (i, j)
    record(
        5,
        "dimensions 5, 14, 30, 55 for 2..5 generators with axioms and "
        "completeness; 3-generator bracket and product tables match "
        "entry for entry",
    )


# ---------------------------------------------------------------------------
# 6. free four-step example on two generators


def test_criterion_06_free4_two_generators():
    a = free4_two_gen_lr()
    g = a.g
    assert a.dim == 8
    assert lower_central_series(g).dims() == (8, 6, 5, 3, 0)  # class four
    assert verify_axioms(a).ok
    assert a.complete
    zero = Matrix.zero(8, 8)
    for i in (5, 6, 7):
        assert a.left_mult_basis(i) == zero, i
    ad1 = g.ad_basis(0)
    ad2 = g.ad_basis(1)
    first = ad2 @ ad1 @ ad1 @ ad2
    second = ad1 @ ad2 @ ad1 @ ad2
    assert first == second
    assert first == a.left_mult_basis(6)
    record(
        6,
        "dim 8, class 4, axioms, complete; L(x6)=L(x7)=L(x8)=0 and the "
        "two word expressions for L(x7) agree exactly",
    )


# ---------------------------------------------------------------------------
# 7. constraint systems under the two-dimensional and Heisenberg ansatz


def test_criterion_07a_r2_ansatz_leaves_single_relation():
    system = generate_lr_system(lie_r2())
    idx = system.var_index
    P = Polynomial
    alpha, beta, gamma = P.variable(8), P.variable(9), P.variable(10)
    zero, one = P.constant(0), P.constant(1)
    subs = {
        idx(0, 0, 0): alpha,
        idx(0, 0, 1): beta,
        idx(0, 1, 0): zero,
        idx(0, 1, 1): zero,
        idx(1, 0, 0): beta - one,
        idx(1, 0, 1): gamma,
        idx(1, 1, 0): zero,
        idx(1, 1, 1): zero,
    }
    residuals = [
        r for r in (p.substitute(subs) for p in system.polys) if not r.is_zero()
    ]
    target = alpha * gamma - beta * beta + beta
    assert len(residuals) == 2
    assert all(r == target or r == target.scale(-1) for r in residuals)

    rng = random.Random(7001)
    # relation point -> residuals vanish (20 points)
    hits = 0
    while hits < 20:
        b = QQ(rng.randint(-6, 6), rng.randint(1, 4))
        c = QQ(rng.randint(-6, 6), rng.randint(1, 4))
        if c == 0:
            continue
        point = {8: (b * b - b) / c, 9: b, 10: c}
        assert target.evaluate(point) == 0
        for r in residuals:
            assert r.evaluate(point) == 0
        hits += 1
    # residual point -> relation vanishes (20 points per residual);
    # each residual is linear in gamma, so solve for it directly
    for r in residuals:
        hits = 0
        while hits < 20:
            a = QQ(rng.randint(-6, 6), rng.randint(1, 4))
            b = QQ(rng.randint(-6, 6), rng.randint(1, 4))
            c0 = r.evaluate({8: a, 9: b, 10: QQ(0)})
            c1 = r.evaluate({8: a, 9: b, 10: QQ(1)}) - c0
            if c1 == 0:
                continue
            point = {8: a, 9: b, 10: -c0 / c1}
            assert r.evaluate(point) == 0
            assert target.evaluate(point) == 0
            hits += 1
    record(
        "7a",
        "two nonzero residuals, both equal to alpha*gamma - beta*(beta-1) "
        "up to sign; 20-point evaluation equivalence in each direction",
    )


def test_criterion_07b_n3_ansatz_matches_five_equations():
    system = generate_lr_system(lie_n3())
    idx = system.var_index
    P = Polynomial
    pa, pb, pg, pd = (P.variable(27 + t) for t in range(4))
    pl, pm, pn = (P.variable(31 + t) for t in range(3))
    zero, one = P.constant(0), P.constant(1)
    lmats = [
        [[zero, zero, zero], [pa, pg, zero], [pb, pd, pg]],
        [[zero, pl, zero], [pg, pm, zero], [pd - one, pn, pm]],
        [[zero, zero, zero], [zero, zero, zero], [pg, pm, zero]],
    ]
    subs = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                subs[idx(i, j, k)] = lmats[i][j][k]
    residuals = [
        r for r in (p.substitute(subs) for p in system.polys) if not r.is_zero()
    ]
    assert residuals
    five = [
        pa * pl,
        pg * pl,
        pg * pg - pa * pm,
        pg * (pd.scale(2) - one) - pa * pn - pb * pm,
        pb * pl,
    ]

    rng = random.Random(7002)
    agreeing_zero = 0
    for _ in range(100):
        vals = {
            27 + t: QQ(rng.randint(-6, 6), rng.randint(1, 4)) for t in range(7)
        }
        res_zero = all(r.evaluate(vals) == 0 for r in residuals)
        eq_zero = all(q.evaluate(vals) == 0 for q in five)
        assert res_zero == eq_zero, vals
        if res_zero:
            agreeing_zero += 1
    # points chosen on the solution set so the zero side is exercised too
    for _ in range(30):
        a = QQ(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1))
        b = QQ(rng.randint(-5, 5))
        c = QQ(rng.randint(-5, 5))
        d = QQ(rng.randint(-5, 5), rng.randint(1, 3))
        m = c * c / a
        n = (c * (2 * d - 1) - b * m) / a
        vals = {27: a, 28: b, 29: c, 30: d, 31: QQ(0), 32: m, 33: n}
        assert all(q.evaluate(vals) == 0 for q in five)
        assert all(r.evaluate(vals) == 0 for r in residuals)
        agreeing_zero += 1
    record(
        "7b",
        f"substituted system ({len(residuals)} nonzero residuals) and the "
        f"five recorded equations share zero sets at 100 random points "
        f"plus {agreeing_zero} on-variety points",
    )


def test_criterion_07c_g13_variable_count():
    system = generate_lr_system(counterexample_g13())
    assert system.nvars == 2197
    record("7c", "13-dimensional counterexample system has exactly 2197 variables")


# ---------------------------------------------------------------------------
# 8. structural reduction soundness


@functools.lru_cache(maxsize=1)
def g13_reduction():
    system = generate_lr_system(counterexample_g13())
    return system, structural_reduce(system)


def test_criterion_08_structural_reduce_soundness():
    bases = [
        ("r2/", lie_r2()),
        ("n3/", lie_n3()),
        ("n4/", lie_n4()),
        ("n3_r/", lie_n3_plus_line()),
    ]
    solutions_checked = 0
    for prefix, g in bases:
        system = generate_lr_system(g)
        red = structural_reduce(system)
        constraints = [p for _, p in red.added]
        constraints += list(red.residual)
        constraints += [
            Polynomial.variable(v) - expr for v, expr in red.eliminated.items()
        ]
        for key in catalog_list():
            if not key.startswith(prefix):
                continue
            for params in sample_params(catalog_entry(key)):
                a = catalog_get(key, params)
                assert a.g == g, key
                assign = assignment_from_lr(a)
                for c in constraints:
                    assert c.evaluate(assign) == 0, (key, params)
                solutions_checked += 1
    assert solutions_checked == 86

    _, red = g13_reduction()
    assert red.stats["added_rows"] == 30721
    by_tag: dict[str, int] = {}
    for tag, _ in red.added:
        by_tag[tag] = by_tag.get(tag, 0) + 1
    assert by_tag == {
        "bracket_product_rule_left": 6463,
        "bracket_product_rule_right": 6463,
        "left_derivation": 5265,
        "right_derivation": 5265,
        "series_product_grading": 2143,
        "left_preserves_lower_central": 988,
        "right_preserves_lower_central": 988,
        "left_preserves_upper_central": 988,
        "right_preserves_upper_central": 988,
        "center_kills_derived_left": 585,
        "center_kills_derived_right": 585,
    }
    assert red.eliminated_count > 1000
    assert red.eliminated_count == 2139  # recorded implementation constant
    assert red.contradiction
    record(
        8,
        f"all reduction output annihilates all 86 catalog solutions; "
        f"counterexample reduction eliminates 2139 variables (recorded "
        f"constant, > 1000) and flags a linear contradiction",
    )


# ---------------------------------------------------------------------------
# 9. inconsistency certification


def random_quadratic(rng, nvars):
    p = Polynomial.constant(QQ(0))
    for _ in range(3):
        term = Polynomial.constant(QQ(rng.randint(-3, 3)))
        for _ in range(2):
            term = term * Polynomial.variable(rng.randrange(nvars))
        p = p + term
    return p


def test_criterion_09_certification_behavior():
    x = Polynomial.variable(0)
    one = Polynomial.constant(1)
    cert = buchberger_certify([x * x, x - one])
    assert cert.status == "inconsistent"

    rng = random.Random(9707)
    for trial in range(6):
        nv = rng.randint(2, 4)
        point = {v: QQ(rng.randint(-4, 4)) for v in range(nv)}
        polys = [
            Polynomial.variable(v) - Polynomial.constant(point[v])
            for v in range(nv)
        ]
        q = random_quadratic(rng, nv)
        polys.append(q - Polynomial.constant(q.evaluate(point)) + one)
        cert = buchberger_certify(polys)
        assert cert.status == "inconsistent", trial

    raw_r2 = generate_lr_system(lie_r2())
    cert = buchberger_certify(raw_r2.polys, time_budget=120.0)
    assert cert.status == "solutions_may_exist"
    for label, g in [
        ("r2", lie_r2()),
        ("n3", lie_n3()),
        ("n4", lie_n4()),
        ("n3_r", lie_n3_plus_line()),
    ]:
        red = structural_reduce(generate_lr_system(g))
        cert = buchberger_certify(red.residual, time_budget=120.0)
        assert cert.status == "solutions_may_exist", label
        assert cert.status != "inconsistent", label

    _, red = g13_reduction()
    t0 = time.perf_counter()
    cert = buchberger_certify(red.residual, time_budget=600.0)
    elapsed = time.perf_counter() - t0
    assert cert.status in ("inconsistent", "budget_exhausted"), cert.status
    assert cert.status == "inconsistent", "expected the recorded certificate"
    assert cert.trace, "certificate trace must be recorded"
    record(
        9,
        f"toy and 6 random infeasible systems certify inconsistent; raw "
        f"r2 plus all four reduced catalog-derived systems certify "
        f"solutions_may_exist; counterexample system certifies "
        f"inconsistent in {elapsed:.2f}s (600s budget)",
    )


# ---------------------------------------------------------------------------
# 10. extensions and product lifts


def lift_data_for(d, e):
    phie_inv = d.phi_of(e).inverse()
    m = d.b.dim
    units = [tuple(QQ(1) if t == i else QQ(0) for t in range(m)) for i in range(m)]
    omega = tuple(
        tuple(
            phie_inv.apply(d.phi[i].apply(d.omega_of(e, units[j])))
            for j in range(m)
        )
        for i in range(m)
    )
    return LiftData.build(d, phi2=d.phi, omega=omega)


def corrupt(l, rng, d):
    p = d.a_dim
    m = d.b.dim
    choice = rng.randrange(3)
    if choice == 0:
        i = rng.randrange(m)
        om = [list(row) for row in l.omega]
        om[i][i] = tuple(QQ(x) + 1 for x in om[i][i])
        return LiftData(
            l.phi1, l.phi2, tuple(tuple(r) for r in om), l.a_product, l.b_product
        )
    if choice == 1:
        i = rng.randrange(m)
        bumped = l.phi2[i] + Matrix.identity(p)
        phi2 = tuple(bumped if t == i else mat for t, mat in enumerate(l.phi2))
        return LiftData(l.phi1, phi2, l.omega, l.a_product, l.b_product)
    i = rng.randrange(m)
    bumped = l.phi1[i] + Matrix.identity(p).scale(2)
    phi1 = tuple(bumped if t == i else mat for t, mat in enumerate(l.phi1))
    return LiftData(phi1, l.phi2, l.omega, l.a_product, l.b_product)


def test_criterion_10_extension_lifts():
    rng = random.Random(10500)
    covered = set()
    for _ in range(50):
        d, e = random_abelian_extension(rng, rng.randint(1, 4), rng.randint(1, 4))
        a = invertible_generator_lift(d, e)
        assert verify_axioms(a).ok
        l = lift_data_for(d, e)
        report = verify_lift_conditions(d, l)
        assert report.ok
        covered |= {name for name, c in report.counts.items() if c > 0}
        assert lift_product(d, l) == a
    assert covered >= set(CONDITION_NAMES)

    valid = broken = 0
    for trial in range(50):
        d, e = random_abelian_extension(rng, rng.randint(1, 3), rng.randint(2, 3))
        l = lift_data_for(d, e)
        if trial % 2:
            l = corrupt(l, rng, d)
        conditions_ok = verify_lift_conditions(d, l).ok
        candidate = LRAlgebra(extension_lie_algebra(d), lift_product_tensor(d, l))
        assert conditions_ok == verify_axioms(candidate).ok, trial
        if conditions_ok:
            valid += 1
        else:
            broken += 1
    assert valid >= 5 and broken >= 5

    # semidirect case: hypotheses hold
    base = lie_r2()
    b_lr = lr_from_table(base, [(1, 2, (1, 0))])
    phi = (Matrix.zero(1, 1), Matrix([[QQ(1)]]))
    zeros = tuple(tuple((QQ(0),) for _ in range(2)) for _ in range(2))
    a = semidirect_lr(ExtensionData(1, base, phi, zeros), b_lr)
    assert verify_axioms(a).ok and a.dim == 3

    # and each hypothesis violation is rejected
    omega = (((QQ(0),), (QQ(1),)), ((QQ(-1),), (QQ(0),)))
    with pytest.raises(HypothesisFailed):
        semidirect_lr(ExtensionData(1, base, phi, omega), b_lr)
    e12 = Matrix([[0, 1], [0, 0]])
    diag = Matrix([[0, 0], [0, 1]])
    zeros2 = tuple(tuple((QQ(0), QQ(0)) for _ in range(2)) for _ in range(2))
    with pytest.raises(HypothesisFailed):
        semidirect_lr(ExtensionData(2, base, (e12, diag), zeros2), b_lr)
    other = lr_from_table(abelian_lie(2), [])
    with pytest.raises(HypothesisFailed):
        semidirect_lr(ExtensionData(1, base, phi, zeros), other)
    record(
        10,
        f"50 generator lifts pass all twelve conditions and the axioms; "
        f"conditions match axioms on 50 pairs ({valid} valid, {broken} "
        f"broken); semidirect positive and negative cases behave",
    )


# ---------------------------------------------------------------------------
# 11. series oracle


def test_criterion_11_series_reference_dims():
    assert derived_series(lie_r2()).dims() == (2, 1, 0)

    n3 = lie_n3()
    assert lower_central_series(n3).dims() == (3, 1, 0)
    assert upper_central_series(n3).dims() == (1, 3)

    n4 = lie_n4()
    assert lower_central_series(n4).dims() == (4, 2, 1, 0)
    assert upper_central_series(n4).dims() == (1, 2, 4)

    g13 = counterexample_g13()
    assert lower_central_series(g13).dims() == (13, 9, 5, 0)
    assert derived_series(g13).dims() == (13, 9, 0)  # second derived zero
    record(
        11,
        "series dimensions match the hand-derived references exactly "
        "(r2, n3, n4, 13-dim counterexample)",
    )


# ---------------------------------------------------------------------------
# summary


def test_zz_all_criteria_recorded():
    if not RESULTS:
        pytest.skip("summary is meaningful only for a full-module run")
    expected = {1, 2, 3, 4, 5, 6, "7a", "7b", "7c", 8, 9, 10, 11}
    for num in sorted(RESULTS, key=str):
        print(f"criterion {num}: PASS  {RESULTS[num]}")
    missing = {k for k in expected if k not in RESULTS}
    assert not missing, f"criteria without a recorded PASS: {sorted(missing, key=str)}"
