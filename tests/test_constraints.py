"""Polynomial constraint systems for product existence.

The variable x[i][j][k] is the coefficient of e_j in e_i . e_k.  A
product tensor solves the generated system exactly when it is an LR
product compatible with the bracket, so every test here leans on the
known catalog structures as ground truth: generated rows, added
structural rows, elimination expressions, and residuals must all
annihilate them.
"""

import hashlib
import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg.catalog import (
    catalog_get,
    counterexample_g13,
    lie_n3,
    lie_n3_plus_line,
    lie_n4,
    lie_r2,
)
from lralg.constraints import (
    STRUCTURAL_RULES,
    ConstraintError,
    ConstraintSystem,
    IncompleteAssignment,
    assignment_from_lr,
    buchberger_certify,
    evaluate_candidate,
    generate_lr_system,
    iso_search,
    lr_fingerprint,
    structural_reduce,
)
from lralg.constraints import _substitute_affine, _zero_forms, x_index
from lralg.constructions import free3_lie, free3_lr, free4_two_gen_lie
from lralg.fileformat import format_system
from lralg.lie import abelian_lie, lie_from_table
from lralg.lr import LRAlgebra, lr_from_table
from lralg.poly import Polynomial


def test_variable_indexing_round_trip():
    s = generate_lr_system(lie_n3())
    assert s.nvars == 27
    for v in range(s.nvars):
        i, j, k = s.var_triple(v)
        assert s.var_index(i, j, k) == v
    assert s.var_name(0) == "x[1][1][1]"
    assert s.var_name(26) == "x[3][3][3]"


def test_generated_counts():
    for g in (lie_r2(), lie_n3(), lie_n4()):
        n = g.dim
        s = generate_lr_system(g)
        by_tag = {}
        for t in s.tags:
            by_tag[t] = by_tag.get(t, 0) + 1
        # compatibility rows never degenerate: one per pair and coordinate
        assert by_tag["compatibility"] == n * n * (n - 1) // 2
        assert by_tag.get("left_commute", 0) <= n * n * n * (n - 1) // 2
        assert by_tag.get("right_commute", 0) <= n * n * n * (n - 1) // 2
        assert len(s.polys) == len(s.tags)


def test_n3_system_size_is_pinned():
    s = generate_lr_system(lie_n3())
    assert len(s.polys) == 63
    assert s.used_variables() == set(range(27))


def test_catalog_solutions_satisfy_generated_systems():
    cases = [
        ("r2/A1", {}),
        ("r2/A2", {}),
        ("n3/A2", {"beta": QQ(1, 2)}),
        ("n4/A1", {"alpha": 3}),
        ("n3_r/A13", {"alpha": QQ(-1, 2)}),
    ]
    for key, params in cases:
        a = catalog_get(key, params)
        s = generate_lr_system(a.g)
        assert evaluate_candidate(s, a) == [], key


def test_invalid_candidate_produces_residuals():
    g = lie_n3()
    s = generate_lr_system(g)
    bad = lr_from_table(g, [(1, 1, (1, 0, 0))], validate=False)
    offenders = evaluate_candidate(s, bad)
    assert offenders
    tags = {t for _, t, _ in offenders}
    assert "compatibility" in tags
    for idx, tag, value in offenders:
        assert s.tags[idx] == tag
        assert value != 0


def test_evaluate_candidate_input_validation():
    s = generate_lr_system(lie_n3())
    other = lr_from_table(abelian_lie(3), [])
    with pytest.raises(ConstraintError):
        evaluate_candidate(s, other)
    with pytest.raises(IncompleteAssignment):
        evaluate_candidate(s, {0: QQ(1)})


def oracle_lr_system(g):
    """generate_lr_system as first written: every row summed in Fractions
    through Polynomial's own constructor."""
    n = g.dim
    polys, tags = [], []

    def add(tag, terms):
        p = Polynomial(terms)
        if not p.is_zero():
            polys.append(p)
            tags.append(tag)

    left = [[[x_index(n, i, a, m) for m in range(n)] for a in range(n)] for i in range(n)]
    right = [[[x_index(n, m, a, i) for m in range(n)] for a in range(n)] for i in range(n)]
    one, minus_one = QQ(1), QQ(-1)

    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                terms = {((left[i][k][j], 1),): one, ((left[j][k][i], 1),): minus_one}
                c = cij.get(k, QQ(0))
                if c:
                    terms[()] = -c
                add("compatibility", terms)

    def q(v1, v2):
        return ((v1, 2),) if v1 == v2 else tuple(sorted(((v1, 1), (v2, 1))))

    for tag, ops in (("left_commute", left), ("right_commute", right)):
        for i in range(n):
            for j in range(i + 1, n):
                oi, oj = ops[i], ops[j]
                for a in range(n):
                    for b in range(n):
                        terms = {}
                        for m in range(n):
                            for mono, sign in (
                                (q(oi[a][m], oj[m][b]), one),
                                (q(oj[a][m], oi[m][b]), minus_one),
                            ):
                                s = terms.get(mono, QQ(0)) + sign
                                if s:
                                    terms[mono] = s
                                else:
                                    terms.pop(mono, None)
                        add(tag, terms)
    return polys, tags


@pytest.mark.parametrize(
    "base",
    [lie_r2, lie_n3, lie_n4, lie_n3_plus_line, lambda: free3_lie(3), free4_two_gen_lie],
    ids=["r2", "n3", "n4", "n3r", "free3_3", "free4_2gen"],
)
def test_generated_system_matches_the_fraction_oracle(base):
    g = base()
    s = generate_lr_system(g)
    want_polys, want_tags = oracle_lr_system(g)
    assert s.tags == want_tags
    assert len(s.polys) == len(want_polys)
    for got, want in zip(s.polys, want_polys):
        # the order of the terms is pinned too: it is the order of the file
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is QQ for c in got.terms.values())


# sha256 of the tags, then the rows in system-file text, of
# generate_lr_system(counterexample_g13()): the body of the raw g13 file.
G13_SYSTEM_SHA256 = "af1e40bba924ed4391faa584eb5ca50f7023bfc6049e7f38cbe34f5fd968184c"


def test_g13_system_is_pinned():
    s = generate_lr_system(counterexample_g13())
    text = "\n".join(s.tags) + "\n" + format_system(13, s.polys)
    assert hashlib.sha256(text.encode()).hexdigest() == G13_SYSTEM_SHA256


def test_assignment_from_lr_reads_the_tensor():
    a = catalog_get("n3/A3")
    s = generate_lr_system(a.g)
    asg = assignment_from_lr(a)
    assert len(asg) == 27
    # e1.e2 = e3/2 lives at x[1][3][2]
    assert asg[s.var_index(0, 2, 1)] == QQ(1, 2)
    assert asg[s.var_index(1, 2, 0)] == QQ(-1, 2)
    assert evaluate_candidate(s, asg) == []


KNOWN_SOLUTIONS = [
    ("r2/A1", {}),
    ("r2/A2", {}),
    ("r2/A3", {}),
    ("n3/A1", {"alpha": QQ(-2)}),
    ("n3/A3", {}),
    ("n3/A4", {}),
    ("n4/A2", {}),
    ("n4/A5", {"alpha": 1}),
    ("n3_r/A8", {}),
    ("n3_r/A15", {"alpha": 2}),
]


def test_structural_rows_annihilate_known_solutions():
    by_base = {}
    for key, params in KNOWN_SOLUTIONS:
        a = catalog_get(key, params)
        sys_key = key.split("/")[0]
        if sys_key not in by_base:
            by_base[sys_key] = (generate_lr_system(a.g), [])
        by_base[sys_key][1].append((key, a))
    for sys_key, (s, instances) in by_base.items():
        red = structural_reduce(s)
        assert not red.contradiction, sys_key
        assert set(tag for tag, _ in red.added) <= set(STRUCTURAL_RULES)
        for key, a in instances:
            asg = assignment_from_lr(a)
            for tag, p in red.added:
                assert p.evaluate(asg) == 0, (key, tag)
            for v, expr in red.eliminated.items():
                assert expr.evaluate(asg) == asg[v], (key, s.var_name(v))
            for p in red.residual:
                assert p.evaluate(asg) == 0, key


def test_reduction_expand_round_trip():
    a = catalog_get("n3/A2", {"beta": QQ(3)})
    s = generate_lr_system(a.g)
    red = structural_reduce(s)
    asg = assignment_from_lr(a)
    free = {v: asg[v] for v in red.free_variables()}
    rebuilt = red.expand(free)
    for v in s.used_variables():
        assert rebuilt[v] == asg[v], s.var_name(v)


def test_reduction_reports_consistent_stats():
    s = generate_lr_system(lie_n4())
    red = structural_reduce(s)
    assert red.eliminated_count == red.stats["eliminated"]
    assert len(red.residual) == red.stats["residual"]
    assert red.stats["added_rows"] == len(red.added)
    assert red.stats["rounds"] >= 1
    assert not red.contradiction
    # forced-zero variables are a subset of the eliminated ones
    for v in red.forced_zero():
        assert red.eliminated[v] == Polynomial.zero()


@pytest.mark.parametrize("mono", [((1, 2), (4, 1)), ((4, 3),)])
def test_structural_reduce_rejects_degree_above_two(mono):
    cubic = Polynomial({mono: QQ(1)}) + Polynomial.variable(2)
    system = ConstraintSystem(
        lie_n3(),
        [Polynomial.variable(0) - Polynomial.constant(1), cubic],
        ["compatibility", "hand_built"],
    )
    with pytest.raises(ConstraintError, match=r"constraint 1 \(hand_built\) has degree 3"):
        structural_reduce(system)


NVARS = 6
NONZERO = st.fractions(-3, 3, max_denominator=3).filter(bool)


@st.composite
def affine_tables(draw):
    """An elimination table over variables 0..5, as finalize leaves it:
    each eliminated variable maps to an affine form in the free ones.
    Variable 0 is always free; a form is 0, a nonzero constant, one free
    variable with or without a constant, or any affine form."""
    kinds = [draw(st.sampled_from(["free", "zero", "constant", "one", "affine"]))
             for _ in range(NVARS - 1)]
    free = [0] + [v for v, k in enumerate(kinds, 1) if k == "free"]
    table = {}
    for v, kind in enumerate(kinds, 1):
        if kind == "zero":
            table[v] = ({}, QQ(0))
        elif kind == "constant":
            table[v] = ({}, draw(NONZERO))
        elif kind == "one":
            table[v] = ({draw(st.sampled_from(free)): draw(NONZERO)},
                        draw(st.sampled_from([QQ(0), QQ(1), QQ(-2, 3)])))
        elif kind == "affine":
            coeffs = draw(st.dictionaries(st.sampled_from(free), NONZERO))
            table[v] = (coeffs, draw(NONZERO | st.just(QQ(0))))
    return table


@st.composite
def quadratics(draw):
    """A polynomial of degree <= 2 over variables 0..5: constants, linear
    terms, squares and products of two distinct variables."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        picked = draw(st.lists(st.integers(0, NVARS - 1), max_size=2))
        exps = {}
        for v in picked:
            exps[v] = exps.get(v, 0) + 1
        terms[tuple(sorted(exps.items()))] = draw(NONZERO)
    return Polynomial(terms)


def oracle_substitute(p, table):
    """Each eliminated variable replaced by its affine Polynomial, and the
    result multiplied out with Polynomial arithmetic."""
    out = Polynomial.zero()
    for mono, c in p.terms.items():
        term = Polynomial.constant(c)
        for v, e in mono:
            factor = Polynomial.linear(*table[v]) if v in table else Polynomial.variable(v)
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


@settings(max_examples=300, deadline=None)
@given(affine_tables(), quadratics())
def test_substitute_affine_matches_polynomial_arithmetic(table, p):
    got = _substitute_affine(p, table, _zero_forms(table))
    assert got.terms == oracle_substitute(p, table).terms


# sha256 of the tags, then the rows in system-file text, of
# structural_reduce(generate_lr_system(g)).added: pins every row, its
# order, tag and sign.
ADDED_ROWS_SHA256 = [
    (lie_r2, "8095362b016c091032852b956d20de9a447a61d82b75484717f2ee4f3e2981cc"),
    (lie_n3, "d42451d29a886431c11408d4c1c9685c3b2b315b3c9f57b975494cae35754c94"),
    (lie_n4, "60aede557e1bf2a77f21192b17bf0d738675a7ed512681cde7775140da1b419c"),
    (
        lie_n3_plus_line,
        "46d81003c29110a38c08f236822c920caa1a0bcf26dea9348c8f0ec2d519499a",
    ),
]


@pytest.mark.parametrize("base, digest", ADDED_ROWS_SHA256)
def test_added_rows_are_pinned(base, digest):
    g = base()
    red = structural_reduce(generate_lr_system(g))
    text = "\n".join(t for t, _ in red.added) + "\n"
    text += format_system(g.dim, [p for _, p in red.added])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of repr(trace), and the stats without "elapsed", of
# buchberger_certify on raw or reduced systems under the solve defaults:
# pins which S-pair is taken when and what it reduced to.
CERTIFY_TRACES = [
    (
        lie_r2,
        False,
        "5516ebbd5cf9534758f13e7d2e6d2ee5d0c3d25fa4e4c7976cf5ff6c0e64a4f0",
        9, 6, 2,
    ),
    (
        lie_n3,
        False,
        "e088d206d001a28576bbb777662fd11ad0f698da4eb094a2b64c12bfd6454783",
        113, 95, 3,
    ),
    (
        lie_n3,
        True,
        "a345cb65ea4ed561283e1c87c4c6c00d9149fb52fdd2e6af19570fa578e4f13f",
        23, 19, 3,
    ),
    (
        lie_n4,
        True,
        "47b1ba7a226b172975fdec5051ad968c24927650b28a669fb2b6a6a20e6d1dda",
        54, 42, 6,
    ),
]


@pytest.mark.parametrize("base, reduced, digest, pairs, zeros, degree", CERTIFY_TRACES)
def test_certify_traces_are_pinned(base, reduced, digest, pairs, zeros, degree):
    system = generate_lr_system(base())
    res = buchberger_certify(
        structural_reduce(system) if reduced else system,
        max_basis_size=2000,
        time_budget=600.0,
    )
    assert res.status == "solutions_may_exist"
    assert hashlib.sha256(repr(res.trace).encode()).hexdigest() == digest
    stats = {k: v for k, v in res.groebner.stats.items() if k != "elapsed"}
    assert stats == {
        "pairs_processed": pairs,
        "zero_reductions": zeros,
        "max_degree_seen": degree,
    }


def test_certify_toy_contradiction():
    x = Polynomial.variable(0)
    one = Polynomial.constant(1)
    res = buchberger_certify([x * x, x - one])
    assert res.status == "inconsistent"
    assert res.certified_unsolvable
    assert res.trace
    assert res.trace[-1][-1] == "1"


def test_certify_catalog_systems_stay_open():
    for g in (lie_r2(), lie_n3()):
        s = generate_lr_system(g)
        red = structural_reduce(s)
        res = buchberger_certify(red, time_budget=60.0)
        assert res.status == "solutions_may_exist", g.dim
        assert not res.certified_unsolvable


def test_certify_budget_exhaustion_reported():
    s = generate_lr_system(lie_n3())
    res = buchberger_certify(s, max_basis_size=1)
    assert res.status == "budget_exhausted"
    assert not res.certified_unsolvable


def test_fingerprint_is_basis_independent_data():
    a = catalog_get("n3/A1", {"alpha": 2})
    f = lr_fingerprint(a)
    assert f["dim"] == 3
    assert f["complete"] is True
    assert f["lower_central_dims"] == (3, 1, 0)
    # same algebra, same fingerprint
    assert lr_fingerprint(a) == f


def test_iso_search_finds_self():
    a = catalog_get("n3/A3")
    r = iso_search(a, a)
    assert r.status == "found"
    assert r.transform is not None
    assert r.transform.rank() == a.dim


def test_iso_search_finds_nontrivial_transform():
    # same product pushed through the basis change e3 -> -e3
    g2 = lie_from_table(3, [(1, 2, (0, 0, -1))])
    half = QQ(1, 2)
    a2 = lr_from_table(g2, [(1, 2, (0, 0, -half)), (2, 1, (0, 0, half))])
    a1 = catalog_get("n3/A3")
    r = iso_search(a1, a2)
    assert r.status == "found"
    t = r.transform
    for i in range(3):
        for j in range(3):
            prod1 = tuple(a1.product_basis(i, j).get(k, QQ(0)) for k in range(3))
            assert t.apply(prod1) == a2.product(t.column(i), t.column(j))


def test_iso_search_distinguishes_by_invariant():
    r = iso_search(catalog_get("r2/A1"), catalog_get("r2/A2"))
    assert r.status == "distinguished"
    assert r.invariant == "complete"
    r = iso_search(catalog_get("r2/A1"), catalog_get("r2/A3"))
    assert r.status == "distinguished"
    assert r.invariant == "product_span_dims"


def test_iso_search_certificate_separates_equal_fingerprints():
    a2 = catalog_get("n3/A1", {"alpha": 2})
    a3 = catalog_get("n3/A1", {"alpha": 3})
    assert lr_fingerprint(a2) == lr_fingerprint(a3)
    r = iso_search(a2, a3)
    assert r.status == "distinguished"
    assert r.invariant == "no_invertible_product_isomorphism"


def test_iso_search_undecided_in_high_dimension():
    a = free3_lr(2)
    r = iso_search(a, a)
    assert r.status == "undecided"
