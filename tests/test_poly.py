"""Sparse multivariate polynomials and the Groebner engine.

Order sanity, arithmetic, division, and the S-pair completion loop with
its budget handling.  The Groebner checks follow the textbook criteria:
a basis is complete exactly when every S-polynomial reduces to zero, and
an ideal contains 1 exactly when the reduced basis is [1].
"""

import random
import time
from fractions import Fraction as QQ
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg.poly import (
    MONO_KEY,
    MissingAssignment,
    PolyError,
    Polynomial,
    groebner_basis,
    ideal_membership,
    mono_compare,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_key,
    mono_mul,
    reduce_full,
    s_polynomial,
)
from lralg.poly import _heap_key as heap_key

x, y, z = (Polynomial.variable(v) for v in (0, 1, 2))
one = Polynomial.constant(1)


def mono(*pairs):
    return tuple(sorted(pairs))


def rand_poly(rng, nvars=3, nterms=4, degree=3):
    p = Polynomial.zero()
    for _ in range(nterms):
        m = []
        for v in range(nvars):
            e = rng.randint(0, degree)
            if e:
                m.append((v, e))
        coeff = QQ(rng.randint(-5, 5))
        p = p + Polynomial({mono(*m): coeff}) if coeff else p
    return p


small_polys = st.dictionaries(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 2)),
        max_size=2,
        unique_by=lambda t: t[0],
    ).map(lambda pairs: tuple(sorted(pairs))),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(Polynomial)


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-10, max_value=10, max_denominator=12), small_polys)
def test_rational_scalars_mix_with_polynomials(c, p):
    assert c * p == p * c == p.scale(c)
    assert c + p == p + Polynomial.constant(c)
    assert c - p == Polynomial.constant(c) - p
    assert bool(p) == (not p.is_zero())
    with pytest.raises(TypeError):
        0.5 * p


def test_monomial_operations():
    a = mono((0, 2), (1, 1))
    b = mono((1, 1), (2, 3))
    assert mono_mul(a, b) == mono((0, 2), (1, 2), (2, 3))
    assert mono_divides(mono((0, 1)), a)
    assert not mono_divides(b, a)
    assert mono_div(mono_mul(a, b), b) == a
    assert mono_lcm(a, b) == mono((0, 2), (1, 1), (2, 3))
    assert mono_coprime(mono((0, 1)), mono((2, 2)))
    assert not mono_coprime(a, b)


def test_monomial_order_is_graded():
    # degree first
    assert mono_compare(mono((0, 3)), mono((1, 1), (2, 1))) > 0
    # same degree: more of the smaller-id variable wins
    assert mono_compare(mono((0, 2)), mono((0, 1), (1, 1))) > 0
    assert mono_compare(mono((1, 2)), mono((0, 1), (2, 1))) < 0
    assert mono_compare(mono((0, 1)), mono((0, 1))) == 0


def oracle_compare(a, b):
    """The term order compared pairwise: degree first, then the first
    variable (lowest id) whose exponents differ decides."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ia, ib = dict(a), dict(b)
    for v in sorted(set(ia) | set(ib)):
        ea, eb = ia.get(v, 0), ib.get(v, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def sign(a, b):
    return (a > b) - (a < b)


monomials = st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=6).map(
    lambda d: tuple(sorted(d.items()))
)


@settings(max_examples=500, deadline=None)
@given(monomials, monomials)
def test_native_keys_match_the_pairwise_order(a, b):
    want = oracle_compare(a, b)
    assert sign(mono_key(a), mono_key(b)) == want
    assert mono_compare(a, b) == want
    assert sign(heap_key(a), heap_key(b)) == -want


def test_order_is_multiplicative():
    rng = random.Random(13)
    for _ in range(200):
        ms = []
        for _ in range(3):
            m = []
            for v in range(3):
                e = rng.randint(0, 3)
                if e:
                    m.append((v, e))
            ms.append(mono(*m))
        a, b, c = ms
        if mono_compare(a, b) < 0:
            assert mono_compare(mono_mul(a, c), mono_mul(b, c)) < 0


def test_polynomial_arithmetic():
    p = x * x + y.scale(2) - one
    q = x * x - y.scale(2)
    assert p + q == x.power(2).scale(2) - one
    assert p - p == Polynomial.zero()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + one).power(3) == x.power(3) + x.power(2).scale(3) + x.scale(3) + one


def test_degree_and_leading_term():
    assert Polynomial.zero().degree() == -1
    assert one.degree() == 0
    p = x * y * z + x.power(2)
    assert p.degree() == 3
    assert p.leading_monomial() == mono((0, 1), (1, 1), (2, 1))
    with pytest.raises(PolyError):
        Polynomial.zero().leading_monomial()


def test_monic_and_sorted_terms():
    p = (x * y).scale(-2) + z.scale(4)
    m = p.monic()
    assert m.leading_term()[1] == 1
    assert m == x * y - z.scale(2)
    monos = [t[0] for t in p.sorted_terms()]
    assert monos == sorted(monos, key=MONO_KEY, reverse=True)


def test_evaluate_and_missing_assignment():
    p = x * y + z.scale(3) - one
    assert p.evaluate({0: QQ(2), 1: QQ(1, 2), 2: QQ(-1)}) == QQ(-3)
    with pytest.raises(MissingAssignment):
        p.evaluate({0: QQ(1), 1: QQ(1)})
    # constants need no assignments at all
    assert one.evaluate({}) == 1


def test_substitute_matches_evaluation():
    rng = random.Random(31)
    for _ in range(20):
        p = rand_poly(rng)
        subs = {0: rand_poly(rng, nterms=2, degree=2), 2: y + one}
        q = p.substitute(subs)
        point = {v: QQ(rng.randint(-3, 3)) for v in (0, 1, 2)}
        expected = p.evaluate(
            {
                0: subs[0].evaluate(point),
                1: point[1],
                2: subs[2].evaluate(point),
            }
        )
        assert q.evaluate(point) == expected


def test_to_string_format():
    p = x.power(2).scale(3) - x * y + z - Polynomial.constant(QQ(1, 2))
    assert p.to_string() == "3 * x0^2 - x0 * x1 + x2 - 1/2"
    assert Polynomial.zero().to_string() == "0"
    assert (-x).to_string() == "-x0"


def test_reduce_full_properties():
    rng = random.Random(47)
    basis = [x * x - y, y * y - one]
    for _ in range(20):
        f = rand_poly(rng)
        r = reduce_full(f, basis)
        # no remainder monomial is divisible by a basis leading monomial
        for m in r.terms:
            for g in basis:
                assert not mono_divides(g.leading_monomial(), m)
        # f - r lies in the ideal: witness by evaluation on the variety
        # x = 1, y = 1 and x = -1, y = 1 are points of V(basis)
        for px in (QQ(1), QQ(-1)):
            pt = {0: px, 1: QQ(1), 2: QQ(5)}
            assert f.evaluate(pt) == r.evaluate(pt)


def oracle_reduce(f, basis):
    """Multivariate division by rescanning for the biggest term, with the
    first basis element whose leading monomial divides it as reducer."""
    key = cmp_to_key(oracle_compare)
    gs = [(g, max(g.terms, key=key)) for g in basis if not g.is_zero()]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        hit = next(((g, lm) for g, lm in gs if mono_divides(lm, m)), None)
        if hit is None:
            del work[m]
            remainder[m] = remainder.get(m, QQ(0)) + c
            continue
        g, lm = hit
        factor = c / g.terms[lm]
        shift = mono_div(m, lm)
        for gm, gc in g.terms.items():
            t = mono_mul(gm, shift)
            s = work.get(t, QQ(0)) - factor * gc
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return Polynomial({m: c for m, c in remainder.items() if c != 0})


division_polys = st.dictionaries(
    st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=5,
).map(Polynomial)


@st.composite
def division_bases(draw):
    """Small bases, some with a zero element and with several elements
    sharing a leading monomial (a scaled copy, or a copy without its
    smallest term)."""
    basis = draw(st.lists(division_polys, max_size=4))
    for g in [g for g in basis if g.terms]:
        if draw(st.booleans()):
            basis.append(g.scale(draw(st.sampled_from([QQ(-1), QQ(2), QQ(1, 3)]))))
        if len(g.terms) > 1 and draw(st.booleans()):
            basis.append(Polynomial(dict(g.sorted_terms()[:-1])))
    if draw(st.booleans()):
        basis.insert(draw(st.integers(0, len(basis))), Polynomial.zero())
    return draw(st.permutations(basis))


@settings(max_examples=300, deadline=None)
@given(division_polys, division_bases())
def test_reduce_full_matches_rescanning_division(f, basis):
    want = oracle_reduce(f, basis)
    got = reduce_full(f, basis)
    assert got == want
    # terms come out from the biggest down, as the rescan finds them
    assert list(got.terms) == list(want.terms)


def test_s_polynomial_cancels_leading_terms():
    f = x * x * y.scale(1) + z
    g = x * y * y - one
    s = s_polynomial(f, g)
    lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())
    if not s.is_zero():
        assert MONO_KEY(s.leading_monomial()) < MONO_KEY(lcm)


def test_groebner_trivial_cases():
    r = groebner_basis([])
    assert r.status == "complete" and r.basis == []
    r = groebner_basis([Polynomial.zero()])
    assert r.status == "complete" and r.basis == []
    r = groebner_basis([Polynomial.constant(5)])
    assert r.status == "complete"
    assert r.is_unit_ideal
    assert r.basis == [one]


def test_groebner_unit_ideal_from_contradiction():
    # x^2 and x - 1 cannot vanish together
    r = groebner_basis([x * x, x - one])
    assert r.status == "complete"
    assert r.is_unit_ideal
    assert r.basis == [one]


def test_groebner_complete_basis_reduces_all_s_pairs():
    polys = [
        x * x + y * y + z * z - one,
        x * y - z,
        x - y * z,
    ]
    r = groebner_basis(polys)
    assert r.status == "complete"
    basis = r.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce_full(s_polynomial(basis[i], basis[j]), basis).is_zero()
    # original generators lie in the ideal of the basis
    for p in polys:
        assert ideal_membership(p, basis)


def test_groebner_is_deterministic():
    polys = [x * y - z.scale(2), y * y - x, z * z - y]
    r1 = groebner_basis(polys)
    r2 = groebner_basis(list(reversed(polys)))
    assert r1.status == r2.status == "complete"
    assert set(r1.basis) == set(r2.basis)


def test_groebner_on_random_infeasible_systems():
    """Plant a point, then add a polynomial that cannot vanish there while
    the linear constraints force exactly that point."""
    rng = random.Random(71)
    for _ in range(8):
        nv = rng.randint(2, 4)
        point = {v: QQ(rng.randint(-4, 4)) for v in range(nv)}
        polys = [
            Polynomial.variable(v) - Polynomial.constant(point[v])
            for v in range(nv)
        ]
        q = rand_poly(rng, nvars=nv, nterms=3, degree=2)
        clash = q - Polynomial.constant(q.evaluate(point)) + one
        polys.append(clash)
        r = groebner_basis(polys)
        assert r.status == "complete"
        assert r.is_unit_ideal


def test_groebner_budget_paths():
    # cyclic-style generators known to need some work
    hard = [
        x + y + z,
        x * y + y * z + z * x,
        x * y * z - one,
    ]
    r = groebner_basis(hard, max_basis_size=2)
    assert r.status == "budget_exhausted"
    assert r.stats["reason"] == "basis_size"
    r = groebner_basis(hard, max_degree=1)
    assert r.status == "budget_exhausted"
    assert r.stats["reason"] == "degree"
    r = groebner_basis(hard, time_budget=0.0)
    assert r.status == "budget_exhausted"
    assert r.stats["reason"] == "time"


def test_exhausted_basis_is_monic():
    # a stopped run returns the monic inputs and remainders found so far
    gens = [2 * x + y + z, 3 * x * y + y * z + z * x, x * y * z - one]
    for budget in ({"max_basis_size": 3}, {"max_degree": 2}, {"time_budget": 0.0}):
        r = groebner_basis(gens, **budget)
        assert r.status == "budget_exhausted"
        assert len(r.basis) > (3 if "max_basis_size" in budget else 2)
        assert all(p.leading_term()[1] == 1 for p in r.basis)


def test_time_budget_covers_input_insertion():
    # 500 pairwise coprime quadratics: inserting them alone takes seconds,
    # all of it in the pair update before any S-pair is processed
    polys = [
        Polynomial.variable(2 * i) * Polynomial.variable(2 * i + 1) - one
        for i in range(500)
    ]
    t0 = time.perf_counter()
    r = groebner_basis(polys, time_budget=0.1)
    assert time.perf_counter() - t0 < 2.0
    assert r.status == "budget_exhausted"
    assert r.stats["reason"] == "time"
    assert r.basis == polys


def power(v, e):
    return Polynomial({((v, e),): QQ(1)})


@pytest.mark.parametrize(
    "polys, pairs",
    [
        # the one S-polynomial reduces x^99999997 by x^3 - 2
        ([power(0, 100_000_000) - one, power(0, 3) - 2 * one], 1),
        # coprime leading terms, so no S-pair: interreduction divides the
        # tail x^100000000 of the first element by x^3 - 2
        ([power(1, 100_000_001) + power(0, 100_000_000), power(0, 3) - 2 * one], 0),
    ],
)
def test_time_budget_holds_inside_one_reduction(polys, pairs):
    t0 = time.perf_counter()
    r = groebner_basis(polys, time_budget=0.2)
    assert time.perf_counter() - t0 < 2.0
    assert r.status == "budget_exhausted"
    assert r.stats["reason"] == "time"
    assert r.stats["pairs_processed"] == pairs
    # with no deadline, division runs past many clock-check points to its end
    assert reduce_full(power(0, 30_000), [polys[1]]) == Polynomial.constant(2**10_000)


def test_groebner_trace_records_events():
    trace = []
    r = groebner_basis([x * x, x - one], trace=trace)
    assert r.is_unit_ideal
    assert trace, "expected at least one recorded event"
    assert trace[-1][-1] == "1"


def test_ideal_membership():
    basis = groebner_basis([x * x - y, y * y - one]).basis
    assert ideal_membership((x * x - y) * (x + y), basis)
    assert not ideal_membership(x - one, basis)
