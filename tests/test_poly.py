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
from heapq import heappop

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lralg.catalog import counterexample_g13
from lralg.constraints import generate_lr_system
from lralg import poly
from lralg.poly import (
    MissingAssignment,
    PolyError,
    Polynomial,
    groebner_basis,
    mono_degree,
    mono_key,
    mono_mul,
    reduce_full,
    s_polynomial,
)
from lralg.poly import _Packing as Packing
from lralg.poly import _update_pairs as update_pairs

x, y, z = (Polynomial.variable(v) for v in (0, 1, 2))
one = Polynomial.constant(1)


def mono(*pairs):
    return tuple(sorted(pairs))


# Tuple-monomial operations, the oracles of the engine's packed ones.


def mono_divides(a, b) -> bool:
    """Does a divide b?"""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    out = dict(a)
    for v, e in b:
        r = out[v] - e
        if r:
            out[v] = r
        else:
            del out[v]
    return tuple(sorted(out.items()))


def mono_lcm(a, b):
    out = dict(a)
    for v, e in b:
        if out.get(v, 0) < e:
            out[v] = e
    return tuple(sorted(out.items()))


def mono_mask(m) -> int:
    """Bit v is set for each variable v of m."""
    mask = 0
    for v, _ in m:
        mask |= 1 << v
    return mask


def mono_compare(a, b) -> int:
    """Sign of a - b in the graded order, read off mono_key."""
    ka, kb = mono_key(a), mono_key(b)
    return (ka > kb) - (ka < kb)


def ideal_membership(f, basis) -> bool:
    """Is f in the ideal generated by a completed basis?"""
    return reduce_full(f, basis).is_zero()


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


small_monomials = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 2)),
    max_size=2,
    unique_by=lambda t: t[0],
).map(lambda pairs: tuple(sorted(pairs)))

small_polys = st.dictionaries(
    small_monomials,
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


@st.composite
def limit_monomials(draw):
    """Monomials in variables 0-5 of degree below 128, the guard bit of
    8-bit fields, so that one exponent may sit at the field's limit."""
    room, m = draw(st.integers(0, 127)), {}
    for v in draw(st.lists(st.integers(0, 5), unique=True, max_size=6)):
        e = draw(st.integers(0, room))
        if e:
            m[v], room = e, room - e
    return tuple(sorted(m.items()))


@settings(max_examples=500, deadline=None)
@given(limit_monomials(), limit_monomials())
@example(((0, 127),), ((5, 127),))
@example(((5, 127),), ((0, 1), (5, 126)))
@example(((0, 64), (5, 63)), ((0, 63), (5, 64)))
@example(((2, 127),), ((2, 127),))
@example((), ((3, 127),))
def test_packed_monomials_agree_with_tuples(a, b):
    packing = Packing(range(6), 127)
    assert packing.width == 8
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a
    # the order, compared as ints, is mono_key's
    assert sign(pa, pb) == sign(mono_key(a), mono_key(b))
    assert pa + pb == packing.pack(mono_mul(a, b))
    assert packing.divides(pa, pb) == mono_divides(a, b)
    if mono_divides(a, b):
        assert pb - pa == packing.pack(mono_div(b, a))
    assert packing.lcm(pa, pb) == packing.pack(mono_lcm(a, b))
    assert pa >> packing.shift == mono_degree(a)
    ma, mb = packing.mask(pa), packing.mask(pb)
    assert (ma == mb) == (mono_mask(a) == mono_mask(b))
    assert (ma & mb == 0) == (mono_mask(a) & mono_mask(b) == 0)
    assert (ma & ~mb == 0) == (mono_mask(a) & ~mono_mask(b) == 0)


def packing_widths(wider=0):
    """A _Packing that records each width it runs at, and with wider
    given, starts at that width."""
    widths = []

    class Recorded(Packing):
        def __init__(self, variables, degree, width=8):
            super().__init__(variables, degree, max(width, wider))
            widths.append(self.width)

    return Recorded, widths


def certify_run(polys, wider=0):
    """groebner_basis under a basis-size cap, with its trace, and the
    field widths it ran at.  The runs take milliseconds; the time budget
    only stops one that has gone wrong."""
    recorded, widths = packing_widths(wider)
    trace = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_Packing", recorded)
        r = groebner_basis(polys, max_basis_size=12, time_budget=10.0, trace=trace)
    stats = {k: v for k, v in r.stats.items() if k != "elapsed"}
    return (r.status, r.basis, stats, trace), widths


@st.composite
def widening_systems(draw):
    """Two or three binomials in x0, x1, x2 of degree 60 to 127 whose
    leading monomials share x0, so that an S-pair's lcm may reach 128,
    the guard bit of 8-bit fields."""
    polys = []
    for k in range(draw(st.integers(2, 3))):
        d = draw(st.integers(60, 127))
        a = draw(st.integers(1, d))
        lead = Polynomial({((0, a), (1 + k % 2, d - a)) if d > a else ((0, a),): QQ(1)})
        v = draw(st.integers(0, 2))
        tail = Polynomial({((v, draw(st.integers(0, 3))),) if v else (): QQ(1)})
        polys.append(lead + tail.scale(draw(st.sampled_from([-2, -1, 1, 3]))))
    return polys


@settings(max_examples=150, deadline=None)
@given(widening_systems())
def test_widening_restart_matches_a_wide_run(polys):
    narrow, widths = certify_run(polys)
    wide, wide_widths = certify_run(polys, wider=64)
    assert wide_widths == [64]
    assert widths[0] == 8 and all(b == 2 * a for a, b in zip(widths, widths[1:]))
    assert narrow == wide


def test_an_lcm_at_the_guard_bit_restarts_the_run():
    # x0^100 * x1 and x0 * x1^100 have degree 101, below the 128 of
    # 8-bit fields; their lcm x0^100 * x1^100 has degree 200.  The pair
    # of x3 * x4 - 1 and x3 * x5 - 1, of degree 3, is taken before it,
    # so the first run has traced and counted a pair when it stops.
    v = [Polynomial.variable(k) for k in range(6)]
    polys = [
        Polynomial({((0, 100), (1, 1)): QQ(1), ((2, 1),): QQ(-1)}),
        Polynomial({((0, 1), (1, 100)): QQ(1), ((2, 1),): QQ(-2)}),
        v[3] * v[4] - one,
        v[3] * v[5] - one,
    ]
    narrow, widths = certify_run(polys)
    assert widths == [8, 16]
    assert narrow == certify_run(polys, wider=16)[0]
    status, basis, stats, trace = narrow
    assert status == "complete" and stats["pairs_processed"] >= 2
    pairs = [event[1:3] for event in trace]
    assert pairs[0] == (2, 3) and (0, 1) in pairs


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
    assert monos == sorted(monos, key=mono_key, reverse=True)


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


def division_polys(terms=5):
    return st.dictionaries(
        st.dictionaries(st.integers(0, 9), st.integers(1, 3), max_size=3).map(
            lambda d: tuple(sorted(d.items()))
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=terms,
    ).map(Polynomial)


@st.composite
def division_bases(draw):
    """Bases of up to about ten elements whose leading monomials start
    at different variables, some with a zero element, some with a nonzero
    constant, and with several elements sharing a leading monomial (a
    scaled copy, or a copy without its smallest term)."""
    basis = draw(st.lists(division_polys(terms=3), max_size=6))
    for g in [g for g in basis if g.terms]:
        if draw(st.booleans()):
            basis.append(g.scale(draw(st.sampled_from([QQ(-1), QQ(2), QQ(1, 3)]))))
        if len(g.terms) > 1 and draw(st.booleans()):
            basis.append(Polynomial(dict(g.sorted_terms()[:-1])))
    for extra in (Polynomial.zero(), Polynomial.constant(draw(st.sampled_from([3, -1])))):
        if draw(st.integers(0, 3)) == 0:
            basis.insert(draw(st.integers(0, len(basis))), extra)
    return draw(st.permutations(basis))


@st.composite
def division_cases(draw):
    """A basis and a dividend, with some dividend terms at the lcm of two
    leading monomials, which divisors in two buckets both divide."""
    basis = draw(division_bases())
    f = draw(division_polys())
    lms = [g.leading_monomial() for g in basis if g.degree() > 0]
    if lms:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(lms)), draw(st.sampled_from(lms))
            f = f + Polynomial({mono_lcm(a, b): QQ(draw(st.integers(1, 3)))})
    return f, basis


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_reduce_full_matches_rescanning_division(case):
    f, basis = case
    want = oracle_reduce(f, basis)
    got = reduce_full(f, basis)
    assert got == want
    # terms come out from the biggest down, as the rescan finds them
    assert list(got.terms) == list(want.terms)


def test_division_takes_the_lowest_index_across_buckets():
    # x0*x1*x2 is divisible by x1*x2 (index 0, filed under x1) and by
    # x0*x1 (index 1, filed under x0): the first divisor in list order
    # is index 0, though the bucket of x0 is searched first
    v = [Polynomial.variable(k) for k in range(5)]
    f = v[0] * v[1] * v[2]
    basis = [v[1] * v[2] - v[3], v[0] * v[1] - v[4]]
    assert reduce_full(f, basis) == v[0] * v[3] == oracle_reduce(f, basis)
    assert reduce_full(f, basis[::-1]) == v[2] * v[4] == oracle_reduce(f, basis[::-1])
    # a constant divides every term, at whatever index it stands
    assert reduce_full(f, [*basis, 5 * one]).is_zero()


def test_division_by_int_coefficients_is_exact():
    # int coefficients in, an inexact quotient out as a Fraction, not a float
    g = Polynomial.wrap({((0, 1),): 2, (): 1})
    r = reduce_full(Polynomial.wrap({((0, 1),): 1}), [g])
    assert r.terms == {(): QQ(-1, 2)}
    assert {type(c) for c in r.terms.values()} == {QQ}
    s = s_polynomial(g, Polynomial.wrap({((1, 1),): 3, (): 1}))
    assert s.terms == {((1, 1),): QQ(1, 2), ((0, 1),): QQ(-1, 3)}
    assert {type(c) for c in s.terms.values()} == {QQ}


def test_s_polynomial_cancels_leading_terms():
    f = x * x * y.scale(1) + z
    g = x * y * y - one
    s = s_polynomial(f, g)
    lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())
    if not s.is_zero():
        assert mono_key(s.leading_monomial()) < mono_key(lcm)


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


nonzero_rationals = st.fractions(
    min_value=-7, max_value=7, max_denominator=5
).filter(bool)


integral_polys = st.dictionaries(
    small_monomials, st.integers(-6, 6).filter(bool).map(QQ), max_size=4
).map(Polynomial)


def long_constant_generators():
    """Generators whose run ends, after 21 pairs, in a constant whose
    numerator and denominator have more digits than str() converts."""
    x0, x1, x2 = x, y, z
    return [
        x1 * x1 * x2 + x0 * x1 - 2 * x1 * x1 + one,
        3 * x0 * x0 * x2 * x2 - x0 * x0 * x2 + x0 * x1 * x1 + x2,
        x0 * x2 * x2 - x0 + 2 * one,
        x0 * x0 * x1 * x1,
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(integral_polys, nonzero_rationals), min_size=1, max_size=4)
)
@example([(p, QQ(1)) for p in long_constant_generators()])
def test_reduced_basis_is_unchanged_by_scaling_generators(gens):
    # the reduced basis of an ideal is unique: generators with integral
    # coefficients, which the engine holds as ints, and their rational
    # multiples, which it holds as Fractions, must give the same one
    want = groebner_basis([p for p, _ in gens])
    got = groebner_basis([p.scale(c) for p, c in gens])
    assert want.status == got.status == "complete"
    assert got.basis == want.basis
    assert all(type(c) is QQ for p in got.basis for c in p.terms.values())


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


def test_nan_time_budget_is_refused():
    # no clock passes t0 + nan, so such a budget would never stop a run
    with pytest.raises(ValueError, match="NaN"):
        groebner_basis([x * y - one], time_budget=float("nan"))


@pytest.mark.parametrize(
    "key, negative, name, reason",
    [
        ("time_budget", -1.0, "time budget", "time"),
        ("time_budget", float("-inf"), "time budget", "time"),
        ("max_basis_size", -1, "basis size cap", "basis_size"),
        ("max_degree", -1, "degree cap", "degree"),
    ],
    ids=["time", "time_-inf", "basis", "degree"],
)
def test_negative_budgets_are_refused(key, negative, name, reason):
    # -1 reads as "no limit" to many tools, but as a budget it would
    # exhaust every run at its first check; zero stays a valid budget
    hard = [x + y + z, x * y + y * z + z * x, x * y * z - one]
    with pytest.raises(ValueError, match=f"^{name} is negative"):
        groebner_basis(hard, **{key: negative})
    r = groebner_basis(hard, **{key: 0})
    assert (r.status, r.stats["reason"]) == ("budget_exhausted", reason)


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


def test_time_budget_covers_input_preparation():
    # making the 27,378 raw g13 inputs monic takes seconds before any of
    # them is inserted; a stop there returns the monic inputs made so far
    polys = generate_lr_system(counterexample_g13()).polys
    t0 = time.perf_counter()
    r = groebner_basis(polys, time_budget=0.2)
    assert time.perf_counter() - t0 < 1.5
    assert r.status == "budget_exhausted"
    assert r.stats["reason"] == "time"
    assert r.basis == [p.monic() for p in polys[: len(r.basis)]]


def test_pair_update_stops_at_its_deadline():
    packing = Packing(range(201), 2)
    lms = [packing.pack(((v, 1), (v + 1, 1))) for v in range(200)]
    masks = [packing.mask(m) for m in lms]

    def update(deadline):
        pairs, queue = {}, []
        done = update_pairs(pairs, queue, lms, masks, 199, deadline, packing)
        return done, pairs, queue

    full = update(None)
    assert full[0] and full[1]
    assert update(time.monotonic() + 60) == full
    assert update(time.monotonic() - 1) == (False, {}, [])


def oracle_update_pairs(pairs, lms, masks, t, deadline):
    """The pair update as a rebuild: the pending pairs after adding element
    t, with the new pairs' lcms checked against every kept lcm."""
    lt, mt = lms[t], masks[t]
    fresh = [mono_lcm(lms[i], lt) for i in range(t)]
    # drop new pairs whose lcm is a proper multiple of another new pair's
    # lcm; the lcm of pair (i, t) has the variables masks[i] | mt
    keep = {}
    for d, i in sorted((mono_degree(l), i) for i, l in enumerate(fresh)):
        if not i & 63 and deadline is not None and time.monotonic() > deadline:
            return None
        l, lmask = fresh[i], masks[i] | mt
        for _, lj, jmask in keep.values():
            if not jmask & ~lmask and lj != l and mono_divides(lj, l):
                break
        else:
            keep[i] = (d, l, lmask)
    # among equal lcms keep a single representative, and drop pairs with
    # coprime leading terms outright
    by_lcm = {}
    for i, (_, l, _) in keep.items():
        by_lcm.setdefault(l, i)
    new_pairs = {(i, t): keep[i][:2] for i in by_lcm.values() if masks[i] & mt}
    # chain criterion on the old pairs
    survivors = {}
    for (i, j), dl in pairs.items():
        l = dl[1]
        if (
            not mt & ~(masks[i] | masks[j])
            and mono_divides(lt, l)
            and fresh[i] != l
            and fresh[j] != l
        ):
            continue
        survivors[(i, j)] = dl
    survivors.update(new_pairs)
    return survivors


pair_monomials = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 3)),
    min_size=1,
    max_size=3,
    unique_by=lambda t: t[0],
).map(lambda pairs: tuple(sorted(pairs)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(pair_monomials, min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), min_size=1, max_size=24),
)
def test_pair_update_matches_the_rebuilding_oracle(pool, steps):
    """Each step adds a leading monomial from a small pool, so that some
    repeat, and then takes up to three pending pairs the way the engine
    does: the queue must give the pair of least (degree, i, j).  The
    engine runs on the packed pool, the oracle on its tuples."""
    packing = Packing(range(6), 9)
    lms, masks, packed, packed_masks = [], [], [], []
    pairs, queue, want = {}, [], {}
    for pick, takes in steps:
        lms.append(pool[pick % len(pool)])
        masks.append(mono_mask(lms[-1]))
        packed.append(packing.pack(lms[-1]))
        packed_masks.append(packing.mask(packed[-1]))
        t = len(lms) - 1
        want = oracle_update_pairs(want, lms, masks, t, None)
        assert update_pairs(pairs, queue, packed, packed_masks, t, None, packing)
        assert pairs == {ij: packing.pack(l) for ij, (_, l) in want.items()}
        assert {(i, j) for _, i, j in queue} >= set(pairs)
        for _ in range(min(takes, len(want))):
            ij = min(want, key=lambda ij: (want[ij][0], ij))
            del want[ij]
            d, i, j = heappop(queue)
            while (i, j) not in pairs:
                d, i, j = heappop(queue)
            assert (i, j) == ij
            assert mono_degree(packing.unpack(pairs.pop(ij))) == d


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
    assert trace[-1][-1] == 1
    # a constant is recorded as its value, which may be too long for str()
    trace = []
    r = groebner_basis(long_constant_generators(), trace=trace)
    assert (r.status, r.basis) == ("complete", [one])
    assert r.stats["pairs_processed"] == len(trace) == 21
    *_, event, value = trace[-1]
    assert event == "constant" and type(value) is QQ and value
    assert abs(value.numerator) > 10**4300 and value.denominator > 10**4300
    trace = []
    groebner_basis([x, 2 * one], trace=trace)
    assert trace == [("input_constant", 2)]


def test_ideal_membership():
    basis = groebner_basis([x * x - y, y * y - one]).basis
    assert ideal_membership((x * x - y) * (x + y), basis)
    assert not ideal_membership(x - one, basis)
