"""Sparse multivariate polynomials over the rationals.

Variables are nonnegative integer ids.  Monomials are tuples of
(variable, exponent) pairs sorted by variable id with positive
exponents.  The term order is graded: total degree first, ties broken
so that a lower variable id counts as the bigger variable.  It is
defined once, as the native sort key ``mono_key``; the reversed key of
the division heap derives from it.

The module provides exact arithmetic, substitution and evaluation,
polynomial reduction, S-polynomials, and a budgeted Groebner-basis
routine with the standard pair-pruning criteria.  The basis routine
either finishes (possibly discovering that the ideal is the whole ring,
in which case the basis collapses to [1]) or stops at an explicit
budget and says so.  Its time budget is checked while the inputs are
made monic, before each input insertion, each S-pair and each
interreduction step, and inside each pair update and each reduction.

Division takes the biggest remaining term from a min-heap on the
reversed key (heap-ordered division after Monagan and Pearce).  The
basis is held as prepared divisors: tail, leading monomial and
coefficient, and a bit mask of the leading monomial's variables, which
rejects most reducers and most pair-criterion tests before any
exponent is compared (divisibility masks after Bachmann and
Schoenemann).  The divisors are filed by the first variable of their
leading monomial, so that a term is tried only against divisors whose
first variable it contains.  Pending pairs carry their lcm and wait
in a heap on (degree, i, j).

Inside division, S-polynomials and the basis routine, scalars follow
``linalg.Eliminator``'s rule: each integral coefficient is held as an
int, which is exact and several times cheaper, and a coefficient becomes
a Fraction only where a division is inexact.  Inputs are converted as
they are made monic, and every polynomial handed out holds Fractions.
"""

import math
import sys
import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .linalg import QQ, _quotient, _scalar, qq

Monomial = tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()


class PolyError(ValueError):
    pass


class MissingAssignment(PolyError):
    def __init__(self, var: int):
        self.var = var
        super().__init__(f"no value assigned to variable {var}")


def mono_degree(m: Monomial) -> int:
    return sum(map(itemgetter(1), m))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Does a divide b?"""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    out = dict(a)
    for v, e in b:
        r = out[v] - e
        if r:
            out[v] = r
        else:
            del out[v]
    return tuple(sorted(out.items()))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    out = dict(a)
    for v, e in b:
        if out.get(v, 0) < e:
            out[v] = e
    return tuple(sorted(out.items()))


def mono_mask(m: Monomial) -> int:
    """Bit v is set for each variable v of m."""
    mask = 0
    for v, _ in m:
        mask |= 1 << v
    return mask


def mono_key(m: Monomial) -> tuple:
    """Sort key of the graded order; ties go to the monomial with more of
    the bigger (lower-id) variable."""
    return (sum(e for _, e in m), tuple((-v, e) for v, e in m))


def _heap_key(m: Monomial) -> tuple:
    """mono_key reversed, so that a min-heap pops the biggest monomial:
    (-degree, (v1, -e1, v2, -e2, ...)).  Negating each entry reverses the
    lexicographic comparison because two monomials of one degree never
    have one term sequence as a prefix of the other.  The inner tuple is
    flat to create one object per key, not one per variable."""
    return (-mono_degree(m), tuple([x for v, e in m for x in (v, -e)]))


def _graded_order(terms: Mapping[Monomial, QQ]) -> list[Monomial]:
    """The monomials of terms from the biggest down.  When every exponent
    is 1, mono_key is the length and then the variables ascending, so
    sorting the monomials themselves and then, stably, by length gives
    the order with no key call per term."""
    if max(map(itemgetter(1), chain.from_iterable(terms)), default=1) == 1:
        monos = sorted(terms)
        monos.sort(key=len, reverse=True)
        return monos
    return sorted(terms, key=mono_key, reverse=True)


class _Cache(dict):
    """A dict that fills a missing key with make(key)."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _sign_text(c) -> str:
    """What comes before a monomial with coefficient c in a later term:
    ' + ', ' - ' or ' - 1/2 * '."""
    if c == 1:
        return " + "
    if c == -1:
        return " - "
    s = str(c)
    return f" - {s[1:]} * " if s[0] == "-" else f" + {s} * "


def line_writer(namer) -> Callable[["Polynomial"], str]:
    """The one writer of polynomial text, `3 * x0^2 - x0 * x1 - 1/2`:
    terms from the biggest monomial down, factors joined by ' * ', a
    coefficient of 1 or -1 left out, and 0 for the zero polynomial.
    namer(v) names variable v.  Factor texts and coefficient signs are
    built once per writer; the signs are kept by id of the coefficient,
    beside the coefficient itself, so that no id is reused meanwhile."""
    names = _Cache(lambda f: namer(f[0]) if f[1] == 1 else f"{namer(f[0])}^{f[1]}")
    signs: dict[int, tuple[object, str]] = {}

    def line(p: "Polynomial") -> str:
        terms = p.terms
        if not terms:
            return "0"
        parts = []
        for m in _graded_order(terms):
            c = terms[m]
            if not m:  # the constant, which comes last
                s = str(c)
                parts.append(f" - {s[1:]}" if s[0] == "-" else f" + {s}")
                break
            sign = signs.get(id(c))
            if sign is None:
                sign = signs[id(c)] = (c, _sign_text(c))
            if len(m) == 2:
                a, b = m
                parts.append(f"{sign[1]}{names[a]} * {names[b]}")
            else:
                parts.append(f"{sign[1]}{' * '.join(map(names.__getitem__, m))}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else f"-{text[3:]}"

    return line


class Polynomial:
    """Immutable-by-convention mapping of monomials to rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, QQ] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = qq(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean

    @staticmethod
    def wrap(terms: dict) -> "Polynomial":
        """The polynomial whose terms are this dict itself: no copy and no
        coefficient conversion, so every coefficient must be nonzero."""
        p = Polynomial.__new__(Polynomial)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({MONO_ONE: qq(c)})

    @classmethod
    def variable(cls, v: int) -> "Polynomial":
        return cls({((v, 1),): QQ(1)})

    @classmethod
    def linear(cls, coeffs: Mapping[int, QQ], constant=0) -> "Polynomial":
        terms = {((v, 1),): qq(c) for v, c in coeffs.items() if c != 0}
        if qq(constant) != 0:
            terms[MONO_ONE] = qq(constant)
        return cls(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def constant_value(self) -> QQ:
        return self.terms.get(MONO_ONE, QQ(0))

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set[int]:
        return {v for m in self.terms for v, _ in m}

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        return max(self.terms, key=mono_key)

    def leading_term(self) -> tuple[Monomial, QQ]:
        m = self.leading_monomial()
        return m, self.terms[m]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.terms[self.leading_monomial()]
        return self if c == 1 else self.scale(QQ(1) / c)

    def sorted_terms(self) -> list[tuple[Monomial, QQ]]:
        """Terms from biggest monomial down."""
        return [(m, self.terms[m]) for m in _graded_order(self.terms)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Polynomial":
        """polynomial + polynomial or rational; a new constant term comes last."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial.wrap(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial.wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __radd__(self, other) -> "Polynomial":
        """rational + polynomial, so that sparse vectors may mix both."""
        return Polynomial.constant(other) + self

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.constant(other) - self

    def scale(self, c) -> "Polynomial":
        if type(c) is not int:
            c = qq(c)
        if c == 1:
            return self
        terms = {} if c == 0 else {m: c * x for m, x in self.terms.items()}
        return Polynomial.wrap(terms)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out: dict[Monomial, QQ] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, QQ(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial.wrap(out)

    __rmul__ = scale

    def power(self, e: int) -> "Polynomial":
        if e < 0:
            raise PolyError("negative exponent")
        acc = Polynomial.constant(1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def evaluate(self, vals: Mapping[int, QQ]) -> QQ:
        total = QQ(0)
        for m, c in self.terms.items():
            prod = c
            for v, e in m:
                if v not in vals:
                    raise MissingAssignment(v)
                prod *= qq(vals[v]) ** e
            total += prod
        return total

    def substitute(self, subs: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each variable in subs with its polynomial, in one pass
        (an image is not substituted into again); other variables stay.

        A monomial with a factor sent to 0 is dropped before any
        expansion, and one with no factor in subs is kept as it is.
        """
        out: dict[Monomial, QQ] = {}
        powers: dict[tuple[int, int], Polynomial] = {}

        def bump(m, c):
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            else:
                out.pop(m, None)

        for m, c in self.terms.items():
            hit = False
            for v, _ in m:
                image = subs.get(v)
                if image is not None:
                    if not image.terms:
                        break
                    hit = True
            else:
                if not hit:
                    bump(m, c)
                    continue
                t = Polynomial({MONO_ONE: c})
                for v, e in m:
                    if (v, e) not in powers:
                        powers[v, e] = (
                            subs[v].power(e)
                            if v in subs
                            else Polynomial({((v, e),): QQ(1)})
                        )
                    t = t * powers[v, e]
                for m2, c2 in t.terms.items():
                    bump(m2, c2)
        return Polynomial.wrap(out)

    def to_string(self, namer=None) -> str:
        return line_writer(namer or "x{}".format)(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


# A prepared divisor: the tail of a nonzero polynomial (every term but
# the leading one), its leading monomial and coefficient, and the
# variable mask of the leading monomial.
Divisor = tuple[list[tuple[Monomial, QQ]], Monomial, QQ, int]


def _prepare(g: Polynomial, lm: Monomial | None = None) -> Divisor:
    """g as a divisor; lm, when given, is its leading monomial."""
    if lm is None:
        lm = g.leading_monomial()
    tail = [(m, c) for m, c in g.terms.items() if m != lm]
    return tail, lm, g.terms[lm], mono_mask(lm)


# Divisors filed by the first variable of their leading monomial, -1 for
# a constant, each bucket as (list index, mask, leading monomial, divisor)
# with the indices ascending.
Index = dict[int, list[tuple[int, int, Monomial, Divisor]]]


def _file(index: Index, k: int, d: Divisor) -> None:
    """File divisor d, whose list index k is above every filed one."""
    lm = d[1]
    index.setdefault(lm[0][0] if lm else -1, []).append((k, d[3], lm, d))


def _index(divisors: Iterable[tuple[int, Divisor]]) -> Index:
    index: Index = {}
    for k, d in divisors:
        _file(index, k, d)
    return index


def _ints(p: Polynomial) -> Polynomial:
    """p with each integral coefficient as an int."""
    return Polynomial.wrap({m: _scalar(c) for m, c in p.terms.items()})


def _monic_ints(p: Polynomial, lm: Monomial) -> Polynomial:
    """p divided by its coefficient at lm, its leading monomial, with each
    integral coefficient as an int."""
    c = _scalar(p.terms[lm])
    if c == 1:
        return _ints(p)
    return Polynomial.wrap({m: _quotient(_scalar(x), c) for m, x in p.terms.items()})


def _fractions(polys: list[Polynomial]) -> list[Polynomial]:
    """polys with each coefficient as a Fraction, one shared object per
    value."""
    fractions: dict = {}
    get, put = fractions.get, fractions.setdefault
    return [
        Polynomial.wrap({m: get(c) or put(c, QQ(c)) for m, c in p.terms.items()})
        for p in polys
    ]


def reduce_full(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Fully reduce f modulo the basis (remainder of multivariate division)."""
    divisors = [_prepare(_ints(g)) for g in basis if g.terms]
    return _fractions([_reduce(_ints(f), _index(enumerate(divisors)))])[0]


def _reduce(
    f: Polynomial, index: Index, deadline: float | None = None
) -> Polynomial | None:
    """Divide f by the divisor of lowest list index whose leading monomial
    divides the biggest remaining term, until no term is divisible.

    A divisor of a term has its first variable in the term, so only the
    buckets of the term's variables are searched, each up to the best
    index found so far; a constant divides every term.  Terms wait in a
    heap; an entry whose monomial has left ``work`` is stale and skipped.
    A popped monomial never returns, since every term a reduction step
    adds is smaller than the one it removes.  With a deadline (a
    ``time.monotonic()`` value) the clock is read every 1024 pops, and
    None is returned once the deadline has passed.
    """
    # the lowest-index constant divides every term; it is the best so far
    # at each pop
    constant = index[-1][0] if -1 in index else (sys.maxsize, 0, MONO_ONE, None)
    work = dict(f.terms)
    heap = [(_heap_key(m), m) for m in work]
    heapify(heap)
    remainder: dict[Monomial, QQ] = {}
    pops = 0
    while heap:
        pops += 1
        if not pops & 1023 and deadline is not None and time.monotonic() > deadline:
            return None
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        outside = ~mono_mask(m)
        exps = None
        best, _, _, divisor = constant
        for v, _ in m:
            for k, mask, lm, d in index.get(v, ()):
                if k >= best:
                    break
                if mask & outside:
                    continue
                if exps is None:
                    exps = dict(m)
                if all(exps[v] >= e for v, e in lm):
                    best, divisor = k, d
                    break
        if divisor is None:
            remainder[m] = c
            continue
        tail, lm, lc, _ = divisor
        factor = c if lc == 1 else _quotient(c, lc)
        shift = mono_div(m, lm)
        for gm, gc in tail:
            t = mono_mul(gm, shift)
            old = work.get(t)
            if old is None:
                work[t] = -(factor * gc)
                heappush(heap, (_heap_key(t), t))
                continue
            s = old - factor * gc
            if s:
                work[t] = s
            else:
                del work[t]
    return Polynomial.wrap(remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    a, b = _prepare(_ints(f)), _prepare(_ints(g))
    return _fractions([_s_polynomial(a, b, mono_lcm(a[1], b[1]))])[0]


def _s_polynomial(a: Divisor, b: Divisor, l: Monomial) -> Polynomial:
    """S-polynomial of two prepared elements whose leading monomials have
    lcm l; the leading terms cancel, so only the tails are formed."""
    (ta, lma, lca, _), (tb, lmb, lcb, _) = a, b
    sa, sb = mono_div(l, lma), mono_div(l, lmb)
    out = {mono_mul(m, sa): c if lca == 1 else _quotient(c, lca) for m, c in ta}
    for m, c in tb:
        t = mono_mul(m, sb)
        c = c if lcb == 1 else _quotient(c, lcb)
        old = out.get(t)
        if old is None:
            out[t] = -c
        elif old != c:
            out[t] = old - c
        else:
            del out[t]
    return Polynomial.wrap(out)


@dataclass
class GroebnerResult:
    status: str  # "complete" or "budget_exhausted"
    basis: list[Polynomial]
    stats: dict = field(default_factory=dict)

    @property
    def is_unit_ideal(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.basis)


# Pending S-pairs (i, j), i < j, with the lcm of the two leading
# monomials.
Pairs = dict[tuple[int, int], Monomial]


def _update_pairs(
    pairs: Pairs,
    queue: list[tuple[int, int, int]],
    lms: list[Monomial],
    masks: list[int],
    t: int,
    deadline: float | None,
) -> bool:
    """Pair update with the standard pruning criteria on adding element t:
    the chain criterion drops old pairs from pairs, and each new pair
    (i, t) kept goes into pairs and, as (degree, i, t), onto the heap
    queue.  False once the deadline, read every 64 new pairs, has passed;
    pairs and queue are then unchanged."""
    lt, mt = lms[t], masks[t]
    # the lcm of pair (i, t) has the variables masks[i] | mt, and it is a
    # plain product where those are disjoint
    exps_t = dict(lt)
    fresh: list[Monomial] = []
    for i in range(t):
        if masks[i] & mt:
            out = exps_t.copy()
            for v, e in lms[i]:
                if out.get(v, 0) < e:
                    out[v] = e
            fresh.append(tuple(sorted(out.items())))
        else:
            fresh.append(tuple(sorted(lms[i] + lt)))
    # drop new pairs whose lcm is a proper multiple of another new pair's
    # lcm.  Only kept lcms of lower degree are tried, since one of equal
    # degree divides only by being equal.
    kept: list[tuple[Monomial, int]] = []  # ascending in degree
    lower: list[tuple[Monomial, int]] = []  # those below the current degree
    degree = -1
    first: dict[Monomial, int] = {}  # the first kept i of each lcm
    for d, i in sorted((mono_degree(l), i) for i, l in enumerate(fresh)):
        if not i & 63 and deadline is not None and time.monotonic() > deadline:
            return False
        if d != degree:
            lower, degree = kept[:], d
        l, lmask = fresh[i], masks[i] | mt
        outside = ~lmask
        exps = None
        for lj, jmask in lower:
            if jmask & outside:
                continue
            if exps is None:
                exps = dict(l)
            if all(exps[v] >= e for v, e in lj):
                break
        else:
            kept.append((l, lmask))
            first.setdefault(l, i)
    # chain criterion on the old pairs
    drop = [
        (i, j)
        for (i, j), l in pairs.items()
        if not mt & ~(masks[i] | masks[j])
        and mono_divides(lt, l)
        and fresh[i] != l
        and fresh[j] != l
    ]
    for ij in drop:
        del pairs[ij]
    # among equal lcms keep a single representative, and drop pairs with
    # coprime leading terms outright
    for l, i in first.items():
        if masks[i] & mt:
            pairs[i, t] = l
            heappush(queue, (mono_degree(l), i, t))
    return True


def groebner_basis(
    polys: Iterable[Polynomial],
    *,
    max_basis_size: int = 2000,
    max_degree: int | None = None,
    time_budget: float | None = None,
    trace: list | None = None,
) -> GroebnerResult:
    """Budgeted Buchberger with monic generators.

    Stops with status "budget_exhausted" when the basis size cap, the
    degree cap, or the time budget is hit; otherwise returns a reduced
    basis with status "complete".  If a reduction produces a nonzero
    constant the ideal is the whole ring and the basis is [1].  An
    optional trace list receives one event tuple per S-pair processed.
    The time budget is checked every 1024 inputs made monic, 64 new pairs
    and 1024 reduced terms, and before each insertion, S-pair and
    interreduction step.  A run stopped while making inputs monic returns
    those made so far; one stopped while inserting them returns them all.
    A NaN time budget, which no clock passes, raises ValueError.
    """
    if time_budget is not None and math.isnan(time_budget):
        raise ValueError("time budget is NaN")
    t0 = time.monotonic()
    deadline = None if time_budget is None else t0 + time_budget
    stats = {"pairs_processed": 0, "zero_reductions": 0, "max_degree_seen": 0}

    def out(status, basis):
        result = GroebnerResult(status, _fractions(basis), stats)
        stats["elapsed"] = time.monotonic() - t0
        return result

    def exhausted(reason: str, basis):
        stats["reason"] = reason
        return out("budget_exhausted", basis)

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() > deadline

    # each input and each remainder has its leading monomial found once;
    # as the order is graded, its degree is the polynomial's
    g: list[tuple[Polynomial, Monomial]] = []
    for count, p in enumerate(polys, 1):
        if not count & 1023 and out_of_time():
            return exhausted("time", [q for q, _ in g])
        if p.is_zero():
            continue
        if p.is_constant():
            if trace is not None:
                trace.append(("input_constant", str(p.constant_value())))
            return out("complete", [Polynomial.constant(1)])
        lm = p.leading_monomial()
        g.append((_monic_ints(p, lm), lm))
        stats["max_degree_seen"] = max(stats["max_degree_seen"], mono_degree(lm))

    # basis[k] is prepared once as divisors[k] and filed in index; lms
    # and masks repeat its leading monomial and variable mask for the pair
    # update.  queue holds (degree, i, j) for every pair put in pairs,
    # including those the chain criterion has dropped since: those are
    # skipped when popped, which is exact as no pair is put in twice.
    basis: list[Polynomial] = []
    divisors: list[Divisor] = []
    index: Index = {}
    lms: list[Monomial] = []
    masks: list[int] = []
    pairs: Pairs = {}
    queue: list[tuple[int, int, int]] = []

    def insert(p: Polynomial, lm: Monomial) -> bool:
        d = _prepare(p, lm)
        k = len(basis)
        basis.append(p)
        divisors.append(d)
        _file(index, k, d)
        lms.append(lm)
        masks.append(d[3])
        return _update_pairs(pairs, queue, lms, masks, k, deadline)

    for p, lm in g:
        if out_of_time() or not insert(p, lm):
            return exhausted("time", [p for p, _ in g])

    truncated = False
    while queue:
        _, i, j = heappop(queue)
        l = pairs.pop((i, j), None)
        if l is None:
            continue
        if out_of_time():
            return exhausted("time", basis)
        if len(basis) > max_basis_size:
            return exhausted("basis_size", basis)
        stats["pairs_processed"] += 1
        s = _s_polynomial(divisors[i], divisors[j], l)
        r = _reduce(s, index, deadline)
        if r is None:
            return exhausted("time", basis)
        if r.is_zero():
            stats["zero_reductions"] += 1
            if trace is not None:
                trace.append(("spair", i, j, "zero"))
            continue
        if r.is_constant():
            if trace is not None:
                trace.append(("spair", i, j, "constant", str(r.constant_value())))
            return out("complete", [Polynomial.constant(1)])
        lm = r.leading_monomial()
        d = mono_degree(lm)
        stats["max_degree_seen"] = max(stats["max_degree_seen"], d)
        if max_degree is not None and d > max_degree:
            truncated = True
            if trace is not None:
                trace.append(("spair", i, j, "degree_capped", d))
            continue
        if not insert(_monic_ints(r, lm), lm):
            return exhausted("time", basis)
        if trace is not None:
            trace.append(("spair", i, j, "new", len(basis) - 1))

    if truncated:
        return exhausted("degree", basis)

    # interreduce: drop elements with redundant leading monomials, then
    # fully reduce each survivor against the others
    live = []
    for k, lm in enumerate(lms):
        if out_of_time():
            return exhausted("time", basis)
        mk = masks[k]
        if not any(
            k2 != k
            and not masks[k2] & ~mk
            and mono_divides(lms[k2], lm)
            and (lms[k2] != lm or k2 < k)
            for k2 in range(len(lms))
        ):
            live.append(k)
    # Each survivor's leading term is divisible by no other survivor, and
    # its own leading monomial divides no smaller term, so its tail is
    # reduced against all survivors and its leading term put back first.
    index = _index((k, divisors[k]) for k in live)
    reduced = []
    for k in live:
        tail, lm, lc, _ = divisors[k]
        if out_of_time():
            return exhausted("time", basis)
        r = _reduce(Polynomial.wrap(dict(tail)), index, deadline)
        if r is None:
            return exhausted("time", basis)
        reduced.append(_monic_ints(Polynomial.wrap({lm: lc, **r.terms}), lm))
    reduced.sort(key=lambda p: mono_key(p.leading_monomial()))
    if any(p.is_constant() for p in reduced):
        reduced = [Polynomial.constant(1)]
    return out("complete", reduced)
