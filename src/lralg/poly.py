"""Sparse multivariate polynomials over the rationals.

Variables are nonnegative integer ids.  Monomials are tuples of
(variable, exponent) pairs sorted by variable id with positive
exponents.  The term order is graded: total degree first, ties broken
so that a lower variable id counts as the bigger variable.  It is
defined once, as the native sort key ``mono_key``.

The module provides exact arithmetic, substitution and evaluation,
polynomial reduction, S-polynomials, and a budgeted Groebner-basis
routine with the standard pair-pruning criteria.  The basis routine
either finishes (possibly discovering that the ideal is the whole ring,
in which case the basis collapses to [1]) or stops at an explicit
budget and says so.  Its time budget is checked while the inputs are
made monic, before each input insertion, each S-pair and each
interreduction step, and inside each pair update and each reduction.

Inside division, S-polynomials and the basis routine a monomial is one
int, its exponent vector packed into fields (packed exponent vectors
after Bachmann and Schoenemann, and Monagan and Pearce): the total
degree in the top field, then one field per variable that occurs in the
inputs, the lowest id most significant.  The ints then order exactly as
``mono_key``, a product is a sum and a quotient a difference.  Each
variable field keeps its top bit clear as a guard, so that divisibility,
lcm and the variable mask are a few whole-int operations (the guard bits
that survive a subtraction, or an addition, mark the fields).  Fields
are 8 bits or as wide as the inputs' degree needs.  An exponent never
exceeds its monomial's degree, and degrees grow only through the lcm of
an S-pair, so a run that takes a pair whose lcm reaches the guard bit
starts again from the inputs with fields twice as wide (same deadline,
trace and stats cut back).  Monomials are packed as the inputs are
inserted and unpacked as results are handed out; ``Polynomial`` keeps
tuples.  A packed monomial takes (variables + 1) * width bits, however
few variables it has.

Division takes the biggest remaining term from a min-heap of negated
monomials (heap-ordered division after Monagan and Pearce).  The basis
is held as prepared divisors: tail, leading monomial and coefficient,
and the variable mask of the leading monomial, which rejects most
reducers and most pair-criterion tests before any exponent is compared.
The divisors are filed by the first variable of their leading monomial,
so that a term is tried only against divisors whose first variable it
contains.  Pending pairs carry their lcm and wait in a heap on (degree,
i, j).

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


def mono_key(m: Monomial) -> tuple:
    """Sort key of the graded order; ties go to the monomial with more of
    the bigger (lower-id) variable."""
    return (sum(e for _, e in m), tuple((-v, e) for v, e in m))


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


class _Packing:
    """Packed monomials over the given variables (see the module
    docstring): fields of at least width bits and wide enough that a
    monomial of the given degree stays below every guard bit."""

    __slots__ = ("width", "shift", "guard", "low", "spread", "top", "units", "names")

    def __init__(self, variables: Iterable[int], degree: int, width: int = 8):
        names = sorted(variables, reverse=True)  # names[p] has offset p * w
        w = self.width = max(width, degree.bit_length() + 1)
        shift = self.shift = len(names) * w  # offset of the degree
        ones = ((1 << shift) - 1) // ((1 << w) - 1)  # 1 in every field
        self.guard = ones << w - 1
        self.low = self.guard - ones
        # x * spread & top is the sum of x's fields, placed as a degree
        self.spread, self.top = ones << w, (1 << shift + w) - (1 << shift)
        self.units = {v: (1 << p * w) + (1 << shift) for p, v in enumerate(names)}
        self.names = {p * w: v for p, v in enumerate(names)}

    def pack(self, m: Monomial) -> int:
        units = self.units
        return sum([e * units[v] for v, e in m])

    def unpack(self, t: int) -> Monomial:
        out = []
        field = (1 << self.width - 1) - 1
        marks = self.mask(t)
        while marks:
            g = marks.bit_length() - 1
            marks ^= 1 << g
            o = g - self.width + 1
            out.append((self.names[o], t >> o & field))
        return tuple(out)

    def terms(self, p: Polynomial) -> dict:
        """p packed, with each integral coefficient as an int."""
        pack = self.pack
        return {pack(m): _scalar(c) for m, c in p.terms.items()}

    def mask(self, t: int) -> int:
        """The guard bit of each variable of t: a nonzero field carries
        into its guard when all bits below it are added."""
        return t + self.low & self.guard

    def divides(self, a: int, b: int) -> bool:
        """Does a divide b?  Subtracting a from b with every guard set
        clears the guard of each field where a is bigger."""
        return (b | self.guard) - a & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        """b plus, in each field where a is bigger, the difference, and
        those differences' sum on the degree."""
        d = (a | self.guard) - b
        bigger = d & self.guard
        up = d & bigger - (bigger >> self.width - 1)
        return b + up + (up * self.spread & self.top)


# A prepared divisor: the tail of a nonzero packed polynomial (every term
# but the leading one), its leading monomial and coefficient, and the
# variable mask of the leading monomial.
Divisor = tuple[list[tuple[int, QQ]], int, QQ, int]


def _prepare(g: dict, lm: int, packing: _Packing) -> Divisor:
    """Packed polynomial g, whose leading monomial is lm, as a divisor."""
    tail = [(m, c) for m, c in g.items() if m != lm]
    return tail, lm, g[lm], packing.mask(lm)


# Divisors filed by the first variable of their leading monomial (the
# bit length of its mask, 0 for a constant), each bucket as (list index,
# mask, leading monomial, divisor) with the indices ascending.
Index = dict[int, list[tuple[int, int, int, Divisor]]]


def _file(index: Index, k: int, d: Divisor) -> None:
    """File divisor d, whose list index k is above every filed one."""
    index.setdefault(d[3].bit_length(), []).append((k, d[3], d[1], d))


def _index(divisors: Iterable[tuple[int, Divisor]]) -> Index:
    index: Index = {}
    for k, d in divisors:
        _file(index, k, d)
    return index


def _monic(terms: dict, lm) -> dict:
    """terms divided by their coefficient at lm, their leading monomial."""
    c = terms[lm]
    return terms if c == 1 else {m: _quotient(x, c) for m, x in terms.items()}


def _fractions(polys: list[dict], packing: _Packing | None) -> list[Polynomial]:
    """polys with each coefficient as a Fraction, one shared object per
    value, and each packed monomial unpacked once (none without a
    packing)."""
    fractions: dict = {}
    get, put = fractions.get, fractions.setdefault
    monos = _Cache(packing.unpack if packing else lambda m: m)
    return [
        Polynomial.wrap({monos[m]: get(c) or put(c, QQ(c)) for m, c in p.items()})
        for p in polys
    ]


def reduce_full(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Fully reduce f modulo the basis (remainder of multivariate division)."""
    basis = [g for g in basis if g.terms]
    # division adds no term above the biggest it removes
    packing = _Packing(
        f.variables().union(*map(Polynomial.variables, basis)),
        max(map(Polynomial.degree, [f, *basis])),
    )
    divisors = [_prepare(g, max(g), packing) for g in map(packing.terms, basis)]
    r = _reduce(packing.terms(f), _index(enumerate(divisors)), packing)
    return _fractions([r], packing)[0]


def _reduce(
    f: dict, index: Index, packing: _Packing, deadline: float | None = None
) -> dict | None:
    """Divide packed f by the divisor of lowest list index whose leading
    monomial divides the biggest remaining term, until no term is
    divisible.

    A divisor of a term has its first variable in the term, so only the
    buckets of the term's variables are searched, each up to the best
    index found so far; a constant divides every term.  Terms wait in a
    heap of negated monomials; an entry whose monomial has left ``work``
    is stale and skipped.  A popped monomial never returns, since every
    term a reduction step adds is smaller than the one it removes.  With
    a deadline (a ``time.monotonic()`` value) the clock is read every 1024
    pops, and None is returned once the deadline has passed.
    """
    guard, low = packing.guard, packing.low
    # the lowest-index constant divides every term; it is the best so far
    # at each pop
    constant = index[0][0] if 0 in index else (sys.maxsize, 0, 0, None)
    work = dict(f)
    heap = [-m for m in work]
    heapify(heap)
    remainder: dict = {}
    pops = 0
    while heap:
        pops += 1
        if not pops & 1023 and deadline is not None and time.monotonic() > deadline:
            return None
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        marks = m + low & guard
        outside, above = ~marks, m | guard
        best, _, _, divisor = constant
        while marks:
            key = marks.bit_length()
            marks ^= 1 << key - 1
            for k, mask, lm, d in index.get(key, ()):
                if k >= best:
                    break
                if not mask & outside and above - lm & guard == guard:
                    best, divisor = k, d
                    break
        if divisor is None:
            remainder[m] = c
            continue
        tail, lm, lc, _ = divisor
        factor = c if lc == 1 else _quotient(c, lc)
        shift = m - lm
        for gm, gc in tail:
            t = gm + shift
            old = work.get(t)
            if old is None:
                work[t] = -(factor * gc)
                heappush(heap, -t)
                continue
            s = old - factor * gc
            if s:
                work[t] = s
            else:
                del work[t]
    return remainder


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if not (f.terms and g.terms):
        raise PolyError("zero polynomial has no leading term")
    packing = _Packing(f.variables() | g.variables(), f.degree() + g.degree())
    a, b = (_prepare(t, max(t), packing) for t in map(packing.terms, (f, g)))
    return _fractions([_s_polynomial(a, b, packing.lcm(a[1], b[1]))], packing)[0]


def _s_polynomial(a: Divisor, b: Divisor, l: int) -> dict:
    """S-polynomial of two prepared elements whose leading monomials have
    lcm l; the leading terms cancel, so only the tails are formed."""
    (ta, lma, lca, _), (tb, lmb, lcb, _) = a, b
    sa, sb = l - lma, l - lmb
    out = {m + sa: c if lca == 1 else _quotient(c, lca) for m, c in ta}
    for m, c in tb:
        t = m + sb
        c = c if lcb == 1 else _quotient(c, lcb)
        old = out.get(t)
        if old is None:
            out[t] = -c
        elif old != c:
            out[t] = old - c
        else:
            del out[t]
    return out


@dataclass
class GroebnerResult:
    status: str  # "complete" or "budget_exhausted"
    basis: list[Polynomial]
    stats: dict = field(default_factory=dict)

    @property
    def is_unit_ideal(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.basis)


# Pending S-pairs (i, j), i < j, with the packed lcm of the two leading
# monomials.
Pairs = dict[tuple[int, int], int]


def _update_pairs(
    pairs: Pairs,
    queue: list[tuple[int, int, int]],
    lms: list[int],
    masks: list[int],
    t: int,
    deadline: float | None,
    packing: _Packing,
) -> bool:
    """Pair update with the standard pruning criteria on adding element t,
    over packed leading monomials: the chain criterion drops old pairs
    from pairs, and each new pair (i, t) kept goes into pairs and, as
    (degree, i, t), onto the heap queue.  False once the deadline, read
    every 64 new pairs, has passed; pairs and queue are then unchanged."""
    lt, mt = lms[t], masks[t]
    guard, shift, lcm = packing.guard, packing.shift, packing.lcm
    # the lcm of pair (i, t) has the variables masks[i] | mt, and it is a
    # plain product where those are disjoint
    fresh = [lcm(lms[i], lt) if masks[i] & mt else lms[i] + lt for i in range(t)]
    # drop new pairs whose lcm is a proper multiple of another new pair's
    # lcm.  Only kept lcms of lower degree are tried, since one of equal
    # degree divides only by being equal.
    kept: list[tuple[int, int]] = []  # ascending in degree
    lower: list[tuple[int, int]] = []  # those below the current degree
    degree = -1
    first: dict[int, int] = {}  # the first kept i of each lcm
    for d, i in sorted((l >> shift, i) for i, l in enumerate(fresh)):
        if not i & 63 and deadline is not None and time.monotonic() > deadline:
            return False
        if d != degree:
            lower, degree = kept[:], d
        l, lmask = fresh[i], masks[i] | mt
        outside, above = ~lmask, l | guard
        for lj, jmask in lower:
            if not jmask & outside and above - lj & guard == guard:
                break
        else:
            kept.append((l, lmask))
            first.setdefault(l, i)
    # chain criterion on the old pairs
    drop = [
        (i, j)
        for (i, j), l in pairs.items()
        if not mt & ~(masks[i] | masks[j])
        and (l | guard) - lt & guard == guard
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
            heappush(queue, (l >> shift, i, t))
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
    optional trace list receives one event tuple per S-pair processed; a
    constant is kept as its Fraction, which may be too long for str().
    The time budget is checked every 1024 inputs made monic, 64 new
    pairs and 1024 reduced terms, and before each insertion, S-pair and
    interreduction step.  A run stopped while making inputs monic returns
    those made so far; one stopped while inserting them returns them all.
    A NaN time budget, which no clock passes, and a negative budget of
    any kind raise ValueError; a budget of zero is allowed.
    """
    if time_budget is not None and math.isnan(time_budget):
        raise ValueError("time budget is NaN")
    for name, budget in (
        ("time budget", time_budget),
        ("basis size cap", max_basis_size),
        ("degree cap", max_degree),
    ):
        if budget is not None and budget < 0:
            raise ValueError(f"{name} is negative: {budget}")
    t0 = time.monotonic()
    deadline = None if time_budget is None else t0 + time_budget
    stats = {"pairs_processed": 0, "zero_reductions": 0, "max_degree_seen": 0}
    trace = [] if trace is None else trace

    def out(status, basis: list[Polynomial]):
        result = GroebnerResult(status, basis, stats)
        stats["elapsed"] = time.monotonic() - t0
        return result

    def exhausted(reason: str, basis: list[Polynomial]):
        stats["reason"] = reason
        return out("budget_exhausted", basis)

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() > deadline

    # the nonzero inputs made monic, with their leading monomials, their
    # variables and their degree, which is that of their leading
    # monomials as the order is graded
    inputs: list[tuple[dict, Monomial]] = []
    variables: set[int] = set()
    for count, p in enumerate(polys, 1):
        if not count & 1023 and out_of_time():
            return exhausted("time", _fractions([q for q, _ in inputs], None))
        if p.is_zero():
            continue
        if p.is_constant():
            trace.append(("input_constant", p.constant_value()))
            return out("complete", [Polynomial.constant(1)])
        lm = p.leading_monomial()
        inputs.append((_monic({m: _scalar(c) for m, c in p.terms.items()}, lm), lm))
        variables |= p.variables()
        stats["max_degree_seen"] = max(stats["max_degree_seen"], mono_degree(lm))
    degree = stats["max_degree_seen"]

    def run(packing: _Packing) -> GroebnerResult | None:
        """The run on monomials packed this way; None if an S-pair's lcm
        reaches the guard bits."""

        def stop(reason: str, basis: list[dict]):
            return exhausted(reason, _fractions(basis, packing))

        # basis[k] is prepared once as divisors[k] and filed in index; lms
        # and masks repeat its leading monomial and variable mask for the
        # pair update.  queue holds (degree, i, j) for every pair put in
        # pairs, including those the chain criterion has dropped since:
        # those are skipped when popped, which is exact as no pair is put
        # in twice.
        basis: list[dict] = []
        divisors: list[Divisor] = []
        index: Index = {}
        lms: list[int] = []
        masks: list[int] = []
        pairs: Pairs = {}
        queue: list[tuple[int, int, int]] = []
        pack, shift = packing.pack, packing.shift
        limit = 1 << packing.width - 1

        def insert(p: dict, lm: int) -> bool:
            d = _prepare(p, lm, packing)
            k = len(basis)
            basis.append(p)
            divisors.append(d)
            _file(index, k, d)
            lms.append(lm)
            masks.append(d[3])
            return _update_pairs(pairs, queue, lms, masks, k, deadline, packing)

        for p, lm in inputs:
            if out_of_time() or not insert({pack(m): c for m, c in p.items()}, pack(lm)):
                return exhausted("time", _fractions([q for q, _ in inputs], None))

        truncated = False
        while queue:
            _, i, j = heappop(queue)
            l = pairs.pop((i, j), None)
            if l is None:
                continue
            if out_of_time():
                return stop("time", basis)
            if len(basis) > max_basis_size:
                return stop("basis_size", basis)
            if l >> shift >= limit:
                return None
            stats["pairs_processed"] += 1
            s = _s_polynomial(divisors[i], divisors[j], l)
            r = _reduce(s, index, packing, deadline)
            if r is None:
                return stop("time", basis)
            if not r:
                stats["zero_reductions"] += 1
                trace.append(("spair", i, j, "zero"))
                continue
            lm = max(r)
            if not lm:
                trace.append(("spair", i, j, "constant", QQ(r[0])))
                return out("complete", [Polynomial.constant(1)])
            d = lm >> shift
            stats["max_degree_seen"] = max(stats["max_degree_seen"], d)
            if max_degree is not None and d > max_degree:
                truncated = True
                trace.append(("spair", i, j, "degree_capped", d))
                continue
            if not insert(_monic(r, lm), lm):
                return stop("time", basis)
            trace.append(("spair", i, j, "new", len(basis) - 1))

        if truncated:
            return stop("degree", basis)

        # interreduce: drop elements with redundant leading monomials, then
        # fully reduce each survivor against the others
        live = []
        for k, lm in enumerate(lms):
            if out_of_time():
                return stop("time", basis)
            mk = masks[k]
            if not any(
                k2 != k
                and not masks[k2] & ~mk
                and packing.divides(lms[k2], lm)
                and (lms[k2] != lm or k2 < k)
                for k2 in range(len(lms))
            ):
                live.append(k)
        # Each survivor's leading term is divisible by no other survivor,
        # and its own leading monomial divides no smaller term, so its
        # tail is reduced against all survivors and its leading term (of
        # coefficient 1) put back first.
        index = _index((k, divisors[k]) for k in live)
        reduced = []
        for k in live:
            tail, lm, lc, _ = divisors[k]
            if out_of_time():
                return stop("time", basis)
            r = _reduce(dict(tail), index, packing, deadline)
            if r is None:
                return stop("time", basis)
            reduced.append((lm, {lm: lc, **r}))
        reduced.sort(key=itemgetter(0))
        return out("complete", _fractions([p for _, p in reduced], packing))

    packing, mark = _Packing(variables, degree), len(trace)
    while (result := run(packing)) is None:
        packing = _Packing(variables, degree, 2 * packing.width)
        stats.update(pairs_processed=0, zero_reductions=0, max_degree_seen=degree)
        del trace[mark:]
    return result
