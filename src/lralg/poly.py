"""Sparse multivariate polynomials over the rationals.

Variables are nonnegative integer ids.  Monomials are tuples of
(variable, exponent) pairs sorted by variable id with positive
exponents.  The term order is graded: total degree first, ties broken
so that a lower variable id counts as the bigger variable.

The module provides exact arithmetic, substitution and evaluation,
polynomial reduction, S-polynomials, and a budgeted Groebner-basis
routine with the standard pair-pruning criteria.  The basis routine
either finishes (possibly discovering that the ideal is the whole ring,
in which case the basis collapses to [1]) or stops at an explicit
budget and says so.
"""

import time
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Iterable, Mapping

from .linalg import QQ, qq

Monomial = tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()


class PolyError(ValueError):
    pass


class MissingAssignment(PolyError):
    def __init__(self, var: int):
        self.var = var
        super().__init__(f"no value assigned to variable {var}")


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


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


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    vb = {v for v, _ in b}
    return all(v not in vb for v, _ in a)


def mono_compare(a: Monomial, b: Monomial) -> int:
    """Graded order; ties go to the monomial with more of the bigger
    (lower-id) variable."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    ia, ib = dict(a), dict(b)
    for v in sorted(set(ia) | set(ib)):
        ea, eb = ia.get(v, 0), ib.get(v, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


MONO_KEY = cmp_to_key(mono_compare)


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
        return max(self.terms, key=MONO_KEY)

    def leading_term(self) -> tuple[Monomial, QQ]:
        m = self.leading_monomial()
        return m, self.terms[m]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term()
        if c == 1:
            return self
        return self.scale(QQ(1) / c)

    def sorted_terms(self) -> list[tuple[Monomial, QQ]]:
        """Terms from biggest monomial down."""
        return sorted(self.terms.items(), key=lambda t: MONO_KEY(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, QQ(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __radd__(self, other) -> "Polynomial":
        """rational + polynomial, so that sparse vectors may mix both."""
        return Polynomial.constant(other) + self

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.constant(other) - self

    def scale(self, c) -> "Polynomial":
        c = qq(c)
        if c == 1:
            return self
        p = Polynomial.__new__(Polynomial)
        p.terms = {} if c == 0 else {m: c * x for m, x in self.terms.items()}
        return p

    def mul_term(self, mono: Monomial, coeff: QQ) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        if coeff == 0:
            p.terms = {}
        else:
            p.terms = {mono_mul(m, mono): c * coeff for m, c in self.terms.items()}
        return p

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
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

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
        """Replace each variable with a polynomial; untouched variables stay."""
        cache: dict[tuple[int, int], Polynomial] = {}

        def pw(v: int, e: int) -> Polynomial:
            key = (v, e)
            if key not in cache:
                base = subs.get(v)
                if base is None:
                    cache[key] = Polynomial({((v, e),): QQ(1)})
                else:
                    cache[key] = base.power(e)
            return cache[key]

        acc = Polynomial.zero()
        for m, c in self.terms.items():
            t = Polynomial.constant(c)
            for v, e in m:
                t = t * pw(v, e)
            acc = acc + t
        return acc

    def to_string(self, namer=None) -> str:
        if not self.terms:
            return "0"
        namer = namer or (lambda v: f"x{v}")
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for v, e in m:
                factors.append(namer(v) if e == 1 else f"{namer(v)}^{e}")
            body = " * ".join(factors)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c} * {body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def reduce_full(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Fully reduce f modulo the basis (remainder of multivariate division)."""
    gs = [(g, g.leading_term()) for g in basis if not g.is_zero()]
    work = dict(f.terms)
    remainder: dict[Monomial, QQ] = {}
    while work:
        m = max(work, key=MONO_KEY)
        c = work[m]
        hit = None
        for g, (lm, lc) in gs:
            if mono_divides(lm, m):
                hit = (g, lm, lc)
                break
        if hit is None:
            del work[m]
            remainder[m] = remainder.get(m, QQ(0)) + c
            continue
        g, lm, lc = hit
        factor = c / lc
        shift = mono_div(m, lm)
        for gm, gc in g.terms.items():
            t = mono_mul(gm, shift)
            s = work.get(t, QQ(0)) - factor * gc
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    p = Polynomial.__new__(Polynomial)
    p.terms = {m: c for m, c in remainder.items() if c != 0}
    return p


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    l = mono_lcm(lmf, lmg)
    return f.mul_term(mono_div(l, lmf), QQ(1) / lcf) - g.mul_term(
        mono_div(l, lmg), QQ(1) / lcg
    )


@dataclass
class GroebnerResult:
    status: str  # "complete" or "budget_exhausted"
    basis: list[Polynomial]
    stats: dict = field(default_factory=dict)

    @property
    def is_unit_ideal(self) -> bool:
        return any(p.is_constant() and not p.is_zero() for p in self.basis)


def _update_pairs(
    pairs: set[tuple[int, int]],
    lms: list[Monomial],
    t: int,
) -> set[tuple[int, int]]:
    """Pair update with the standard pruning criteria on adding element t."""
    lt = lms[t]
    fresh = {i: mono_lcm(lms[i], lt) for i in range(t)}
    # drop new pairs whose lcm is a proper multiple of another new pair's lcm
    keep: dict[int, Monomial] = {}
    for i, l in sorted(fresh.items(), key=lambda kv: (mono_degree(kv[1]), kv[0])):
        redundant = False
        for j, lj in keep.items():
            if lj != l and mono_divides(lj, l):
                redundant = True
                break
        if not redundant:
            keep[i] = l
    # among equal lcms keep a single representative
    by_lcm: dict[Monomial, int] = {}
    for i, l in keep.items():
        if l not in by_lcm:
            by_lcm[l] = i
    kept = set(by_lcm.values())
    # drop pairs with coprime leading terms outright
    new_pairs = {
        (i, t)
        for i in kept
        if not mono_coprime(lms[i], lt)
    }
    # chain criterion on the old pairs
    survivors = set()
    for (i, j) in pairs:
        l = mono_lcm(lms[i], lms[j])
        if (
            mono_divides(lt, l)
            and mono_lcm(lms[i], lt) != l
            and mono_lcm(lms[j], lt) != l
        ):
            continue
        survivors.add((i, j))
    return survivors | new_pairs


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
    """
    t0 = time.monotonic()
    stats = {"pairs_processed": 0, "zero_reductions": 0, "max_degree_seen": 0}

    def out(status, basis):
        stats["elapsed"] = time.monotonic() - t0
        return GroebnerResult(status, basis, stats)

    g: list[Polynomial] = []
    for p in polys:
        if p.is_zero():
            continue
        if p.is_constant():
            if trace is not None:
                trace.append(("input_constant", str(p.constant_value())))
            return out("complete", [Polynomial.constant(1)])
        g.append(p.monic())
        stats["max_degree_seen"] = max(stats["max_degree_seen"], p.degree())

    lms: list[Monomial] = []
    pairs: set[tuple[int, int]] = set()
    basis: list[Polynomial] = []
    for p in g:
        basis.append(p)
        lms.append(p.leading_monomial())
        pairs = _update_pairs(pairs, lms, len(basis) - 1)

    truncated = False
    while pairs:
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            stats["reason"] = "time"
            return out("budget_exhausted", basis)
        if len(basis) > max_basis_size:
            stats["reason"] = "basis_size"
            return out("budget_exhausted", basis)
        pair = min(
            pairs,
            key=lambda ij: (
                mono_degree(mono_lcm(lms[ij[0]], lms[ij[1]])),
                ij,
            ),
        )
        pairs.discard(pair)
        i, j = pair
        stats["pairs_processed"] += 1
        s = s_polynomial(basis[i], basis[j])
        r = reduce_full(s, basis)
        if r.is_zero():
            stats["zero_reductions"] += 1
            if trace is not None:
                trace.append(("spair", i, j, "zero"))
            continue
        if r.is_constant():
            if trace is not None:
                trace.append(("spair", i, j, "constant", str(r.constant_value())))
            return out("complete", [Polynomial.constant(1)])
        d = r.degree()
        stats["max_degree_seen"] = max(stats["max_degree_seen"], d)
        if max_degree is not None and d > max_degree:
            truncated = True
            if trace is not None:
                trace.append(("spair", i, j, "degree_capped", d))
            continue
        r = r.monic()
        basis.append(r)
        lms.append(r.leading_monomial())
        t = len(basis) - 1
        if trace is not None:
            trace.append(("spair", i, j, "new", t))
        pairs = _update_pairs(pairs, lms, t)

    if truncated:
        stats["reason"] = "degree"
        return out("budget_exhausted", basis)

    # interreduce: drop elements with redundant leading monomials, then
    # fully reduce each survivor against the others
    live = []
    for k, b in enumerate(basis):
        lm = lms[k]
        if any(
            k2 != k and mono_divides(lms[k2], lm) and (lms[k2] != lm or k2 < k)
            for k2 in range(len(basis))
        ):
            continue
        live.append(b)
    reduced = []
    for idx, b in enumerate(live):
        others = live[:idx] + live[idx + 1 :]
        r = reduce_full(b, others)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda p: MONO_KEY(p.leading_monomial()))
    if any(p.is_constant() for p in reduced):
        reduced = [Polynomial.constant(1)]
    return out("complete", reduced)


def ideal_membership(f: Polynomial, basis: Iterable[Polynomial]) -> bool:
    """Is f in the ideal generated by a completed basis?"""
    return reduce_full(f, basis).is_zero()
