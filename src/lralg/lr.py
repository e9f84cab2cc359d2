"""LR-algebras: bilinear products whose left and right multiplications
each commute, tied to a Lie algebra by product minus opposite product.

Axioms, for all x, y, z:

    LR1   x(yz) = y(xz)
    LR2   (xy)z = (xz)y
    compat  xy - yx = [x, y]

All checks run over basis tuples, which is equivalent by multilinearity.
The lemma suite, the catalog's cross-check, re-proves on an instance the
identities that hold in every LR-algebra; its trilinear ones run per basis
pair on the generic vector sum_k t_k e_k, with the per-triple report.
The identities among them that are linear in the product are written
once, as functions of the product and the bracket, and are also the
source of the structural constraint rows: constraints evaluates them on
the generic product, whose coordinates are the unknowns.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .lie import (
    LieAlgebra,
    SparseVec,
    _densify,
    _sparsify,
    basis_action,
    basis_operator,
    bilinear_sparse,
    bracket_subspaces,
    lower_central_series,
    sparse_add as _add,
    sparse_sub as _sub,
    table_from_entries,
    upper_central_series,
    vector_operator,
)
from .linalg import QQ, Matrix, Subspace, Vector, kernel, operator_is_nilpotent
from .poly import Polynomial


class LRError(ValueError):
    pass


class LR1Violation(LRError):
    def __init__(self, i, j, k, residual):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"left multiplications fail to commute on basis triple "
            f"({i + 1}, {j + 1}, {k + 1}); residual {residual}"
        )


class LR2Violation(LRError):
    def __init__(self, i, j, k, residual):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"right multiplications fail to commute on basis triple "
            f"({i + 1}, {j + 1}, {k + 1}); residual {residual}"
        )


class CompatViolation(LRError):
    def __init__(self, i, j, residual):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(
            f"product does not reproduce the bracket at basis pair "
            f"({i + 1}, {j + 1}); residual {residual}"
        )


@dataclass(frozen=True)
class Violation:
    check: str
    where: tuple
    residual: tuple


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]
    counts: dict[str, int]

    def by_check(self, check: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.check == check)


class Checks:
    """The bookkeeping behind every verification report: a count per
    check name and the violations in run order, each residual dense.

    `names` are counted from zero even when no check of theirs runs;
    `bulk` counts a block at once and records only its nonzero residuals.
    """

    def __init__(self, dim: int, names: Sequence[str] = ()):
        self.dim = dim
        self.counts = dict.fromkeys(names, 0)
        self.violations: list[Violation] = []

    def sparse(self, name: str, where: tuple, residual: SparseVec) -> None:
        """A sparse residual of length dim; nonzero is a violation."""
        self.bulk({name: 1}, [(name, where, residual)] if residual else ())

    def bulk(self, counts: dict[str, int], failed: Iterable[tuple]) -> None:
        """counts[name] checks of each name, of which `failed` holds the
        nonzero ones as (name, where, sparse residual) in run order."""
        self.counts.update((k, self.counts.get(k, 0) + c) for k, c in counts.items() if c)
        for name, where, residual in failed:
            self.violations.append(Violation(name, where, _densify(self.dim, residual)))

    def flag(self, name: str, where: tuple, failed: bool, residual=()) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if failed:
            self.violations.append(Violation(name, where, residual))

    def report(self) -> VerificationReport:
        ok = not self.violations
        return VerificationReport(ok, tuple(self.violations), self.counts)


class LRAlgebra:
    """Lie algebra plus a product tensor.  Use lr_from_table for the
    validating constructor; this one trusts its input (verify_axioms can
    always be called on the result)."""

    __slots__ = ("g", "table", "complete")

    def __init__(self, g: LieAlgebra, table: dict[tuple[int, int], SparseVec]):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "complete", self._compute_complete())

    def __setattr__(self, name, value):
        raise AttributeError("LRAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.g.dim

    def _compute_complete(self) -> bool:
        # Left multiplications commute in a valid instance, so nilpotency
        # of every L(x) follows from nilpotency of the basis operators,
        # whose columns L(e_i) e_j are the table entries.
        n, t = self.g.dim, self.table
        return all(
            operator_is_nilpotent([t.get((i, j), {}) for j in range(n)])
            for i in range(n)
        )

    # -- products ------------------------------------------------------

    def product_basis(self, i: int, j: int) -> SparseVec:
        """e_i . e_j (0-based), sparse."""
        return self.table.get((i, j), {})

    def product(self, u: Vector, v: Vector) -> Vector:
        uv = bilinear_sparse(self.table, _sparsify(u), _sparsify(v))
        return _densify(self.dim, uv)

    def product_sparse(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return bilinear_sparse(self.table, u, v)

    def left_mult(self, x: Vector) -> Matrix:
        """Matrix of y -> x . y."""
        return vector_operator(self.table, self.dim, x, True)

    def right_mult(self, x: Vector) -> Matrix:
        """Matrix of y -> y . x."""
        return vector_operator(self.table, self.dim, x, False)

    def left_mult_basis(self, i: int) -> Matrix:
        return basis_operator(self.table, self.dim, i, True)

    def right_mult_basis(self, i: int) -> Matrix:
        return basis_operator(self.table, self.dim, i, False)

    def product_tensor(self) -> tuple:
        n = self.dim
        return tuple(
            tuple(_densify(n, self.table.get((i, j), {})) for j in range(n))
            for i in range(n)
        )

    def __repr__(self):
        return f"LRAlgebra(dim {self.dim}, complete={self.complete})"

    def __eq__(self, other):
        return (
            isinstance(other, LRAlgebra)
            and self.g == other.g
            and self.table == other.table
        )


def lr_from_table(
    g: LieAlgebra,
    entries: Iterable[tuple[int, int, Sequence]],
    validate: bool = True,
) -> LRAlgebra:
    """Validating constructor from 1-based (i, j, vector) with e_i.e_j = vector.

    Products are not antisymmetric, so each ordered pair stands on its own;
    pairs not listed multiply to zero.  Raises the typed axiom violation
    carrying the first violation of the full verify_axioms report; with
    validate=False the table is only checked for shape, so callers can run
    verify_axioms themselves for a full report.
    """
    table = table_from_entries(
        g.dim, entries, "product", lambda i, j, v: (((i, j), _sparsify(v)),)
    )
    a = LRAlgebra(g, table)
    if validate:
        report = verify_axioms(a)
        if not report.ok:
            v = report.violations[0]
            raisers = dict(left_commute=LR1Violation, right_commute=LR2Violation)
            raise raisers.get(v.check, CompatViolation)(*v.where, v.residual)
    return a


def lr1_residual(table, u: int, v: int, w: int) -> SparseVec:
    """LR1(u, v, w) = e_u(e_v e_w) - e_v(e_u e_w) on the product `table`.
    With lr2_residual and compat_residual, the one place each axiom is
    written; scalars may be rationals or polynomials."""
    return _sub(
        basis_action(table, u, table.get((v, w), {}), True),
        basis_action(table, v, table.get((u, w), {}), True),
    )


def lr2_residual(table, u: int, v: int, w: int) -> SparseVec:
    """LR2(u, v, w) = (e_u e_v)e_w - (e_u e_w)e_v on the product `table`."""
    return _sub(
        basis_action(table, w, table.get((u, v), {}), False),
        basis_action(table, v, table.get((u, w), {}), False),
    )


def compat_residual(table, brackets, u: int, v: int) -> SparseVec:
    """e_u e_v - e_v e_u - [e_u, e_v], the bracket read from `brackets`."""
    uv = _sub(table.get((u, v), {}), table.get((v, u), {}))
    return _sub(uv, brackets.get((u, v), {}))


def verify_axioms(a: LRAlgebra) -> VerificationReport:
    """Check LR1, LR2 and bracket compatibility over all basis tuples.

    LR1(i, j, k) acts on e_i e_k and e_j e_k, LR2(k, i, j) on e_k e_i and
    e_k e_j; where the table holds none of them every term is zero.  So
    the axioms are evaluated only where an inner product can be nonzero,
    and the other triples are counted in bulk."""
    n, t, brackets = a.dim, a.table, a.g.table
    right_of = [{k for u, k in t if u == i} for i in range(n)]  # (i, k) a key
    left_of = [{k for k, v in t if v == i} for i in range(n)]  # (k, i) a key
    failed = []
    for i in range(n):
        for j in range(i + 1, n):
            if res := compat_residual(t, brackets, i, j):
                failed.append(("compat", (i, j), res))
            lks, rks = right_of[i] | right_of[j], left_of[i] | left_of[j]
            for k in sorted(lks | rks):
                if k in lks and (res := lr1_residual(t, i, j, k)):
                    failed.append(("left_commute", (i, j, k), res))
                if k in rks and (res := lr2_residual(t, k, i, j)):
                    failed.append(("right_commute", (k, i, j), res))
    checks = Checks(n, ("left_commute", "right_commute", "compat"))
    pairs = n * (n - 1) // 2
    checks.bulk(dict(left_commute=n * pairs, right_commute=n * pairs, compat=pairs), failed)
    return checks.report()


def is_complete(a: LRAlgebra) -> bool:
    return a.complete


def center(a: LRAlgebra) -> Subspace:
    """Kernel of all L(e_i) - R(e_i); coincides with the Lie center.

    Row (i, m) holds (e_i e_j - e_j e_i)[m] at column j, so the entry
    e_i e_j adds to row (i, m) at column j and takes from row (j, m) at
    column i."""
    rows: dict[tuple[int, int], SparseVec] = {}
    for (i, j), w in a.table.items():
        for m, c in w.items():
            for key, col, x in (((i, m), j, c), ((j, m), i, -c)):
                row = rows.setdefault(key, {})
                row[col] = row[col] + x if col in row else x
    return kernel(a.dim, rows.values())


def ideal_product(a: LRAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of s . t."""
    return Subspace.from_sparse(
        a.dim, (a.product_sparse(u, v) for u in s.rows for v in t.rows)
    )


# -- identities linear in the product ------------------------------------
#
# Each function below is an identity that holds in every LR-algebra and
# is linear in the product.  The product and the bracket come in as
# bilinear maps on sparse vectors; the result is a sparse residual that
# is zero exactly when the identity holds at the given arguments.
# lemma_suite evaluates them with an instance's own product; the
# structural reduction evaluates them with the generic product, whose
# coordinates are the unknowns, so that each residual component is a
# linear row.  Scalars are rationals or polynomials alike.
#
# `act` is one side of the product: the product itself, (x, v) -> x.v,
# for left multiplications, or opposite(product), (x, v) -> v.x, for
# right multiplications.


def _modulo(s: Subspace, v: SparseVec) -> SparseVec:
    """v reduced by the basis of s; zero iff v lies in s."""
    if not v or not s.dim:
        return v
    return s.reduce_sparse(v)


def opposite(prod):
    """The opposite product (x, v) -> v.x, whose left side is R_x."""
    return lambda x, v: prod(v, x)


def derivation_residual(brak, act, x, y, z) -> SparseVec:
    """M_x [y, z] - [M_x y, z] - [y, M_x z] with M_x v = act(x, v):
    left and right multiplications are derivations of the bracket."""
    return _sub(
        act(x, brak(y, z)), _add(brak(act(x, y), z), brak(y, act(x, z)))
    )


def ad_product_residual(brak, act, sign, x, y, z) -> SparseVec:
    """(ad [x, y] - sign ([ad x, M_y] + [M_x, ad y])) z with M_u v = act(u, v).

    Zero with sign 1 for left multiplications (act the product) and with
    sign -1 for right multiplications (act the opposite product).
    """
    rhs = _sub(brak(x, act(y, z)), act(y, brak(x, z)))
    rhs = _sub(_add(rhs, act(x, brak(y, z))), brak(y, act(x, z)))
    lhs = brak(brak(x, y), z)
    return _sub(lhs, rhs) if sign > 0 else _add(lhs, rhs)


def ideal_residual(act, s: Subspace, x: SparseVec, v: SparseVec) -> SparseVec:
    """act(x, v) modulo s: zero for v in s when s is a term of the lower
    or upper central series, which are two-sided ideals."""
    return _modulo(s, act(x, v))


def center_kills_derived_residual(act, z: SparseVec, d: SparseVec) -> SparseVec:
    """act(z, d): zero for z central and d in the derived algebra."""
    return act(z, d)


def grading_residual(prod, target: Subspace, u: SparseVec, v: SparseVec) -> SparseVec:
    """u.v modulo target: zero for u in gamma_{i+1}, v in gamma_{j+1} and
    target gamma_{i+j+1} (lower central series)."""
    return _modulo(target, prod(u, v))


def is_two_sided_ideal(a: LRAlgebra, s: Subspace) -> bool:
    """A.s inside s and s.A inside s, checked on basis elements."""
    return not any(
        _modulo(s, basis_action(a.table, i, v, left))
        for v in s.rows
        for i in range(a.dim)
        for left in (True, False)
    )


def _at_basis(n: int, residual: SparseVec) -> list[SparseVec]:
    """Split a residual linear in z = sum_k t_k e_k into those at each e_k."""
    split: list[SparseVec] = [{} for _ in range(n)]
    for comp, p in residual.items():
        for m, c in p.terms.items():
            if len(m) != 1 or m[0][1] != 1:
                raise RuntimeError(f"residual not linear in z: monomial {m}")
            split[m[0][0]][comp] = c
    return split


def _through_generic(table, n: int, z: SparseVec):
    """The bilinear map of `table`, with u.z = sum_m u_m (e_m.z) and z.v
    built from the images e_m.z and z.e_m, each computed once here."""
    zl = [basis_action(table, m, z, True) for m in range(n)]  # e_m.z
    zr = [basis_action(table, m, z, False) for m in range(n)]  # z.e_m

    def op(u: SparseVec, v: SparseVec) -> SparseVec:
        if v is not z and u is not z:
            return bilinear_sparse(table, u, v)
        w, img = (u, zl) if v is z else (v, zr)
        acc: SparseVec = {}
        for m, c in w.items():
            term = img[m] if c == 1 else {k: p * c for k, p in img[m].items()}
            acc = _add(acc, term) if acc else term
        return acc

    return op


_EXHAUSTIVE_4TUPLE_CUTOFF = 20


def lemma_suite(a: LRAlgebra) -> VerificationReport:
    """Re-derive, on this instance, identities valid in every LR-algebra.

    Exact residuals throughout; any nonzero residual is reported with the
    tuple of basis indices (or series indices) that produced it.  The
    identities linear in the product are the ones the structural
    constraint reduction turns into rows; those linear in their last
    argument run per pair (i, j) on the generic vector z, reading the
    images e_m z, z e_m and [e_m, z] computed once per call, and report
    each (i, j, k) as a loop over k would.  The two quartic identities run
    over bases of the product span / derived subalgebra once the
    dimension makes the raw 4-tuple loop unreasonable (by bilinearity).
    """
    n = a.dim
    g = a.g
    checks = Checks(n)
    basis = [{i: QQ(1)} for i in range(n)]
    # the generic vector z: a residual's coefficient of t_k is its value at e_k
    z = {k: Polynomial.variable(k) for k in range(n)}
    prod = _through_generic(a.table, n, z)
    rprod = opposite(prod)
    brak = _through_generic(g.table, n, z)

    def per_pair(left: str, right: str, residual) -> None:
        failed = []
        for i in range(n):
            for j in range(n):
                lres = _at_basis(n, residual(prod, 1, basis[i], basis[j]))
                rres = _at_basis(n, residual(rprod, -1, basis[i], basis[j]))
                for k in range(n):
                    if lres[k]:
                        failed.append((left, (i, j, k), lres[k]))
                    if rres[k]:
                        failed.append((right, (i, j, k), rres[k]))
        checks.bulk({left: n**3, right: n**3}, failed)

    # cyclic product identities
    def cycle(act, _, x, y):
        bxy, byz, bzx = brak(x, y), brak(y, z), brak(z, x)
        return _add(_add(act(bxy, z), act(byz, x)), act(bzx, y))

    per_pair("product_cycle_left", "product_cycle_right", cycle)

    # ad [x, y] from the ad and multiplication operators of x and y
    per_pair(
        "ad_product_rule_left",
        "ad_product_rule_right",
        lambda act, sign, x, y: ad_product_residual(brak, act, sign, x, y, z),
    )

    lcs = lower_central_series(g)
    derived = lcs.term(2)

    # quartic identities over the nonzero basis products and brackets; past
    # the cutoff, over bases of the product span and the derived algebra
    pairs = [(i, j) for i in range(n) for j in range(n)]
    prods = [(ij, v) for ij in pairs if (v := a.product_basis(*ij))]
    braks = [(ij, v) for ij in pairs if (v := g.bracket_basis(*ij))]
    tag = ()
    if n > _EXHAUSTIVE_4TUPLE_CUTOFF:
        tag = ("span",)
        pspan = Subspace.from_sparse(n, (v for _, v in prods))
        prods = [((k,), u) for k, u in enumerate(pspan.rows)]
        braks = [((k,), u) for k, u in enumerate(derived.rows)]
    for ku, u in prods:
        for kv, v in prods:
            res = _sub(prod(u, v), prod(v, u))
            checks.sparse("product_square_commute", tag + ku + kv, res)
    for ku, u in braks:
        for kv, v in braks:
            checks.sparse("derived_brackets_vanish", tag + ku + kv, brak(u, v))

    # the associated Lie algebra is solvable in two steps
    second_derived = bracket_subspaces(g, derived, derived)
    checks.flag("two_step_solvable", (), second_derived.dim != 0)

    # series terms are two-sided ideals
    ucs = upper_central_series(g)
    depth = max(len(lcs.terms), len(ucs.terms))
    for idx, s in enumerate(lcs.terms[: depth + 1]):
        ok = is_two_sided_ideal(a, s)
        checks.flag("lower_series_two_sided_ideal", ("gamma", idx + 1), not ok)
    for idx, s in enumerate(ucs.terms[:depth]):
        ok = is_two_sided_ideal(a, s)
        checks.flag("upper_series_two_sided_ideal", ("Z", idx + 1), not ok)

    # center annihilates the derived subalgebra on both sides
    zb, db = center(a).rows, derived.rows
    for side, act in (("left", prod), ("right", rprod)):
        checks.flag(
            "center_kills_derived",
            (side,),
            any(center_kills_derived_residual(act, z, d) for z in zb for d in db),
        )

    # graded containment: gamma_{i+1} . gamma_{j+1} inside gamma_{i+j+1}
    gamma = lcs.term
    for i in range(1, depth + 1):
        for j in range(1, depth + 1):
            target = gamma(i + j + 1)
            checks.flag(
                "series_product_grading",
                (i + 1, j + 1),
                any(
                    grading_residual(prod, target, u, v)
                    for u in gamma(i + 1).rows
                    for v in gamma(j + 1).rows
                ),
            )

    # left and right multiplications act as bracket derivations
    per_pair(
        "left_derivation",
        "right_derivation",
        lambda act, _, x, y: derivation_residual(brak, act, x, y, z),
    )

    return checks.report()
