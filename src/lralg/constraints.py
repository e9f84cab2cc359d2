"""Polynomial constraint systems deciding whether a Lie algebra carries
an LR-structure.

A product on a Lie algebra g of dimension n is a tensor of n^3 unknowns

    x[i][j][k] = coefficient of e_j in e_i . e_k

so that the left multiplication by e_i is the matrix L_i with entries
(L_i)[j][k] = x[i][j][k] and the right one the matrix R_i with entries
(R_i)[j][k] = x[k][j][i].  Variable ids and names of the unknowns come
from one codec: x_index, its inverse x_triple, and x_name.  The
generated system consists of

  * linear rows forcing product-minus-opposite to equal the bracket,
  * quadratic rows forcing the left multiplications to commute,
  * quadratic rows forcing the right multiplications to commute,

and has a solution exactly when an LR-structure exists.  A commute row
is entry (a, b) of O_i O_j - O_j O_i, i < j, for O = L or O = R: the
sum over m of O_i[a][m] O_j[m][b] - O_j[a][m] O_i[m][b].  Each of these
2n products multiplies two distinct unknowns, and no two of them are
the same monomial but the pair at m == a == b, which cancels.  So a row
is written as its products with coefficient +1 or -1, with nothing to
sum, square or cancel, and no row is empty.

Structural reduction adds linear consequences of the axioms: the lemma
suite's identities that are linear in the product, evaluated on the
generic product whose coordinates are the unknowns, one tagged row per
nonzero residual component.  It then runs sparse Gaussian elimination,
substitutes the eliminated forms into the nonlinear rows with
Polynomial.substitute, and iterates while new linear rows keep
appearing.  Every row is kept in every round, and the added rows hold on
every LR-structure, so the reduced system has the solutions of the
input rows that are LR-structures on g; for a generated system, with or
without appended rows, that is exactly its solution set.  In the first
round only the generator's own left commute rows with a live cell, a
product of two entries not sent to 0, are substituted
(_live_left_rows), since most unknowns go to 0 and every other left row
substitutes to 0; the right commute rows need nothing, since
compatibility and the derivation rows make each one's image its left
twin's.
Certification feeds the residual polynomials to the budgeted Groebner
engine and reports inconsistency, possible solvability, or budget
exhaustion.

Generation and structural reduction run with the cyclic garbage
collector paused (_gc_paused).  They allocate tens of thousands of term
dicts that stay alive and form no reference cycles, so the collections
their allocations trigger walk the growing system and free nothing; on
g13 they took about a quarter of the two stages' wall time.

The linear rows of a round reach the eliminator as ints wherever their
values are integral, sorted, and each distinct row once: on g13, 20,066
of the 31,735 round-1 rows repeat the row before them, and a repeat
only reduces to zero.  The identity rows are built in that form.
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, combinations, permutations, product as iproduct
from operator import is_
from typing import Mapping

from .lie import LieAlgebra, SparseVec, bilinear_sparse, center as lie_center
from .lie import derived_series, lower_central_series, upper_central_series
from .lie import _sparsify, sparse_add, sparse_sub
from .linalg import QQ, Eliminator, Matrix, Subspace, _scalar, qq
from .lr import (
    LRAlgebra,
    center_kills_derived_residual,
    compat_residual,
    derivation_residual,
    grading_residual,
    ideal_product,
    ideal_residual,
    opposite,
)
from .poly import (
    GroebnerResult,
    MissingAssignment,
    Polynomial,
    groebner_basis,
)


class ConstraintError(ValueError):
    pass


class IncompleteAssignment(ConstraintError):
    def __init__(self, var_name: str):
        self.var_name = var_name
        super().__init__(f"assignment is missing a value for {var_name}")


def x_index(n: int, i: int, j: int, k: int) -> int:
    """Variable id of x[i+1][j+1][k+1] (0-based i, j, k) when dim is n."""
    return (i * n + j) * n + k


def x_triple(n: int, v: int) -> tuple[int, int, int]:
    """0-based (i, j, k) of variable id v; the inverse of x_index."""
    i, rem = divmod(v, n * n)
    j, k = divmod(rem, n)
    return i, j, k


def x_name(n: int, v: int) -> str:
    """Variable id v written x[i][j][k], 1-based."""
    i, j, k = x_triple(n, v)
    return f"x[{i + 1}][{j + 1}][{k + 1}]"


@dataclass
class ConstraintSystem:
    """The raw polynomial system for products on a fixed Lie algebra."""

    g: LieAlgebra
    polys: list[Polynomial]
    tags: list[str]
    # the rows generate_lr_system built, in its order; while polys begins
    # with these very objects, structural_reduce's first round substitutes
    # only the left commute rows with a live cell and drops the right ones
    _generated: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def nvars(self) -> int:
        return self.g.dim ** 3

    def var_index(self, i: int, j: int, k: int) -> int:
        return x_index(self.g.dim, i, j, k)

    def var_triple(self, v: int) -> tuple[int, int, int]:
        return x_triple(self.g.dim, v)

    def var_name(self, v: int) -> str:
        return x_name(self.g.dim, v)

    def used_variables(self) -> set[int]:
        out: set[int] = set()
        for p in self.polys:
            out |= p.variables()
        return out


@contextmanager
def _gc_paused():
    """Run the body with the cyclic garbage collector off, then restore
    the collector's previous state, also when the body raises.

    When the collector was on and the caller has frozen nothing, the
    objects the body left alive go straight to the oldest generation
    (gc.freeze then gc.unfreeze, two list splices): the young sweep that
    would otherwise walk them on return frees nothing, since they form
    no cycles.  The next full collection walks them once, as it would
    have.  Objects the caller froze stay frozen: with a nonzero freeze
    count the generations are left alone."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _generic_product(n: int) -> dict:
    """The generic product: component a of e_p . e_q is the unknown
    x[p][a][q], a degree-1 Polynomial with int coefficient 1."""
    return {
        (p, q): {a: Polynomial.wrap({((x_index(n, p, a, q), 1),): 1}) for a in range(n)}
        for p in range(n)
        for q in range(n)
    }


def _ints(v: SparseVec) -> SparseVec:
    """v in ascending coordinates, each integral entry as an int."""
    return {k: _scalar(v[k]) for k in sorted(v)}


def _row(fractions: dict, terms: dict) -> Polynomial:
    """The polynomial of these terms, each coefficient replaced by the one
    Fraction `fractions` keeps for its value."""
    get, put = fractions.get, fractions.setdefault
    return Polynomial.wrap({m: get(x) or put(x, QQ(x)) for m, x in terms.items()})


@_gc_paused()
def generate_lr_system(g: LieAlgebra) -> ConstraintSystem:
    """The axioms on the generic product, in a fixed deterministic order:
    the compatibility rows lr.compat_residual(i, j), i < j, then the left
    and the right commute rows (i, j, a, b), i < j: component a of
    lr.lr1_residual(i, j, b) and of lr.lr2_residual(b, j, i), written as
    the distinct products of entry (a, b) of O_i O_j - O_j O_i, in the
    order of m, the + product before the - one, m == a == b left out.
    That makes n*C(n,2) + 2*C(n,2)*n^2 rows.  Evaluating the residuals
    generically took ten times as long on g13; a test holds the rows to
    them.  Each coefficient is the one Fraction this call keeps for its
    value."""
    n = g.dim
    plus, minus = QQ(1), QQ(-1)
    fractions = {1: plus, -1: minus}
    table = _generic_product(n)
    brackets = {key: _ints(v) for key, v in g.table.items()}
    polys: list[Polynomial] = []
    for i in range(n):
        for j in range(i + 1, n):
            res = compat_residual(table, brackets, i, j)
            polys.extend(_row(fractions, res[k].terms) for k in sorted(res))
    tags = ["compatibility"] * len(polys)

    # entry (a, m) of the left and the right multiplication by e_i
    left = [[[x_index(n, i, a, m) for m in range(n)] for a in range(n)] for i in range(n)]
    right = [[[x_index(n, m, a, i) for m in range(n)] for a in range(n)] for i in range(n)]
    # the pair (v, 1) of x_v, shared by every monomial that uses it
    lin = [(v, 1) for v in range(n ** 3)]

    for tag, ops in (("left_commute", left), ("right_commute", right)):
        # cols[i][b][m] is entry (m, b) of the operator of e_i
        cols = [[list(col) for col in zip(*op)] for op in ops]
        for i in range(n):
            for j in range(i + 1, n):
                for a, (row_i, row_j) in enumerate(zip(ops[i], ops[j])):
                    for b, (col_i, col_j) in enumerate(zip(cols[i], cols[j])):
                        skip = a if a == b else -1
                        row: dict = {}
                        for m, (v1, v2, w1, w2) in enumerate(
                            zip(row_i, col_j, row_j, col_i)
                        ):
                            if m != skip:
                                row[(lin[v1], lin[v2]) if v1 < v2 else (lin[v2], lin[v1])] = plus
                                row[(lin[w1], lin[w2]) if w1 < w2 else (lin[w2], lin[w1])] = minus
                        polys.append(Polynomial.wrap(row))
                        tags.append(tag)
    system = ConstraintSystem(g, polys, tags)
    system._generated = tuple(polys)
    return system


def assignment_from_lr(a: LRAlgebra) -> dict[int, QQ]:
    """Full variable assignment read off an actual product tensor."""
    n = a.dim
    out: dict[int, QQ] = {}
    for i in range(n):
        for k in range(n):
            prod = a.product_basis(i, k)
            for j in range(n):
                out[x_index(n, i, j, k)] = prod.get(j, QQ(0))
    return out


def evaluate_candidate(
    system: ConstraintSystem, assignment: Mapping[int, QQ] | LRAlgebra
) -> list[tuple[int, str, QQ]]:
    """Evaluate every constraint at a candidate product.

    The candidate is either a full variable assignment or an LR-algebra
    on the same underlying Lie algebra.  Returns (index, tag, value) for
    each constraint with a nonzero value; raises IncompleteAssignment
    when a needed variable has no value.
    """
    if isinstance(assignment, LRAlgebra):
        if assignment.g != system.g:
            raise ConstraintError(
                "candidate lives on a different Lie algebra than the system"
            )
        assignment = assignment_from_lr(assignment)
    bad = []
    for idx, (p, tag) in enumerate(zip(system.polys, system.tags)):
        try:
            v = p.evaluate(assignment)
        except MissingAssignment as exc:
            raise IncompleteAssignment(system.var_name(exc.var)) from None
        if v != 0:
            bad.append((idx, tag, v))
    return bad


# ---------------------------------------------------------------------------
# structural reduction


STRUCTURAL_RULES = (
    "left_derivation",
    "right_derivation",
    "bracket_product_rule_left",
    "bracket_product_rule_right",
    "left_preserves_lower_central",
    "right_preserves_lower_central",
    "left_preserves_upper_central",
    "right_preserves_upper_central",
    "center_kills_derived_left",
    "center_kills_derived_right",
    "series_product_grading",
)


def _identity_rows(g: LieAlgebra) -> list[tuple[str, tuple[dict, int]]]:
    """Tagged linear rows, (coeffs, const) in _linear_parts' form: the
    lemma suite's identities that are linear in the product, evaluated on
    the generic product, one row per nonzero residual component.

    Entry (r, c) of L_s is x[s][r][c] and of R_s x[c][r][s], and both
    sides evaluate to the same terms in the same order, so `swap` carries
    a left row to its right one.  The derivation rows of L_i are those of
    L_0 moved by i * n^2; a bracket-product row is summed term by term as
    lr.ad_product_residual sums it, its constant [[e_i, e_j], e_b]_a
    first.  A test holds every row to the residuals."""
    n = g.dim
    nn = n * n
    prod = partial(bilinear_sparse, _generic_product(n))
    brackets = {key: _ints(v) for key, v in g.table.items()}
    brak = partial(bilinear_sparse, brackets)
    sides = (("left", prod), ("right", opposite(prod)))
    basis = [{i: 1} for i in range(n)]
    rows: list[tuple[str, tuple[dict, int]]] = []

    def emit(tag: str, residual) -> None:
        rows.extend((tag, _linear_parts(residual[a])) for a in sorted(residual))

    def both(left: str, right: str, cells: list, sign: int) -> None:
        rows.extend((left, cell) for cell in cells)
        rows.extend((right, ({swap[v]: sign * c for v, c in r.items()}, k)) for r, k in cells)

    swap = [x_index(n, c, r, s) for s in range(n) for r in range(n) for c in range(n)]
    residuals = (derivation_residual(brak, prod, basis[0], basis[j], basis[k])
                 for j in range(n) for k in range(j + 1, n))
    derivations = [[_linear_parts(res[a])[0] for a in sorted(res)] for res in residuals]
    for i in range(n):
        for block in derivations:
            cells = [({i * nn + v: c for v, c in coeffs.items()}, 0) for coeffs in block]
            both("left_derivation", "right_derivation", cells, 1)

    # ad[i][a]: (p * n, [e_i, e_p]_a) if nonzero, p ascending; br[i][b]: [e_i, e_b]
    ad = [[[(p * n, c) for p in range(n) if (c := brackets.get((i, p), {}).get(a))]
           for a in range(n)] for i in range(n)]
    br = [[brackets.get((i, b), {}).items() for b in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [brak(brak(basis[i], basis[j]), basis[b]) for b in range(n)]
            # lhs - rhs on the left and lhs + rhs on the right, at entry (a, b)
            # of rhs = [ad_i, L_j] + [L_i, ad_j]
            cells = []
            for a, b in iproduct(range(n), repeat=2):
                row: dict = {}
                for at, sign, terms in ((j * nn + b, -1, ad[i][a]), (j * nn + a * n, 1, br[i][b]),
                                        (i * nn + a * n, -1, br[j][b]), (i * nn + b, 1, ad[j][a])):
                    for v, c in terms:
                        v += at
                        row[v] = _scalar(row.get(v, 0) + sign * c)
                        if not row[v]:
                            del row[v]
                if row or a in lhs[b]:
                    cells.append((row, _scalar(lhs[b].get(a, 0))))
            both("bracket_product_rule_left", "bracket_product_rule_right", cells, -1)

    lcs = lower_central_series(g)
    ucs = upper_central_series(g)
    gamma = lcs.term

    series_targets = [("lower", s) for s in lcs.terms[1:]] + [
        ("upper", s) for s in ucs.terms
    ]
    for kind, s in series_targets:
        if s.dim == n:
            continue
        for side, act in sides:
            for i in range(n):
                for v in s.rows:
                    emit(
                        f"{side}_preserves_{kind}_central",
                        ideal_residual(act, s, basis[i], _ints(v)),
                    )

    z = lie_center(g)
    derived = gamma(2)
    for side, act in sides:
        for zv in z.rows:
            for dv in derived.rows:
                emit(
                    f"center_kills_derived_{side}",
                    center_kills_derived_residual(act, _ints(zv), _ints(dv)),
                )

    top = len(lcs.terms) + 1
    for i in range(1, top):
        for j in range(1, top):
            src_a, src_b = gamma(i + 1), gamma(j + 1)
            tgt = gamma(i + j + 1)
            if src_a.dim == 0 or src_b.dim == 0 or tgt.dim == n:
                continue
            for u in src_a.rows:
                for v in src_b.rows:
                    emit(
                        "series_product_grading",
                        grading_residual(prod, tgt, _ints(u), _ints(v)),
                    )
    return rows


def _linear_parts(p: Polynomial):
    """(coeffs, const) when p has degree <= 1, else None.  Each value is
    an int where it is integral and a Fraction elsewhere (linalg._scalar),
    the form Eliminator.add works in."""
    coeffs = {}
    const = 0
    for m, c in p.terms.items():
        if m == ():
            const = _scalar(c)
        elif len(m) == 1 and m[0][1] == 1:
            coeffs[m[0][0]] = _scalar(c)
        else:
            return None
    return coeffs, const


@dataclass
class ReducedSystem:
    system: ConstraintSystem
    identity_rows: list[tuple[str, tuple[dict, int]]]
    eliminated: dict[int, Polynomial]
    residual: list[Polynomial]
    contradiction: bool
    stats: dict = field(default_factory=dict)

    @property
    def eliminated_count(self) -> int:
        return len(self.eliminated)

    def forced_zero(self) -> list[int]:
        return sorted(v for v, e in self.eliminated.items() if e.is_zero())

    @cached_property
    def added(self) -> list[tuple[str, Polynomial]]:
        """The identity rows as tagged polynomials, built when first read,
        constant first and each value the one Fraction kept for it."""
        row = partial(_row, {})
        return [
            (tag, row(({(): k} if k else {}) | {((v, 1),): c for v, c in r.items()}))
            for tag, (r, k) in self.identity_rows
        ]

    def free_variables(self) -> list[int]:
        used = self.system.used_variables()
        for _, (coeffs, _) in self.identity_rows:
            used.update(coeffs)
        return sorted(used - set(self.eliminated))

    def expand(self, free_assignment: Mapping[int, QQ]) -> dict[int, QQ]:
        """Assignment for every variable of the system given values for the
        free ones (unmentioned free variables default to zero)."""
        full: dict[int, QQ] = {}
        for v in self.system.used_variables():
            if v not in self.eliminated:
                full[v] = qq(free_assignment.get(v, 0))
        for v, expr in self.eliminated.items():
            full[v] = expr.evaluate(full)
        return full


def _live_left_rows(polys: list[Polynomial], n: int,
                    eliminated: dict[int, Polynomial]) -> list[Polynomial]:
    """The left commute rows of generate_lr_system in polys, in raw order,
    that hold a product of two entries not sent to 0.

    Only the entries (a, m) of L_i, x[i][a][m], not sent to 0 are walked;
    cell (a, b) of pair (i, j) is live when some m, other than m == a == b,
    pairs a live (a, m) of one operator with a live (m, b) of the other.
    Every left row left out has a factor sent to 0 in each of its
    products, so it substitutes to 0."""
    zero = {v for v, e in eliminated.items() if not e}
    # live[i][a]: the columns m of the entries (a, m) of L_i not sent to 0
    live = [[[m for m in range(n) if x_index(n, i, a, m) not in zero]
             for a in range(n)] for i in range(n)]
    start, rows = n * n * (n - 1) // 2, []
    for pair, (i, j) in enumerate(combinations(range(n), 2)):
        for a in range(n):
            cells = {b for o1, o2 in ((live[i], live[j]), (live[j], live[i]))
                     for m in o1[a] for b in o2[m] if not m == a == b}
            rows.extend(polys[start + (pair * n + a) * n + b] for b in sorted(cells))
    return rows


@_gc_paused()
def structural_reduce(system: ConstraintSystem) -> ReducedSystem:
    """Add tagged linear consequences of the axioms, eliminate, iterate.

    The added rows are the lemma suite's identities that are linear in
    the product (lr.derivation_residual and its neighbours), int rows on
    the generic product.  Each holds on every LR-structure on g, and every
    row is kept in every round, so the reduced system has the solutions of
    the input rows that are LR-structures on g, and each of its solutions
    solves the input rows.  When the input contains g's LR axioms, a
    generated system with or without appended rows, that is exactly its
    solution set.  A hand-built system gains the added rows as
    consequences: two hand-built rows on n3 reduce with 18 unknowns
    eliminated.

    Each round feeds the pending linear rows to one Eliminator, sorted
    and each distinct row once (a repeat reduces to zero), then
    substitutes its affine forms into the nonlinear constraints with
    Polynomial.substitute; the results of degree at most 1 are the next
    round's rows, and a nonlinear result that repeats one of the same
    round is dropped.  ``eliminated`` maps each eliminated variable to its
    form in the free ones, so ``p.substitute(red.eliminated)`` applies the
    reduction to any polynomial p.

    When polys still begins with all the rows generate_lr_system built,
    the very objects, round 1 puts in front of the nonlinear rows only
    the generator's left commute rows with a live cell (_live_left_rows):
    every other left row substitutes to 0, and on g13, where 2,036 of the
    2,139 eliminated unknowns go to 0, 47 of its 13,182 left rows remain.
    The right commute rows need nothing.
    With R_y = L_y - ad_y (compatibility) and every L_x a derivation,
    [D, ad_y] = ad_{Dy} gives [R_x, R_y] = [L_x, L_y] modulo the round's
    linear rows, so each right row's image is its left twin's, which the
    round already has.
    """
    rows = _identity_rows(system.g)
    polys, generated, n = system.polys, system._generated, system.g.dim
    own = 0 < len(generated) <= len(polys) and all(map(is_, polys, generated))

    elim = Eliminator()
    nonlinear: list[Polynomial] = []
    pending: list[tuple[dict, QQ]] = []
    # the generator's commute rows follow its n*C(n,2) compatibility rows
    for p in chain(polys[:n * n * (n - 1) // 2], polys[len(generated):]) if own else polys:
        lp = _linear_parts(p)
        if lp is None:
            nonlinear.append(p)
        else:
            pending.append(lp)
    pending.extend(row for _, row in rows)

    rounds = 0
    eliminated: dict[int, Polynomial] = {}
    while pending:
        rounds += 1
        # length, then the sorted (variable, coefficient) pairs, laid flat
        pending.sort(key=lambda rc: (len(rc[0]), *chain(*sorted(rc[0].items()))))
        # equal rows are adjacent now, and a repeat reduces to zero
        last = None
        for row in pending:
            if row != last:
                last = row
                elim.add(*row)
                if elim.contradiction:
                    break
        pending = []
        eliminated = {
            v: Polynomial.linear(ec, ek) for v, (ec, ek) in elim.finalize().items()
        }
        if elim.contradiction:
            break
        if own and rounds == 1:
            nonlinear[:0] = _live_left_rows(polys, n, eliminated)
        seen: set = set()
        next_nonlinear: list[Polynomial] = []
        for r in (p.substitute(eliminated) for p in nonlinear):
            if r.is_zero():
                continue
            lp = _linear_parts(r)
            if lp is None:
                if r not in seen:
                    seen.add(r)
                    next_nonlinear.append(r)
            else:
                pending.append(lp)
        nonlinear = next_nonlinear

    residual = list(nonlinear)
    if elim.contradiction:
        residual.insert(0, Polynomial.constant(1))
    stats = {
        "rounds": rounds,
        "eliminated": len(eliminated),
        "added_rows": len(rows),
        "residual": len(residual),
    }
    return ReducedSystem(system, rows, eliminated, residual, elim.contradiction, stats)


# ---------------------------------------------------------------------------
# certification


@dataclass
class CertifyResult:
    status: str  # "inconsistent" | "solutions_may_exist" | "budget_exhausted"
    groebner: GroebnerResult
    trace: list

    @property
    def certified_unsolvable(self) -> bool:
        return self.status == "inconsistent"


def _polys_of(obj) -> list[Polynomial]:
    if isinstance(obj, ReducedSystem):
        return list(obj.residual)
    if isinstance(obj, ConstraintSystem):
        return list(obj.polys)
    return list(obj)


def buchberger_certify(
    obj,
    *,
    max_basis_size: int = 2000,
    max_degree: int | None = None,
    time_budget: float | None = None,
) -> CertifyResult:
    """Certify a system (raw, reduced, or plain polynomial list).

    "inconsistent" comes with the S-pair trace ending in a nonzero
    constant and certifies that no LR-structure exists.  A completed
    basis that is not the unit ideal reports "solutions_may_exist":
    over the rationals nothing stronger is claimed.  Hitting a budget
    reports "budget_exhausted".
    """
    polys = _polys_of(obj)
    trace: list = []
    res = groebner_basis(
        polys,
        max_basis_size=max_basis_size,
        max_degree=max_degree,
        time_budget=time_budget,
        trace=trace,
    )
    if res.status == "complete":
        status = "inconsistent" if res.is_unit_ideal else "solutions_may_exist"
    else:
        status = "budget_exhausted"
    return CertifyResult(status, res, trace)


# ---------------------------------------------------------------------------
# isomorphism search


def lr_fingerprint(a: LRAlgebra) -> dict:
    """Basis-independent invariants of an LR-algebra, used to tell
    non-isomorphic structures apart quickly; iso_search compares them in
    the order of the returned dict."""
    g = a.g
    n = a.dim
    lcs = lower_central_series(g)
    ucs = upper_central_series(g)
    ds = derived_series(g)

    spans = []
    cur = Subspace.full(n)
    while True:
        nxt = ideal_product(a, cur, cur)
        spans.append(nxt.dim)
        if nxt == cur or nxt.dim == 0:
            break
        cur = nxt

    lmats = [a.left_mult_basis(i) for i in range(n)]
    rmats = [a.right_mult_basis(i) for i in range(n)]

    def ann_dim(mats):
        rows = []
        for jj in range(n):
            for kk in range(n):
                rows.append(tuple(mats[i].entries[jj][kk] for i in range(n)))
        return Matrix(rows).rank()

    def tr(m1: Matrix, m2: Matrix) -> QQ:
        return sum(
            (
                m1.entries[r][c] * m2.entries[c][r]
                for r in range(n)
                for c in range(n)
            ),
            QQ(0),
        )

    def form_rank(ms1, ms2) -> int:
        return Matrix(
            [[tr(ms1[i], ms2[j]) for j in range(n)] for i in range(n)]
        ).rank()

    return {
        "dim": n,
        "complete": a.complete,
        "lower_central_dims": lcs.dims(),
        "derived_dims": ds.dims(),
        "upper_central_dims": ucs.dims(),
        "product_span_dims": tuple(spans),
        "left_annihilator_dim": n - ann_dim(lmats),
        "right_annihilator_dim": n - ann_dim(rmats),
        "trace_form_rank_ll": form_rank(lmats, lmats),
        "trace_form_rank_rr": form_rank(rmats, rmats),
        "trace_form_rank_lr": form_rank(lmats, rmats),
    }


@dataclass
class IsoResult:
    status: str  # "found" | "distinguished" | "undecided"
    transform: Matrix | None = None
    invariant: str | None = None
    detail: str = ""


def _iso_residual(
    a1: LRAlgebra, a2: LRAlgebra, cols: list[SparseVec], i: int, j: int
) -> SparseVec:
    """T(e_i.e_j) - Te_i.Te_j for the map T with T e_k = cols[k], a sparse
    column of rationals or of polynomials."""
    image: SparseVec = {}
    for k, c in a1.product_basis(i, j).items():
        image = sparse_add(image, {r: x * c for r, x in cols[k].items()})
    return sparse_sub(image, bilinear_sparse(a2.table, cols[i], cols[j]))


def _is_lr_isomorphism(a1: LRAlgebra, a2: LRAlgebra, t: Matrix) -> bool:
    """Does T carry the first product to the second, T(x.y) = Tx . Ty?"""
    n = a1.dim
    if t.rank() < n:
        return False
    cols = [_sparsify(t.column(k)) for k in range(n)]
    return not any(
        _iso_residual(a1, a2, cols, i, j) for i in range(n) for j in range(n)
    )


def _det_poly(entries: list[list[Polynomial]]) -> Polynomial:
    """Determinant by expansion over permutations; fine for small sizes."""
    n = len(entries)
    acc = Polynomial.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Polynomial.constant(sign)
        for i in range(n):
            term = term * entries[i][perm[i]]
        acc = acc + term
    return acc


# Buchberger budgets of the non-isomorphism certificate in iso_search.
ISO_MAX_BASIS_SIZE = 300
ISO_TIME_BUDGET = 30.0


def iso_search(a1: LRAlgebra, a2: LRAlgebra) -> IsoResult:
    """Decide, when possible, whether two LR-algebras are isomorphic as
    algebras (bracket correspondence follows from the product one).

    Fast path: compare basis-independent invariants; the first one that
    differs settles the question.  Search path: try a family of simple
    invertible maps.  Certificate path (small dimensions): the change of
    basis equations plus an inverted determinant form a polynomial
    system; its inconsistency certifies non-isomorphism.
    """
    f1, f2 = lr_fingerprint(a1), lr_fingerprint(a2)
    for key in f1:
        if f1[key] != f2[key]:
            return IsoResult(
                "distinguished",
                invariant=key,
                detail=f"{key}: {f1[key]} vs {f2[key]}",
            )
    n = a1.dim

    # heuristic search over signed permutation matrices
    if n <= 4:
        for perm in permutations(range(n)):
            for signs in iproduct((QQ(1), QQ(-1)), repeat=n):
                t = Matrix(
                    [
                        [signs[j] if perm[j] == i else QQ(0) for j in range(n)]
                        for i in range(n)
                    ]
                )
                if _is_lr_isomorphism(a1, a2, t):
                    return IsoResult("found", transform=t)

    if n > 4:
        return IsoResult("undecided", detail="dimension too large for the certificate system")

    # polynomial certificate: unknown T entries plus a Rabinowitsch variable
    # (T[r][k] is variable r * n + k, the Rabinowitsch variable is n * n)
    cols = [{r: Polynomial.variable(r * n + k) for r in range(n)} for k in range(n)]
    polys: list[Polynomial] = []
    for i in range(n):
        for j in range(n):
            res = _iso_residual(a1, a2, cols, i, j)
            polys.extend(res[c] for c in sorted(res))
    det = _det_poly([[cols[k][r] for k in range(n)] for r in range(n)])
    polys.append(det * Polynomial.variable(n * n) - Polynomial.constant(1))
    cert = buchberger_certify(
        polys, max_basis_size=ISO_MAX_BASIS_SIZE, time_budget=ISO_TIME_BUDGET
    )
    if cert.status == "inconsistent":
        return IsoResult(
            "distinguished",
            invariant="no_invertible_product_isomorphism",
            detail="change of basis system is inconsistent",
        )
    return IsoResult("undecided", detail=f"certificate {cert.status}")
