"""Finite-dimensional Lie algebras over QQ given by structure constants.

A LieAlgebra stores the full bracket tensor sparsely (both orientations,
so a basis bracket is one dictionary lookup) and is validated at
construction: antisymmetry by construction, the Jacobi identity by an
exhaustive check over basis triples, which suffices by trilinearity.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import (
    QQ,
    Matrix,
    Subspace,
    Vector,
    kernel,
    qq,
    vec_is_zero,
)

SparseVec = dict[int, QQ]


class LieError(ValueError):
    pass


class IndexOutOfRange(LieError):
    pass


class AntisymmetryConflict(LieError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"conflicting entries for bracket pair ({i + 1}, {j + 1})")


class JacobiViolation(LieError):
    def __init__(self, i: int, j: int, k: int, residual: Vector):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on basis triple "
            f"({i + 1}, {j + 1}, {k + 1}); residual {residual}"
        )


class NotAnIdeal(LieError):
    def __init__(self, i: int, witness: Vector):
        self.witness = (i, witness)
        super().__init__(
            f"subspace is not an ideal: bracket with basis vector {i + 1} escapes"
        )


def _densify(n: int, sparse: SparseVec) -> Vector:
    v = [QQ(0)] * n
    for k, c in sparse.items():
        v[k] = c
    return tuple(v)


def _sparsify(v: Vector) -> SparseVec:
    return {k: c for k, c in enumerate(v) if c}


def bilinear_sparse(
    table: dict[tuple[int, int], SparseVec], u: SparseVec, v: SparseVec
) -> SparseVec:
    """The bilinear map with e_i * e_j = table[(i, j)], on sparse vectors.

    Scalars may be rationals or polynomials (zero tests use truthiness),
    so the same code serves brackets, concrete products and the generic
    product whose coordinates are unknowns.
    """
    acc: SparseVec = {}
    for i, a in u.items():
        for j, b in v.items():
            entry = table.get((i, j))
            if entry:
                ab = a * b
                for k, c in entry.items():
                    t = ab * c
                    acc[k] = acc[k] + t if k in acc else t
    return {k: c for k, c in acc.items() if c}


def basis_action(
    table: dict[tuple[int, int], SparseVec], i: int, v: SparseVec, left: bool
) -> SparseVec:
    """e_i * v (left) or v * e_i (right) on a sparse v.

    bilinear_sparse with {i: 1} as one argument, without paying a multiply
    by that unit coefficient on every term.
    """
    acc: SparseVec = {}
    for m, c in v.items():
        entry = table.get((i, m) if left else (m, i))
        if entry:
            for k, d in entry.items():
                t = c * d
                acc[k] = acc[k] + t if k in acc else t
    return {k: c for k, c in acc.items() if c}


def basis_operator(
    table: dict[tuple[int, int], SparseVec], n: int, i: int, left: bool
) -> Matrix:
    """Matrix of v -> e_i * v (left) or v -> v * e_i (right): its columns
    are the table entries."""
    return Matrix.from_columns(
        [_densify(n, table.get((i, j) if left else (j, i), {})) for j in range(n)]
    )


def vector_operator(
    table: dict[tuple[int, int], SparseVec], n: int, x: Vector, left: bool
) -> Matrix:
    """Matrix of v -> x * v (left) or v -> v * x (right); column j is
    x * e_j or e_j * x."""
    xs = _sparsify(x)
    return Matrix.from_columns(
        [_densify(n, basis_action(table, j, xs, not left)) for j in range(n)]
    )


def sparse_add(u: SparseVec, v: SparseVec) -> SparseVec:
    acc = dict(u)
    for k, c in v.items():
        acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


def sparse_sub(u: SparseVec, v: SparseVec) -> SparseVec:
    acc = dict(u)
    for k, c in v.items():
        acc[k] = acc[k] - c if k in acc else -c
    return {k: c for k, c in acc.items() if c}


def jacobi_residual(
    table: dict[tuple[int, int], SparseVec], u: int, v: int, w: int
) -> SparseVec:
    """J(u, v, w) = [[e_u, e_v], e_w] - [[e_u, e_w], e_v] + [[e_v, e_w], e_u],
    the one place the Jacobi identity is written.  The inner brackets are
    read at (u, v), (u, w) and (v, w) as the table gives them; on an
    antisymmetric table J is the cyclic sum of [[e_u, e_v], e_w]."""
    uvw, uwv, vwu = (
        basis_action(table, c, table.get((a, b), {}), False)
        for a, b, c in ((u, v, w), (u, w, v), (v, w, u))
    )
    return sparse_add(sparse_sub(uvw, uwv), vwu)


def table_from_entries(dim: int, entries, what: str, placements) -> dict:
    """Sparse table from 1-based entries (i, j, vector), checked for range
    and length; what ("bracket" or "product") names the pair in errors.

    placements(i, j, v) gives the (key, sparse value) pairs that the
    0-based entry fixes; a key fixed twice to different values raises
    AntisymmetryConflict.
    """
    table: dict[tuple[int, int], SparseVec] = {}
    seen: dict[tuple[int, int], SparseVec] = {}
    for i1, j1, vec in entries:
        i, j = i1 - 1, j1 - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfRange(
                f"{what} pair ({i1}, {j1}) out of range for dim {dim}"
            )
        v = tuple(qq(x) for x in vec)
        if len(v) != dim:
            raise IndexOutOfRange(
                f"{what} value for ({i1}, {j1}) has length {len(v)}, expected {dim}"
            )
        for key, val in placements(i, j, v):
            if key in seen and seen[key] != val:
                raise AntisymmetryConflict(*key)
            seen[key] = val
            if val:
                table[key] = val
    return table


def _antisymmetric(i: int, j: int, v: Vector):
    """A bracket entry fixes (i, j) and its negative at (j, i)."""
    if i == j:
        if not vec_is_zero(v):
            raise AntisymmetryConflict(i, j)
        return ()
    sv = _sparsify(v)
    return (((i, j), sv), ((j, i), {k: -c for k, c in sv.items()}))


class LieAlgebra:
    """dim + bracket tensor; immutable once built."""

    __slots__ = ("dim", "table", "basis_names")

    def __init__(
        self,
        dim: int,
        table: dict[tuple[int, int], SparseVec],
        basis_names: tuple[str, ...] | None = None,
        _validate: bool = True,
    ):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "basis_names", basis_names)
        if _validate:
            self._check_jacobi()

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_table(
        cls,
        dim: int,
        entries: Iterable[tuple[int, int, Sequence]],
        basis_names: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        """Build from 1-based entries (i, j, vector) with [e_i, e_j] = vector.

        Only one orientation per pair is needed; the other is filled by
        antisymmetry.  Supplying both orientations is allowed when they are
        consistent, otherwise AntisymmetryConflict.
        """
        table = table_from_entries(dim, entries, "bracket", _antisymmetric)
        if basis_names is not None:
            names = tuple(basis_names)
            if len(names) != dim:
                raise IndexOutOfRange("basis_names length differs from dim")
        else:
            names = None
        return cls(dim, table, names)

    def _check_jacobi(self):
        n, t = self.dim, self.table
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    residual = jacobi_residual(t, i, j, k)
                    if residual:
                        raise JacobiViolation(i, j, k, _densify(n, residual))

    # -- brackets ------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        """[e_i, e_j] (0-based), sparse."""
        return self.table.get((i, j), {})

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Bracket of two coordinate vectors, by bilinear expansion."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise IndexOutOfRange("vector length differs from dim")
        return _densify(n, bilinear_sparse(self.table, _sparsify(u), _sparsify(v)))

    def bracket_sparse(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return bilinear_sparse(self.table, u, v)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] in the chosen basis."""
        return vector_operator(self.table, self.dim, x, True)

    def ad_basis(self, i: int) -> Matrix:
        return basis_operator(self.table, self.dim, i, True)

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dim, tuple(sorted((k, tuple(sorted(v.items()))) for k, v in self.table.items()))))


def lie_from_table(dim, entries, basis_names=None) -> LieAlgebra:
    return LieAlgebra.from_table(dim, entries, basis_names)


def abelian_lie(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})


def direct_sum_with_abelian(g: LieAlgebra, extra: int) -> LieAlgebra:
    """g + an abelian complement of dimension extra (brackets unchanged)."""
    n = g.dim
    table = {
        (i, j): dict(v) for (i, j), v in g.table.items()
    }
    return LieAlgebra(n + extra, table, _validate=False)


# -- subspace helpers ----------------------------------------------------


def bracket_subspaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [a, b]."""
    return Subspace.from_sparse(
        g.dim, (bilinear_sparse(g.table, u, v) for u in a.rows for v in b.rows)
    )


# -- series --------------------------------------------------------------


@dataclass(frozen=True)
class SeriesReport:
    """Terms of a subspace series; the last term is repeated once to
    witness stabilization, and dims() drops that repetition."""

    terms: tuple[Subspace, ...]
    stabilized: bool

    def dims(self) -> tuple[int, ...]:
        ds = tuple(t.dim for t in self.terms)
        if self.stabilized and len(ds) >= 2:
            return ds[:-1]
        return ds

    def term(self, k: int) -> Subspace:
        """The k-th term, 1-based; the series is stabilized past its
        recorded tail."""
        return self.terms[min(k - 1, len(self.terms) - 1)]


def _run_series(first: Subspace, step) -> SeriesReport:
    terms = [first]
    while True:
        nxt = step(terms[-1])
        terms.append(nxt)
        if nxt == terms[-2]:
            return SeriesReport(tuple(terms), True)
        if len(terms) > first.ambient_dim + 2:
            return SeriesReport(tuple(terms), False)


def lower_central_series(g: LieAlgebra) -> SeriesReport:
    """gamma_1 = g, gamma_{i+1} = [g, gamma_i]."""
    full = Subspace.full(g.dim)
    return _run_series(full, lambda s: bracket_subspaces(g, full, s))


def derived_series(g: LieAlgebra) -> SeriesReport:
    """g^(0) = g, g^(i+1) = [g^(i), g^(i)]."""
    full = Subspace.full(g.dim)
    return _run_series(full, lambda s: bracket_subspaces(g, s, s))


def _centralizer_mod(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [e_j, x] in s for every j}: the kernel of x -> ([e_j, x] mod s)_j,
    whose row (j, m) holds ([e_j, e_k] mod s)[m] at column k."""
    rows: dict[tuple[int, int], SparseVec] = {}
    for (j, k), w in g.table.items():
        for m, c in s.reduce_sparse(w).items():
            rows.setdefault((j, m), {})[k] = c
    return kernel(g.dim, rows.values())


def center(g: LieAlgebra) -> Subspace:
    """Z(g) = {x : [e_j, x] = 0 for every j}."""
    return _centralizer_mod(g, Subspace.zero(g.dim))


def upper_central_series(g: LieAlgebra) -> SeriesReport:
    """Z_1 = Z(g), Z_{i+1} = {x : [e_j, x] in Z_i for every j}, the preimage
    of the center of g / Z_i."""
    return _run_series(center(g), lambda s: _centralizer_mod(g, s))


def quotient_by_ideal(g: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient Lie algebra and the projection matrix onto it.

    The quotient basis is the image of the standard basis vectors at the
    non-pivot coordinates of the ideal's RREF basis; reduce_sparse leaves
    a residual on those coordinates only, so it is the projection.
    """
    n = g.dim
    if ideal.ambient_dim != n:
        raise IndexOutOfRange("ideal lives in the wrong ambient space")
    for k, v in enumerate(ideal.rows):
        for i in range(n):
            if ideal.reduce_sparse(basis_action(g.table, i, v, True)):
                raise NotAnIdeal(i, ideal.basis_vectors()[k])
    pivot_set = set(ideal.pivots())
    free = [j for j in range(n) if j not in pivot_set]
    at = {f: a for a, f in enumerate(free)}

    def project(w: SparseVec) -> SparseVec:
        return {at[j]: c for j, c in sorted(ideal.reduce_sparse(w).items())}

    m = len(free)
    cols = [project({j: 1}) for j in range(n)]
    proj = Matrix([[col.get(a, 0) for col in cols] for a in range(m)]) if m else Matrix.zero(0, n)
    table: dict[tuple[int, int], SparseVec] = {}
    for a in range(m):
        for b in range(a + 1, m):
            sv = project(g.bracket_basis(free[a], free[b]))
            if sv:
                table[(a, b)] = sv
                table[(b, a)] = {k: -c for k, c in sv.items()}
    q = LieAlgebra(m, table, _validate=False)
    return q, proj


# -- classification ------------------------------------------------------


@dataclass(frozen=True)
class SolvabilityReport:
    solvable_class: int | None
    nilpotency_class: int | None
    is_two_step_solvable: bool


def classify_solvability(g: LieAlgebra) -> SolvabilityReport:
    ds = derived_series(g)
    d_dims = ds.dims()
    solvable_class = None
    if d_dims[-1] == 0:
        solvable_class = len(d_dims) - 1
    lcs = lower_central_series(g)
    l_dims = lcs.dims()
    nilpotency_class = None
    if l_dims[-1] == 0:
        nilpotency_class = len(l_dims) - 1
    two_step = solvable_class is not None and solvable_class <= 2
    return SolvabilityReport(solvable_class, nilpotency_class, two_step)


def is_two_step_solvable(g: LieAlgebra) -> bool:
    return classify_solvability(g).is_two_step_solvable
