"""Exact linear algebra over the rationals.

Everything here is built on Fraction, so results are exact: no tolerances,
no floating point anywhere.  Matrices are small dense immutable arrays;
subspaces are kept in reduced row echelon form so that equality of
subspaces is plain syntactic equality of their canonical bases.  One
sparse Eliminator does all row reduction: RREF, rank, kernels, inverses,
subspace bases and the structural reduction of constraint systems.
Inside, it keeps each integral scalar as an int, which is exact and
much cheaper; what it hands out is Fractions.
"""

from fractions import Fraction
from typing import Iterable, Sequence

QQ = Fraction

Vector = tuple[QQ, ...]


class DimensionMismatch(ValueError):
    pass


def qq(x) -> QQ:
    """Coerce an int, string like '-3/7', or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(entries: Iterable) -> Vector:
    return tuple(qq(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (QQ(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise DimensionMismatch(f"unit vector index {i} out of range for dim {n}")
    return tuple(QQ(1) if j == i else QQ(0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = qq(c)
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(qq(e) for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise DimensionMismatch("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        """The rows x cols zero matrix; with no rows it keeps its cols."""
        m = cls([[0] * cols for _ in range(rows)])
        object.__setattr__(m, "cols", cols)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            return cls([])
        n = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.entries])

    def scale(self, c) -> "Matrix":
        c = qq(c)
        return Matrix([[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other.transpose().entries
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col) if a and b) for col in ot]
                for row in self.entries
            ]
        )

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative exponent")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def rank(self) -> int:
        return len(_eliminate(self).pivots)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        red = rref(Matrix([r + unit_vector(n, i) for i, r in enumerate(self.entries)]))
        if any(red.entries[i][i] != 1 for i in range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([row[n:] for row in red.entries])


def combination(mats: Sequence[Matrix], coeffs: Sequence) -> Matrix:
    """The sum of c_t M_t over matrices of one shape; zero coefficients
    are skipped, so the empty sum is the zero matrix."""
    if len(mats) != len(coeffs):
        raise DimensionMismatch(f"{len(coeffs)} coefficients for {len(mats)} matrices")
    rows, cols = (mats[0].rows, mats[0].cols) if mats else (0, 0)
    acc = [[QQ(0)] * cols for _ in range(rows)]
    for m, c in zip(mats, coeffs):
        if c:
            for row, mrow in zip(acc, m.entries):
                for k, e in enumerate(mrow):
                    if e:
                        row[k] += c * e
    return Matrix(acc)


def _scalar(c):
    """c as an int when it is integral, else the Fraction itself."""
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
        return Fraction(a, b)
    return _scalar(a / b)


class Eliminator:
    """Sparse Gaussian elimination producing var -> affine expression.

    Each added row sum c_v x_v + const = 0 is reduced by the pivots so far,
    largest variable first, and what remains pivots on its largest
    variable, so a pivot's expression only mentions smaller variables.

    Scalars are held as ints wherever they are integral, and as Fractions
    only where they are not: most rows of a constraint system have small
    integral coefficients, and int arithmetic is several times cheaper.
    finalize hands out Fractions, so callers see only exact rationals.
    """

    def __init__(self):
        self.pivots: dict[int, tuple[dict, QQ]] = {}
        self.order: list[int] = []
        self.contradiction = False

    def add(self, coeffs: dict, const: QQ) -> None:
        if self.contradiction:
            return
        coeffs = {v: _scalar(c) for v, c in coeffs.items()}
        const = _scalar(const)
        while True:
            hit = None
            for v in coeffs:
                if v in self.pivots:
                    if hit is None or v > hit:
                        hit = v
            if hit is None:
                break
            c = coeffs.pop(hit)
            ec, ek = self.pivots[hit]
            for v2, c2 in ec.items():
                s = coeffs[v2] + c * c2 if v2 in coeffs else c * c2
                if s:
                    coeffs[v2] = s
                else:
                    coeffs.pop(v2, None)
            const += c * ek
        if not coeffs:
            if const != 0:
                self.contradiction = True
            return
        p = max(coeffs)
        cp = coeffs.pop(p)
        expr = {v: _quotient(-c, cp) for v, c in coeffs.items()}
        self.pivots[p] = (expr, _quotient(-const, cp))
        self.order.append(p)

    def finalize(self) -> dict[int, tuple[dict, QQ]]:
        """Rewrite every pivot expression in terms of free variables only.

        A pivot expression can mention variables that became pivots later;
        walking the insertion order backwards resolves them without cycles.
        The rewritten expressions stay in int form for further adds; the
        map returned holds Fractions, one shared object per value.
        """
        done: dict[int, tuple[dict, QQ]] = {}
        for p in reversed(self.order):
            ec, ek = self.pivots[p]
            coeffs = {}
            const = ek
            for v, c in ec.items():
                if v in done:
                    dc, dk = done[v]
                    for v2, c2 in dc.items():
                        s = coeffs[v2] + c * c2 if v2 in coeffs else c * c2
                        if s:
                            coeffs[v2] = s
                        else:
                            coeffs.pop(v2, None)
                    const += c * dk
                else:
                    s = coeffs[v] + c if v in coeffs else c
                    if s:
                        coeffs[v] = s
                    else:
                        coeffs.pop(v, None)
            done[p] = (coeffs, const)
        self.pivots = done
        fractions: dict = {}
        get, put = fractions.get, fractions.setdefault

        def frac(x) -> QQ:
            return get(x) or put(x, QQ(x))

        return {
            p: ({v: frac(c) for v, c in ec.items()}, frac(ek))
            for p, (ec, ek) in done.items()
        }


def _eliminate(m: Matrix) -> Eliminator:
    """The rows of m fed to an Eliminator, column c as variable cols-1-c,
    so that its largest-variable pivots are the leftmost columns."""
    last = m.cols - 1
    elim = Eliminator()
    for row in m.entries:
        elim.add({last - c: x for c, x in enumerate(row) if x}, QQ(0))
    return elim


def _reduced_rows(m: Matrix) -> list[list[QQ]]:
    """The nonzero rows of the RREF of m, top to bottom.  The pivot
    x_c = sum a_f x_f is the row with 1 at c and -a_f at each free f."""
    last = m.cols - 1
    rows = []
    for p, (expr, _) in sorted(_eliminate(m).finalize().items(), reverse=True):
        row = [QQ(0)] * m.cols
        row[last - p] = QQ(1)
        for v, c in expr.items():
            row[last - v] = -c
        rows.append(row)
    return rows


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form.  Canonical: pivots 1, pivot columns cleared."""
    rows = _reduced_rows(m)
    rows.extend([QQ(0)] * m.cols for _ in range(m.rows - len(rows)))
    return Matrix(rows)


def pivot_columns(reduced: Matrix) -> tuple[int, ...]:
    """Pivot column indices of a matrix already in RREF."""
    pivots = []
    for row in reduced.entries:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return tuple(pivots)


def nullspace(m: Matrix) -> "Subspace":
    """Kernel of m as a canonical subspace of the domain."""
    red = rref(m)
    pivots = pivot_columns(red)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [QQ(0)] * m.cols
        v[f] = QQ(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return Subspace.from_vectors(m.cols, basis)


def matrix_is_nilpotent(m: Matrix) -> bool:
    """True iff some power of m is zero.

    Follows the image chain mV, m^2 V, ... starting from the column span,
    which must reach 0 within dim steps; equivalent to the rank of the
    powers dropping to zero, but never forms a dense power explicitly,
    and exploits sparsity of the columns.
    """
    if not m.is_square():
        raise DimensionMismatch("nilpotency of a non-square matrix")
    n = m.rows
    cols: dict[int, list[tuple[int, QQ]]] = {}
    for j in range(n):
        col = [(i, m.entries[i][j]) for i in range(n) if m.entries[i][j] != 0]
        if col:
            cols[j] = col

    def apply_sparse(v: Vector) -> Vector:
        acc = [QQ(0)] * n
        for j, vj in enumerate(v):
            if vj != 0 and j in cols:
                for i, c in cols[j]:
                    acc[i] += vj * c
        return tuple(acc)

    space = Subspace.from_vectors(
        n, [tuple(m.entries[i][j] for i in range(n)) for j in cols]
    )
    for _ in range(n):
        if space.dim == 0:
            return True
        image = [apply_sparse(v) for v in space.basis_vectors()]
        new = Subspace.from_vectors(n, [v for v in image if any(x != 0 for x in v)])
        if new == space:
            return False
        space = new
    return space.dim == 0


class Subspace:
    """Subspace of QQ^n held as an RREF basis; equality is syntactic."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivots", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        vecs = [tuple(qq(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector length {len(v)} != ambient dim {ambient_dim}"
                )
        return cls(ambient_dim, Matrix(_reduced_rows(Matrix(vecs))))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix([]))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def pivots(self) -> tuple[int, ...]:
        if self._pivots is None:
            object.__setattr__(self, "_pivots", pivot_columns(self.basis))
        return self._pivots

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after reduction by the basis; zero iff v is a member.

        Entries of v may be rationals or polynomials: a polynomial residual
        is the linear condition for v to lie in the subspace.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dim {self.ambient_dim}"
            )
        res = list(v)
        for row, p in zip(self.basis.entries, self.pivots()):
            f = res[p]
            if f:
                for j, c in enumerate(row):
                    if c:
                        res[j] -= f * c
        return tuple(res)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis_vectors())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return Subspace.from_vectors(
        a.ambient_dim, list(a.basis_vectors()) + list(b.basis_vectors())
    )


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient problem."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # columns: coefficients on a-basis then b-basis; rows: ambient coordinates
    cols = [v for v in a.basis_vectors()] + [vec_scale(-1, v) for v in b.basis_vectors()]
    ker = nullspace(Matrix.from_columns(cols))
    vecs = []
    for coeff in ker.basis_vectors():
        v = zero_vector(a.ambient_dim)
        for c, bv in zip(coeff[: a.dim], a.basis_vectors()):
            v = vec_add(v, vec_scale(c, bv))
        vecs.append(v)
    return Subspace.from_vectors(a.ambient_dim, vecs)
