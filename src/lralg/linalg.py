"""Exact linear algebra over the rationals.

Everything here is built on Fraction, so results are exact: no tolerances,
no floating point anywhere.  Matrices are small dense immutable arrays;
subspaces are kept in reduced row echelon form, as sparse rows, so that
equality of subspaces is plain syntactic equality of their canonical
bases.  One sparse Eliminator does all row reduction: RREF, rank,
kernels, inverses, subspace bases and the structural reduction of
constraint systems.
Inside, it keeps each integral scalar as an int, which is exact and
much cheaper; what it hands out is Fractions.
"""

from fractions import Fraction
from typing import Iterable, Sequence

QQ = Fraction
ZERO, ONE = QQ(0), QQ(1)

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
        return Subspace.from_sparse(self.cols, _sparse_rows(self)).dim

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


def _sparse_rows(m: Matrix) -> list[dict]:
    return [{c: x for c, x in enumerate(row) if x} for row in m.entries]


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form.  Canonical: pivots 1, pivot columns cleared."""
    rows = list(Subspace.from_sparse(m.cols, _sparse_rows(m)).basis_vectors())
    rows.extend([QQ(0)] * m.cols for _ in range(m.rows - len(rows)))
    return Matrix(rows)


def kernel(n: int, rows: Iterable[dict]) -> "Subspace":
    """{x in QQ^n : sum_c row[c] x_c = 0 for every row}, from sparse rows
    {column: value}.  Column c is Eliminator variable c, so each pivot is
    solved in terms of the free columns left of it: the kernel vector of
    free column f (1 at f, and at each pivot that pivot's coefficient of
    f) leads at f, and these vectors are already the canonical basis."""
    elim = Eliminator()
    for row in rows:
        elim.add({c: x for c, x in row.items() if x}, 0)
    solved = elim.finalize()
    basis = {f: {f: ONE} for f in range(n) if f not in solved}
    for p in sorted(solved):
        for f, c in solved[p][0].items():
            basis[f][p] = c
    return Subspace(n, tuple(basis.values()))


def nullspace(m: Matrix) -> "Subspace":
    """Kernel of m as a canonical subspace of the domain."""
    return kernel(m.cols, _sparse_rows(m))


def operator_is_nilpotent(columns: Sequence[dict]) -> bool:
    """True iff some power of the operator on QQ^n is zero, where
    columns[j] is the image of e_j as a sparse vector {row: value}.

    Follows the image chain mV, m^2 V, ... on sparse vectors: each term
    lies in the one before, so the chain stops for good at the first
    term whose dimension does not drop, and is nilpotent iff that is 0.
    """
    n = len(columns)
    space = Subspace.from_sparse(n, columns)
    while space.dim:
        images = []
        for v in space.rows:
            acc: dict = {}
            for j, c in v.items():
                for i, d in columns[j].items():
                    acc[i] = acc[i] + c * d if i in acc else c * d
            images.append(acc)
        image = Subspace.from_sparse(n, images)
        if image.dim == space.dim:
            return False
        space = image
    return True


def matrix_is_nilpotent(m: Matrix) -> bool:
    """True iff some power of the square matrix m is zero."""
    if not m.is_square():
        raise DimensionMismatch("nilpotency of a non-square matrix")
    return operator_is_nilpotent(_sparse_rows(m.transpose()))


class Subspace:
    """Subspace of QQ^n held as an RREF basis; equality is syntactic.

    `rows` is that basis top to bottom as sparse rows {column: value},
    each starting at its pivot and ascending in column; the dense `basis`
    matrix is built from them when first asked for.
    """

    __slots__ = ("ambient_dim", "rows", "_by_pivot", "_basis")

    def __init__(self, ambient_dim: int, rows: tuple[dict, ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_by_pivot", {next(iter(r)): r for r in rows})
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_sparse(cls, ambient_dim: int, vectors: Iterable[dict]) -> "Subspace":
        """The span of sparse vectors {column: value}, reduced by one
        Eliminator with column c as variable n-1-c, so that its pivots
        are the leftmost columns."""
        last = ambient_dim - 1
        elim = Eliminator()
        for v in vectors:
            elim.add({last - c: x for c, x in v.items() if x}, 0)
        rows = []
        for p, (expr, _) in sorted(elim.finalize().items(), reverse=True):
            row = {last - p: ONE}
            for v in sorted(expr, reverse=True):
                row[last - v] = -expr[v]
            rows.append(row)
        return cls(ambient_dim, tuple(rows))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Vector]) -> "Subspace":
        sparse = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector length {len(v)} != ambient dim {ambient_dim}"
                )
            sparse.append({c: qq(x) for c, x in enumerate(v) if x})
        return cls.from_sparse(ambient_dim, sparse)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({i: ONE} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            n = self.ambient_dim
            dense = [[r.get(j, ZERO) for j in range(n)] for r in self.rows]
            object.__setattr__(self, "_basis", Matrix(dense))
        return self._basis

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def pivots(self) -> tuple[int, ...]:
        return tuple(self._by_pivot)

    def reduce_sparse(self, v: dict) -> dict:
        """The sparse residual of v after reduction by the basis, with no
        zero entries; empty iff v is a member.

        Scalars of v may be rationals or polynomials: a polynomial
        residual is the linear condition for v to lie in the subspace.
        """
        res = dict(v)
        rows = self._by_pivot
        for p in sorted(p for p in v if p in rows):
            f = res[p]
            if f:
                for j, c in rows[p].items():
                    t = f * c
                    res[j] = res[j] - t if j in res else -t
        return {j: c for j, c in res.items() if c}

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after reduction by the basis; zero iff v is a member."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dim {self.ambient_dim}"
            )
        res = self.reduce_sparse({j: x for j, x in enumerate(v) if x})
        return tuple(res.get(j, ZERO) for j in range(self.ambient_dim))

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(self.reduce_sparse(r) for r in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"
