"""Families of Lie algebras carrying canonical LR-structures.

Four constructions:

* filiform algebras in an adapted basis, where the bracket data reduces
  to one free row of coefficients and every further row is a shift of it;
  the LR-structure is assembled from powers of two adjoint operators;
* the halved adjoint product x.y = [x,y]/2 on any 2-step nilpotent
  algebra;
* free 3-step nilpotent algebras on n generators with their canonical
  LR product on a Hall-style basis;
* the free 4-step nilpotent algebra on two generators (dimension 8).

Every constructor returns a fully verified object: brackets go through
the Jacobi check and products through the LR axiom check, so a bug in
the generated data cannot escape silently.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .lie import LieAlgebra, SparseVec, _densify, basis_action, sparse_sub
from .linalg import QQ, Matrix, qq, unit_vector
from .lr import LRAlgebra, lr_from_table


class SpecViolation(ValueError):
    pass


class NotTwoStepNilpotent(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"algebra is not 2-step nilpotent; witness bracket indices {witness}"
        )


# -- filiform ------------------------------------------------------------


@dataclass(frozen=True)
class FiliformSpec:
    """Bracket data for a 2-step solvable filiform algebra of dim n.

    In the adapted basis: [e1, ei] = e_{i+1} for 2 <= i <= n-1, and
    [e2, ei] = sum_{k=i+2}^{n} c[i,k] e_k for 3 <= i <= n-2.  The Jacobi
    identity forces c[i+1,k] = c[i,k-1], so row 3 determines everything;
    from_free_row fills the dependent rows.
    """

    n: int
    coeffs: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 4:
            raise SpecViolation(f"filiform spec needs dim >= 4, got {self.n}")
        n = self.n
        table = {k: qq(v) for k, v in dict(self.coeffs).items()}
        for (i, k) in table:
            if not (3 <= i <= n - 2 and i + 2 <= k <= n):
                raise SpecViolation(f"coefficient index ({i}, {k}) out of range")
        for i in range(3, n - 2):
            for k in range(i + 3, n + 1):
                left = table.get((i + 1, k), QQ(0))
                right = table.get((i, k - 1), QQ(0))
                if left != right:
                    raise SpecViolation(
                        f"shift constraint broken: c[{i + 1},{k}] = {left} "
                        f"but c[{i},{k - 1}] = {right}"
                    )
        object.__setattr__(self, "coeffs", table)

    @classmethod
    def from_free_row(cls, n: int, row: Sequence) -> "FiliformSpec":
        """Free choices c[3,k] for k = 5..n; dependent rows filled in."""
        row = [qq(x) for x in row]
        if len(row) != max(0, n - 4):
            raise SpecViolation(
                f"free row for dim {n} needs {max(0, n - 4)} entries, got {len(row)}"
            )
        table: dict[tuple[int, int], Fraction] = {}
        for pos, k in enumerate(range(5, n + 1)):
            table[(3, k)] = row[pos]
        for i in range(3, n - 2):
            for k in range(i + 3, n + 1):
                table[(i + 1, k)] = table.get((i, k - 1), QQ(0))
        return cls(n, table)

    def coefficient(self, i: int, k: int) -> Fraction:
        return self.coeffs.get((i, k), QQ(0))


def filiform_lie(spec: FiliformSpec) -> LieAlgebra:
    n = spec.n
    entries = []
    for i in range(2, n):
        entries.append((1, i, unit_vector(n, i)))
    for i in range(3, n - 1):
        vec = [QQ(0)] * n
        any_nonzero = False
        for k in range(i + 2, n + 1):
            c = spec.coefficient(i, k)
            if c != 0:
                vec[k - 1] = c
                any_nonzero = True
        if any_nonzero:
            entries.append((2, i, tuple(vec)))
    return LieAlgebra.from_table(n, entries)


def filiform_lr(spec: FiliformSpec) -> LRAlgebra:
    """LR-structure with L(e1) = 0 and L(ei) = ad(e1)^(i-2) ad(e2)."""
    g = filiform_lie(spec)
    n = g.dim
    ad1 = g.ad_basis(0)
    ad2 = g.ad_basis(1)
    lmats = [Matrix.zero(n, n), ad2]
    power = ad2
    for _ in range(3, n + 1):
        power = ad1 @ power
        lmats.append(power)
    return _lr_from_left_mults(g, lmats)


def _lr_from_left_mults(g: LieAlgebra, lmats: Sequence[Matrix]) -> LRAlgebra:
    n = g.dim
    entries = []
    for i in range(n):
        for j in range(n):
            col = lmats[i].column(j)
            if any(c != 0 for c in col):
                entries.append((i + 1, j + 1, col))
    return lr_from_table(g, entries)


# -- halved adjoint ------------------------------------------------------


def halved_adjoint_lr(g: LieAlgebra) -> LRAlgebra:
    """x.y = [x,y]/2 on a 2-step nilpotent algebra."""
    n = g.dim
    for (i, j), v in sorted(g.table.items()):
        if i > j:
            continue
        for m in range(n):
            if basis_action(g.table, m, v, True):
                raise NotTwoStepNilpotent((m + 1, (i + 1, j + 1)))
    half = QQ(1, 2)
    entries = [
        (i + 1, j + 1, _densify(n, {k: half * c for k, c in v.items()}))
        for (i, j), v in sorted(g.table.items())
    ]
    return lr_from_table(g, entries)


# -- free 2-step and 3-step nilpotent ------------------------------------


def free_two_step_lie(n: int) -> LieAlgebra:
    """Free 2-step nilpotent algebra on n generators: dim n + n(n-1)/2."""
    if n < 2:
        raise SpecViolation("need at least 2 generators")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    dim = n + len(pairs)
    entries = []
    for idx, (i, j) in enumerate(pairs):
        entries.append((i, j, unit_vector(dim, n + idx)))
    return LieAlgebra.from_table(dim, entries)


class _Free3Basis:
    """Index bookkeeping for the free 3-step basis.

    Ordering: generators x_1..x_n; then y_(i,j) = [x_i,x_j] for i<j in
    lexicographic pair order; then the degree-3 elements z_(i,(j,k)) =
    [x_i, y_(j,k)] with j < k and i >= j, grouped by the pair (j,k) in
    lexicographic order with i ascending inside each group.
    """

    def __init__(self, n: int):
        self.n = n
        self.pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        self.pair_pos = {p: idx for idx, p in enumerate(self.pairs)}
        self.triples = []
        for (j, k) in self.pairs:
            for i in range(j, n + 1):
                self.triples.append((i, j, k))
        self.triple_pos = {t: idx for idx, t in enumerate(self.triples)}
        self.dim = n + len(self.pairs) + len(self.triples)

    def x(self, i: int) -> int:
        return i - 1

    def y(self, i: int, j: int) -> int:
        return self.n + self.pair_pos[(i, j)]

    def z_hall(self, i: int, j: int, k: int) -> int:
        return self.n + len(self.pairs) + self.triple_pos[(i, j, k)]

    def zvec(self, i: int, j: int, k: int) -> SparseVec:
        """[x_i, y_(j,k)] expanded into the Hall basis (j < k required)."""
        if i >= j:
            return {self.z_hall(i, j, k): QQ(1)}
        # i < j < k: rewrite through the Jacobi identity
        return {
            self.z_hall(j, i, k): QQ(1),
            self.z_hall(k, i, j): QQ(-1),
        }

    def labels(self) -> list[str]:
        out = [f"x{i}" for i in range(1, self.n + 1)]
        out += [f"y{i}_{j}" for (i, j) in self.pairs]
        out += [f"z{i}_{j}_{k}" for (i, j, k) in self.triples]
        return out


def free3_dimension(n: int) -> int:
    return n + n * (n - 1) // 2 + (n**3 - n) // 3


def free3_lie(n: int) -> LieAlgebra:
    """Free 3-step nilpotent Lie algebra on n generators."""
    if n < 2:
        raise SpecViolation("need at least 2 generators")
    b = _Free3Basis(n)
    dim = b.dim
    entries = []
    for (i, j) in b.pairs:
        entries.append((b.x(i) + 1, b.x(j) + 1, unit_vector(dim, b.y(i, j))))
    for i in range(1, n + 1):
        for (j, k) in b.pairs:
            vec = [QQ(0)] * dim
            for t, c in b.zvec(i, j, k).items():
                vec[t] = c
            entries.append((b.x(i) + 1, b.y(j, k) + 1, tuple(vec)))
    g = LieAlgebra.from_table(dim, entries, basis_names=b.labels())
    assert g.dim == free3_dimension(n)
    return g


def free3_lr(n: int) -> LRAlgebra:
    """Canonical LR product on the free 3-step nilpotent algebra.

    Nonzero products: x_j . x_i = -y_(i,j) for i < j;
    x_i . y_(j,k) = z_(i,(j,k)) when j < k <= i, and z_(k,(j,i)) when
    j < i < k; y_(j,k) . x_i = z_(k,(j,i)) - z_(i,(j,k)) when j < i < k,
    and -z_(i,(j,k)) when i <= j.  Everything else multiplies to zero.
    """
    g = free3_lie(n)
    b = _Free3Basis(n)
    dim = b.dim
    entries = []

    def emit(row: int, col: int, sv: SparseVec):
        if sv:
            entries.append((row + 1, col + 1, _densify(dim, sv)))

    for (i, j) in b.pairs:  # i < j
        emit(b.x(j), b.x(i), {b.y(i, j): QQ(-1)})
    for i in range(1, n + 1):
        for (j, k) in b.pairs:
            if k <= i:
                emit(b.x(i), b.y(j, k), b.zvec(i, j, k))
            elif j < i < k:
                emit(b.x(i), b.y(j, k), b.zvec(k, j, i))
            # i <= j: zero
    for i in range(1, n + 1):
        for (j, k) in b.pairs:
            if j < i < k:
                emit(b.y(j, k), b.x(i), sparse_sub(b.zvec(k, j, i), b.zvec(i, j, k)))
            elif i <= j:
                emit(b.y(j, k), b.x(i), sparse_sub({}, b.zvec(i, j, k)))
            # k <= i: zero
    return lr_from_table(g, entries)


# -- free 4-step on two generators ---------------------------------------


def free4_two_gen_lie() -> LieAlgebra:
    """Free 4-step nilpotent algebra on two generators, dimension 8.

    Basis: e1, e2 generators; e3 = [e1,e2]; e4 = [e1,e3]; e5 = [e2,e3];
    e6 = [e1,e4]; e7 = [e2,e4] = [e1,e5]; e8 = [e2,e5].
    """
    entries = [
        (1, 2, unit_vector(8, 2)),
        (1, 3, unit_vector(8, 3)),
        (2, 3, unit_vector(8, 4)),
        (1, 4, unit_vector(8, 5)),
        (2, 4, unit_vector(8, 6)),
        (1, 5, unit_vector(8, 6)),
        (2, 5, unit_vector(8, 7)),
    ]
    return LieAlgebra.from_table(8, entries)


def free4_two_gen_lr() -> LRAlgebra:
    """LR-structure on the free 4-step algebra from adjoint words:
    L(e1) = 0, L(e2) = ad e2, L(e3) = ad e1 ad e2, L(e4) = (ad e1)^2 ad e2,
    L(e5) = ad e2 ad e1 ad e2, L(e6) = L(e7) = L(e8) = 0."""
    g = free4_two_gen_lie()
    ad1 = g.ad_basis(0)
    ad2 = g.ad_basis(1)
    z = Matrix.zero(8, 8)
    lmats = [z, ad2, ad1 @ ad2, ad1 @ ad1 @ ad2, ad2 @ ad1 @ ad2, z, z, z]
    return _lr_from_left_mults(g, lmats)
