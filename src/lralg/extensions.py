"""Abelian-kernel extensions of Lie algebras and lifted LR products.

An extension datum is (a, b, phi, Omega): an abelian kernel of dimension
a_dim, a base Lie algebra b, a representation phi of b on the kernel and
an antisymmetric 2-cochain Omega satisfying the cocycle identity.  The
extension Lie algebra lives on a x b with bracket

    [(a,x), (b,y)] = (phi(x)b - phi(y)a + Omega(x,y), [x,y]).

A lift datum (phi1, phi2, omega, kernel product, base product) describes
a candidate product

    (a,x) o (b,y) = (a.b + phi1(y)a + phi2(x)b + omega(x,y), x.y)

with table lift_product_tensor.  Each of the twelve named lift
conditions is the kernel part of one LR1, LR2 or compatibility residual
of that table on one block of basis vectors; with prechecks on the
kernel and base products they are, together, exactly equivalent to the
product being an LR-structure on the extension.  Two special recipes are
provided: the semidirect lift and the lift through an invertible
generator on an abelian base.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

from .lie import (
    LieAlgebra,
    SparseVec,
    _densify,
    _sparsify,
    abelian_lie,
    basis_action,
    bilinear_sparse,
    jacobi_residual,
    sparse_add,
    sparse_sub as _sub,
)
from .linalg import (
    QQ,
    Matrix,
    Vector,
    combination,
    qq,
    unit_vector,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .lr import Checks, LRAlgebra, VerificationReport, lr_from_table, verify_axioms
from .lr import compat_residual, lr1_residual, lr2_residual


class ExtensionError(ValueError):
    pass


class NotInvertible(ExtensionError):
    pass


class NotAbelian(ExtensionError):
    pass


class HypothesisFailed(ExtensionError):
    pass


class LiftConditionsFailed(ExtensionError):
    def __init__(self, report: VerificationReport):
        self.report = report
        checks = sorted({v.check for v in report.violations})
        super().__init__(f"lift conditions failed: {', '.join(checks)}")


def _tensor(what: str, size: int, length: int, value) -> tuple:
    """A size x size table of length-`length` vectors, read from nested
    sequences and checked for shape; None is the zero table."""
    if value is None:
        z = zero_vector(length)
        return tuple(tuple(z for _ in range(size)) for _ in range(size))
    if len(value) != size or any(len(row) != size for row in value):
        raise ExtensionError(f"{what} must be a {size}x{size} table of vectors")
    rows = []
    for i, row in enumerate(value):
        vecs = tuple(tuple(qq(x) for x in vec) for vec in row)
        for j, v in enumerate(vecs):
            if len(v) != length:
                raise ExtensionError(
                    f"{what} value at ({i + 1}, {j + 1}) has length {len(v)}, "
                    f"expected {length}"
                )
        rows.append(vecs)
    return tuple(rows)


def _phi_matrices(phi, p: int, m: int) -> tuple[Matrix, ...]:
    """phi as a tuple, checked to hold one p x p matrix per basis vector
    of an m-dimensional base."""
    phi = tuple(phi)
    if len(phi) != m:
        raise ExtensionError("need one phi matrix per base basis vector")
    if any(mat.rows != p or mat.cols != p for mat in phi):
        raise ExtensionError("phi matrices must act on the kernel")
    return phi


@dataclass(frozen=True)
class ExtensionData:
    a_dim: int
    b: LieAlgebra
    phi: tuple[Matrix, ...]
    omega: tuple

    def __post_init__(self):
        _phi_matrices(self.phi, self.a_dim, self.b.dim)
        object.__setattr__(
            self, "omega", _tensor("cochain", self.b.dim, self.a_dim, self.omega)
        )

    def phi_of(self, x: Vector) -> Matrix:
        return combination(self.phi, x)

    @cached_property
    def bracket_table(self) -> dict[tuple[int, int], SparseVec]:
        """The extension bracket on kernel + base coordinates, zero entries
        left out: [e_x, e_y] = Omega(x, y) + [x, y] on every ordered base
        pair as the datum gives it and [e_x, c] = -[c, e_x] = phi(x)c."""
        p, m, b = self.a_dim, self.b.dim, self.b
        blocks = [
            ((p + x, p + y), self.omega[x][y] + _densify(m, b.bracket_basis(x, y)))
            for x in range(m)
            for y in range(m)
        ]
        for x, mat in enumerate(self.phi):
            for c, col in enumerate(mat.transpose().entries):
                blocks += [((p + x, c), col), ((c, p + x), vec_scale(-1, col))]
        return {ij: sv for ij, v in blocks if (sv := _sparsify(v))}

    def omega_of(self, x: Vector, y: Vector) -> Vector:
        """Omega(x, y), the kernel part of the bracket of base vectors."""
        p = self.a_dim
        xs, ys = ({p + k: c for k, c in enumerate(v) if c} for v in (x, y))
        xy = bilinear_sparse(self.bracket_table, xs, ys)
        return _densify(p, {k: c for k, c in xy.items() if k < p})


def _kernel_check(checks: Checks, name: str, where: tuple, residual: SparseVec) -> None:
    """Record the kernel part of a residual on kernel + base coordinates."""
    checks.sparse(name, where, {k: c for k, c in residual.items() if k < checks.dim})


def _kernel_matrix(checks: Checks, name: str, where: tuple, column) -> None:
    """Record the kernel matrix with column c the kernel part of column(c)."""
    p = checks.dim
    flat = {r * p + c: x for c in range(p) for r, x in column(c).items() if r < p}
    checks.flag(name, where, bool(flat), _densify(p * p, flat))


def validate_extension(d: ExtensionData) -> VerificationReport:
    """Antisymmetry and the Jacobi identity of bracket_table.  Each check
    is the kernel part of one residual, J being lie.jacobi_residual, at
    kernel c and base i, j, k basis vectors:

        phi_respects_brackets  (i, j)     J(c, i, j)       i < j, column c
        omega_antisymmetric    (i, j)     [i, j] + [j, i]  i <= j
        omega_cocycle          (i, j, k)  -J(i, j, k)      i < j < k

    The matrix is reported row by row.  Other triples give zero and the
    base part of J is the Jacobi identity of d.b, so the report is
    all-clear exactly when the bracket is a Lie bracket.
    """
    p, m, t = d.a_dim, d.b.dim, d.bracket_table
    checks = Checks(p, ("phi_respects_brackets", "omega_antisymmetric", "omega_cocycle"))
    for i in range(m):
        for j in range(i + 1, m):
            column = partial(jacobi_residual, t, v=p + i, w=p + j)
            _kernel_matrix(checks, "phi_respects_brackets", (i, j), column)
    for i in range(m):
        for j in range(i, m):
            sym = sparse_add(t.get((p + i, p + j), {}), t.get((p + j, p + i), {}))
            _kernel_check(checks, "omega_antisymmetric", (i, j), sym)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                jac = jacobi_residual(t, p + i, p + j, p + k)
                neg = {r: -c for r, c in jac.items()}
                _kernel_check(checks, "omega_cocycle", (i, j, k), neg)
    return checks.report()


def extension_lie_algebra(d: ExtensionData) -> LieAlgebra:
    """Lie algebra on kernel + base coordinates (kernel block first).  Its
    Jacobi identity is checked once, by validate_extension."""
    report = validate_extension(d)
    if not report.ok:
        checks = ", ".join(sorted({v.check for v in report.violations}))
        raise HypothesisFailed(f"extension datum invalid: {checks}")
    return LieAlgebra(d.a_dim + d.b.dim, d.bracket_table, _validate=False)


@dataclass(frozen=True)
class LiftData:
    phi1: tuple[Matrix, ...]
    phi2: tuple[Matrix, ...]
    omega: tuple
    a_product: tuple
    b_product: tuple

    @classmethod
    def build(
        cls,
        d: ExtensionData,
        phi1: Sequence[Matrix] | None = None,
        phi2: Sequence[Matrix] | None = None,
        omega=None,
        a_product=None,
        b_product=None,
    ) -> "LiftData":
        p, m = d.a_dim, d.b.dim
        zero = (Matrix.zero(p, p),) * m
        return cls(
            _phi_matrices(zero if phi1 is None else phi1, p, m),
            _phi_matrices(zero if phi2 is None else phi2, p, m),
            _tensor("cochain", m, p, omega),
            _tensor("kernel product", p, p, a_product),
            _tensor("base product", m, m, b_product),
        )


CONDITION_NAMES = (
    "omega_skew_matches_cocycle",
    "phi_difference_is_action",
    "phi2_omega_exchange",
    "phi1_product_rule",
    "phi2_commute",
    "phi2_kernel_bimodule",
    "phi1_kernel_symmetry",
    "phi1_omega_exchange",
    "phi2_product_rule",
    "phi1_commute",
    "phi1_kernel_bimodule",
    "phi2_kernel_symmetry",
)


def verify_lift_conditions(d: ExtensionData, l: LiftData) -> VerificationReport:
    """Check the lift conditions over all basis tuples.

    Each of the twelve is the kernel part of one residual on the lifted
    table, lr.lr1_residual LR1(u, v, w) = u(vw) - v(uw), lr.lr2_residual
    LR2(u, v, w) = (uv)w - (uw)v or lr.compat_residual compat(u, v) =
    uv - vu - [u, v] with the bracket of ExtensionData.bracket_table.  At
    kernel a, c and base x, y, z basis vectors:

        omega_skew_matches_cocycle  (x, y)     compat(x, y)
        phi_difference_is_action    (x,)       compat(x, c)
        phi2_commute                (x, y)     LR1(x, y, c)
        phi1_commute                (x, y)     LR2(c, y, x)
        phi2_omega_exchange         (x, y, z)  LR1(x, y, z)
        phi1_omega_exchange         (x, y, z)  LR2(x, y, z)
        phi1_product_rule           (a, y, z)  LR1(a, y, z)
        phi2_product_rule           (x, y, c)  LR2(x, y, c)
        phi2_kernel_bimodule        (y, a, c)  LR1(y, a, c)
        phi1_kernel_symmetry        (y, a, c)  LR1(a, c, y)
        phi1_kernel_bimodule        (y, a, c)  LR2(a, c, y)
        phi2_kernel_symmetry        (y, c, a)  LR2(y, c, a)

    The three whose `where` omits c are matrices, column c the residual
    at c, reported row by row.  Prechecks: compat on kernel pairs, the
    kernel associator and verify_axioms on the base product.  The report
    is all-clear exactly when the lifted product is LR.
    """
    p, m = d.a_dim, d.b.dim
    checks = Checks(p)
    t = lift_product_tensor(d, l)
    lr1, lr2 = partial(lr1_residual, t), partial(lr2_residual, t)
    compat = partial(compat_residual, t, d.bracket_table)
    kernel = partial(_kernel_check, checks)
    kernel_matrix = partial(_kernel_matrix, checks)

    for i in range(p):
        for j in range(i, p):
            kernel("kernel_product_commutative", (i, j), compat(i, j))
    for i in range(p):
        for j in range(p):
            for k in range(p):
                ij_k = basis_action(t, k, t.get((i, j), {}), False)
                assoc = _sub(ij_k, basis_action(t, i, t.get((j, k), {}), True))
                checks.sparse("kernel_product_associative", (i, j, k), assoc)
    base = [(i + 1, j + 1, l.b_product[i][j]) for i in range(m) for j in range(m)]
    base_report = verify_axioms(lr_from_table(d.b, base, validate=False))
    if base_report.ok:
        checks.flag("base_product_lr", (), False)
    else:
        first = base_report.violations[0]
        where = (first.check,) + first.where
        checks.flag("base_product_lr", where, True, first.residual)

    for x in range(m):
        for y in range(m):
            kernel("omega_skew_matches_cocycle", (x, y), compat(p + x, p + y))
    for x in range(m):
        kernel_matrix("phi_difference_is_action", (x,), lambda c: compat(p + x, c))
    for x in range(m):
        for y in range(m):
            kernel_matrix("phi2_commute", (x, y), lambda c: lr1(p + x, p + y, c))
            kernel_matrix("phi1_commute", (x, y), lambda c: lr2(c, p + y, p + x))
            for z in range(m):
                kernel("phi2_omega_exchange", (x, y, z), lr1(p + x, p + y, p + z))
                kernel("phi1_omega_exchange", (x, y, z), lr2(p + x, p + y, p + z))
    for y in range(m):
        for z in range(m):
            for a in range(p):
                kernel("phi1_product_rule", (a, y, z), lr1(a, p + y, p + z))
    for x in range(m):
        for y in range(m):
            for c in range(p):
                kernel("phi2_product_rule", (x, y, c), lr2(p + x, p + y, c))
    for y in range(m):
        for a in range(p):
            for c in range(p):
                kernel("phi2_kernel_bimodule", (y, a, c), lr1(p + y, a, c))
                kernel("phi1_kernel_symmetry", (y, a, c), lr1(a, c, p + y))
                kernel("phi1_kernel_bimodule", (y, a, c), lr2(a, c, p + y))
                kernel("phi2_kernel_symmetry", (y, c, a), lr2(p + y, c, a))
    return checks.report()


def lift_product_tensor(d: ExtensionData, l: LiftData) -> dict[tuple[int, int], SparseVec]:
    """Raw product table of the lifted product on kernel + base coordinates."""
    p, m = d.a_dim, d.b.dim
    blocks = [((i, j), l.a_product[i][j]) for i in range(p) for j in range(p)]
    blocks += [((i, p + y), l.phi1[y].column(i)) for i in range(p) for y in range(m)]
    blocks += [((p + x, j), l.phi2[x].column(j)) for x in range(m) for j in range(p)]
    blocks += [
        ((p + x, p + y), l.omega[x][y] + l.b_product[x][y])
        for x in range(m)
        for y in range(m)
    ]
    return {ij: sv for ij, v in blocks if (sv := _sparsify(v))}


def lift_product(d: ExtensionData, l: LiftData) -> LRAlgebra:
    """Build the lifted LR-algebra and check its axioms.  LiftConditionsFailed
    carries the per-condition report when the datum does not lift, even
    when the extension datum is also invalid (HypothesisFailed)."""
    try:
        ext = extension_lie_algebra(d)
    except HypothesisFailed:
        report = verify_lift_conditions(d, l)
        if not report.ok:
            raise LiftConditionsFailed(report) from None
        raise
    a = LRAlgebra(ext, lift_product_tensor(d, l))
    check = verify_axioms(a)
    if not check.ok:
        report = verify_lift_conditions(d, l)
        # the conditions fail whenever the axioms do, so the axiom report
        # is raised only if that equivalence itself breaks
        raise LiftConditionsFailed(check if report.ok else report)
    return a


def semidirect_lr(d: ExtensionData, b_lr: LRAlgebra) -> LRAlgebra:
    """Lift with phi1 = 0, phi2 = phi, omega = 0, trivial kernel product.

    Needs Omega = 0 and phi(x.y) = 0 for all base products x.y."""
    m = d.b.dim
    if b_lr.g != d.b:
        raise HypothesisFailed("base LR-structure lives on a different Lie algebra")
    if not all(vec_is_zero(v) for row in d.omega for v in row):
        raise HypothesisFailed("semidirect lift needs a zero cocycle")
    b_product = b_lr.product_tensor()
    for i in range(m):
        for j in range(m):
            if not d.phi_of(b_product[i][j]).is_zero():
                raise HypothesisFailed(
                    f"phi does not vanish on the base product at ({i + 1}, {j + 1})"
                )
    l = LiftData.build(d, phi2=d.phi, b_product=b_product)
    return lift_product(d, l)


def invertible_generator_lift(d: ExtensionData, e: Vector) -> LRAlgebra:
    """Lift through a generator e of an abelian base with phi(e) invertible:
    omega(x, y) = phi(e)^{-1} phi(x) Omega(e, y), phi1 = 0, phi2 = phi,
    and both componentwise products trivial."""
    m = d.b.dim
    if any(d.b.table.values()):
        raise NotAbelian("base algebra has a nonzero bracket")
    phie = d.phi_of(e)
    try:
        phie_inv = phie.inverse()
    except ZeroDivisionError:
        raise NotInvertible("phi(e) is singular") from None
    w = [d.omega_of(e, unit_vector(m, j)) for j in range(m)]
    omega = [[phie_inv.apply(d.phi[i].apply(w[j])) for j in range(m)] for i in range(m)]
    l = LiftData.build(d, phi2=d.phi, omega=omega)
    return lift_product(d, l)


def random_abelian_extension(rng, a_dim: int, b_dim: int):
    """Forward generator for randomized tests: commuting phi matrices
    (polynomials in one fixed invertible matrix), a coboundary-style
    cocycle Omega = omega - omega^T with omega(x, y) = phi(x) h(y), and
    an abelian base.  Returns (datum, generator vector e) with phi(e)
    invertible.

    With commuting phi and abelian base, this Omega always satisfies the
    cocycle identity, so the datum validates by construction."""
    while True:
        seed = Matrix(
            [[QQ(rng.randint(-2, 2)) for _ in range(a_dim)] for _ in range(a_dim)]
        )
        shift = Matrix.identity(a_dim).scale(QQ(rng.randint(1, 3)))
        base_mat = seed + shift
        if base_mat.rank() == a_dim:
            break
    powers = [Matrix.identity(a_dim)]
    for _ in range(3):
        powers.append(powers[-1] @ base_mat)
    phis = [base_mat]
    for _ in range(b_dim - 1):
        phis.append(combination(powers, [QQ(rng.randint(-2, 2)) for _ in powers]))
    h = Matrix([[QQ(rng.randint(-3, 3)) for _ in range(b_dim)] for _ in range(a_dim)])
    raw = [[phis[i].apply(h.column(j)) for j in range(b_dim)] for i in range(b_dim)]
    omega = [
        [vec_sub(raw[i][j], raw[j][i]) for j in range(b_dim)] for i in range(b_dim)
    ]
    d = ExtensionData(a_dim, abelian_lie(b_dim), tuple(phis), omega)
    return d, unit_vector(b_dim, 0)
