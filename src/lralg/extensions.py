"""Abelian-kernel extensions of Lie algebras and lifted LR products.

An extension datum is (a, b, phi, Omega): an abelian kernel of dimension
a_dim, a base Lie algebra b, a representation phi of b on the kernel and
an antisymmetric 2-cochain Omega satisfying the cocycle identity.  The
extension Lie algebra lives on a x b with bracket

    [(a,x), (b,y)] = (phi(x)b - phi(y)a + Omega(x,y), [x,y]).

A lift datum (phi1, phi2, omega, kernel product, base product) describes
a candidate product

    (a,x) o (b,y) = (a.b + phi1(y)a + phi2(x)b + omega(x,y), x.y)

and the twelve named conditions below are, together, exactly equivalent
to that product being an LR-structure on the extension.  Two special
recipes are provided: the semidirect lift and the lift through an
invertible generator on an abelian base.
"""

from dataclasses import dataclass
from typing import Sequence

from .lie import LieAlgebra, SparseVec, _densify, _sparsify
from .linalg import (
    QQ,
    Matrix,
    Vector,
    combination,
    qq,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .lr import Checks, LRAlgebra, VerificationReport, verify_axioms


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


def _bilinear(tensor, u: Vector, v: Vector) -> Vector:
    """The sum of u_i v_j tensor[i][j] over a dense table of vectors."""
    acc = [QQ(0)] * (len(tensor[0][0]) if tensor else 0)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    ab = a * b
                    for k, c in enumerate(tensor[i][j]):
                        if c:
                            acc[k] += ab * c
    return tuple(acc)


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

    def omega_of(self, x: Vector, y: Vector) -> Vector:
        return _bilinear(self.omega, x, y)


def validate_extension(d: ExtensionData) -> VerificationReport:
    """Representation law, antisymmetry of Omega, and the cocycle identity,
    all over basis tuples of the base."""
    m = d.b.dim
    checks = Checks(
        d.a_dim, ("phi_respects_brackets", "omega_antisymmetric", "omega_cocycle")
    )
    for i in range(m):
        for j in range(i + 1, m):
            checks.equal(
                "phi_respects_brackets",
                (i, j),
                d.phi_of(_densify(m, d.b.bracket_basis(i, j))),
                d.phi[i].commutator(d.phi[j]),
            )
    for i in range(m):
        for j in range(i, m):
            neg = vec_scale(-1, d.omega[j][i])
            checks.equal("omega_antisymmetric", (i, j), d.omega[i][j], neg)

    unit = [unit_vector(m, i) for i in range(m)]

    def omega_at(i, j, k):  # Omega([e_i, e_j], e_k)
        return d.omega_of(_densify(m, d.b.bracket_basis(i, j)), unit[k])

    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                lhs = d.phi[i].apply(d.omega[j][k])
                lhs = vec_sub(lhs, d.phi[j].apply(d.omega[i][k]))
                lhs = vec_add(lhs, d.phi[k].apply(d.omega[i][j]))
                rhs = vec_sub(omega_at(i, j, k), omega_at(i, k, j))
                rhs = vec_add(rhs, omega_at(j, k, i))
                checks.equal("omega_cocycle", (i, j, k), lhs, rhs)
    return checks.report()


def extension_lie_algebra(d: ExtensionData) -> LieAlgebra:
    """Lie algebra on kernel + base coordinates (kernel block first)."""
    report = validate_extension(d)
    if not report.ok:
        raise HypothesisFailed(
            "extension datum invalid: "
            + ", ".join(sorted({v.check for v in report.violations}))
        )
    p, m = d.a_dim, d.b.dim
    n = p + m
    entries = [
        (p + i + 1, p + j + 1, d.omega[i][j] + _densify(m, d.b.bracket_basis(i, j)))
        for i in range(m)
        for j in range(i + 1, m)
    ]
    for i in range(m):
        for j in range(p):
            col = d.phi[i].column(j)
            if any(col):
                entries.append((p + i + 1, j + 1, col + zero_vector(m)))
    return LieAlgebra.from_table(n, entries)


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
    """Check the twelve lift conditions (plus structural prechecks on the
    kernel and base products) over all basis tuples.

    The report is the executable side of the equivalence: it is all-clear
    exactly when the lifted product satisfies the LR axioms.
    """
    p, m = d.a_dim, d.b.dim
    checks = Checks(p)
    aunit = [unit_vector(p, i) for i in range(p)]
    bunit = [unit_vector(m, i) for i in range(m)]
    ap, om, phi1, phi2 = l.a_product, l.omega, l.phi1, l.phi2

    # prechecks: kernel product commutative associative, base product LR
    for i in range(p):
        for j in range(i, p):
            checks.equal("kernel_product_commutative", (i, j), ap[i][j], ap[j][i])
    for i in range(p):
        for j in range(p):
            for k in range(p):
                checks.equal(
                    "kernel_product_associative",
                    (i, j, k),
                    _bilinear(ap, ap[i][j], aunit[k]),
                    _bilinear(ap, aunit[i], ap[j][k]),
                )
    base_table = {
        (i, j): sv
        for i in range(m)
        for j in range(m)
        if (sv := _sparsify(l.b_product[i][j]))
    }
    base_report = verify_axioms(LRAlgebra(d.b, base_table))
    if base_report.ok:
        checks.flag("base_product_lr", (), False)
    else:
        first = base_report.violations[0]
        where = (first.check,) + first.where
        checks.flag("base_product_lr", where, True, first.residual)

    for i in range(m):
        for j in range(m):
            checks.equal(
                "omega_skew_matches_cocycle",
                (i, j),
                vec_sub(om[i][j], om[j][i]),
                d.omega[i][j],
            )
    for i in range(m):
        checks.equal("phi_difference_is_action", (i,), phi2[i] - phi1[i], d.phi[i])
    for x in range(m):
        for y in range(m):
            checks.equal("phi2_commute", (x, y), phi2[x] @ phi2[y], phi2[y] @ phi2[x])
            checks.equal("phi1_commute", (x, y), phi1[x] @ phi1[y], phi1[y] @ phi1[x])
            for z in range(m):
                checks.equal(
                    "phi2_omega_exchange",
                    (x, y, z),
                    vec_sub(phi2[x].apply(om[y][z]), phi2[y].apply(om[x][z])),
                    vec_sub(
                        _bilinear(om, bunit[y], l.b_product[x][z]),
                        _bilinear(om, bunit[x], l.b_product[y][z]),
                    ),
                )
                checks.equal(
                    "phi1_omega_exchange",
                    (x, y, z),
                    vec_sub(phi1[z].apply(om[x][y]), phi1[y].apply(om[x][z])),
                    vec_sub(
                        _bilinear(om, l.b_product[x][z], bunit[y]),
                        _bilinear(om, l.b_product[x][y], bunit[z]),
                    ),
                )

    for y in range(m):
        for z in range(m):
            phi1_yz = combination(phi1, l.b_product[y][z])
            for a in range(p):
                checks.equal(
                    "phi1_product_rule",
                    (a, y, z),
                    vec_add(_bilinear(ap, aunit[a], om[y][z]), phi1_yz.column(a)),
                    phi2[y].apply(phi1[z].column(a)),
                )
    for x in range(m):
        for y in range(m):
            phi2_xy = combination(phi2, l.b_product[x][y])
            for c in range(p):
                checks.equal(
                    "phi2_product_rule",
                    (x, y, c),
                    vec_add(_bilinear(ap, om[x][y], aunit[c]), phi2_xy.column(c)),
                    phi1[y].apply(phi2[x].column(c)),
                )
    for y in range(m):
        for a in range(p):
            for c in range(p):
                checks.equal(
                    "phi2_kernel_bimodule",
                    (y, a, c),
                    phi2[y].apply(ap[a][c]),
                    _bilinear(ap, aunit[a], phi2[y].column(c)),
                )
                checks.equal(
                    "phi1_kernel_symmetry",
                    (y, a, c),
                    _bilinear(ap, aunit[a], phi1[y].column(c)),
                    _bilinear(ap, aunit[c], phi1[y].column(a)),
                )
                checks.equal(
                    "phi1_kernel_bimodule",
                    (y, a, c),
                    phi1[y].apply(ap[a][c]),
                    _bilinear(ap, phi1[y].column(a), aunit[c]),
                )
                checks.equal(
                    "phi2_kernel_symmetry",
                    (y, c, a),
                    _bilinear(ap, phi2[y].column(c), aunit[a]),
                    _bilinear(ap, phi2[y].column(a), aunit[c]),
                )
    return checks.report()


def lift_product_tensor(d: ExtensionData, l: LiftData) -> dict[tuple[int, int], SparseVec]:
    """Raw product table of the lifted product on kernel + base coordinates."""
    p, m = d.a_dim, d.b.dim
    table: dict[tuple[int, int], SparseVec] = {}

    def put(i, j, kernel, base=()):
        sv = {t: c for t, c in enumerate(kernel) if c}
        sv.update((p + t, c) for t, c in enumerate(base) if c)
        if sv:
            table[(i, j)] = sv

    for i in range(p):
        for j in range(p):
            put(i, j, l.a_product[i][j])
    for i in range(p):
        for j in range(m):
            put(i, p + j, l.phi1[j].column(i))
    for i in range(m):
        for j in range(p):
            put(p + i, j, l.phi2[i].column(j))
    for i in range(m):
        for j in range(m):
            put(p + i, p + j, l.omega[i][j], l.b_product[i][j])
    return table


def lift_product(d: ExtensionData, l: LiftData) -> LRAlgebra:
    """Build the lifted LR-algebra; LiftConditionsFailed carries the full
    per-condition report when the datum does not lift."""
    report = verify_lift_conditions(d, l)
    if not report.ok:
        raise LiftConditionsFailed(report)
    ext = extension_lie_algebra(d)
    a = LRAlgebra(ext, lift_product_tensor(d, l))
    check = verify_axioms(a)
    if not check.ok:
        # cannot happen when the twelve conditions hold; kept as a hard
        # cross-check of the equivalence
        raise LiftConditionsFailed(check)
    return a


def semidirect_lr(d: ExtensionData, b_lr: LRAlgebra) -> LRAlgebra:
    """Lift with phi1 = 0, phi2 = phi, omega = 0, trivial kernel product.

    Needs Omega = 0 and phi(x.y) = 0 for all base products x.y."""
    p, m = d.a_dim, d.b.dim
    if b_lr.g != d.b:
        raise HypothesisFailed("base LR-structure lives on a different Lie algebra")
    for i in range(m):
        for j in range(m):
            if not vec_is_zero(d.omega[i][j]):
                raise HypothesisFailed("semidirect lift needs a zero cocycle")
    for i in range(m):
        for j in range(m):
            prod = _densify(m, b_lr.product_basis(i, j))
            if not d.phi_of(prod).is_zero():
                raise HypothesisFailed(
                    f"phi does not vanish on the base product at ({i + 1}, {j + 1})"
                )
    b_product = tuple(
        tuple(_densify(m, b_lr.product_basis(i, j)) for j in range(m))
        for i in range(m)
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
    omega_raw = [
        [tuple(phis[i].apply(h.column(j))) for j in range(b_dim)]
        for i in range(b_dim)
    ]
    omega = [
        [
            vec_sub(omega_raw[i][j], omega_raw[j][i])
            for j in range(b_dim)
        ]
        for i in range(b_dim)
    ]
    from .lie import abelian_lie

    d = ExtensionData(a_dim, abelian_lie(b_dim), tuple(phis), tuple(map(tuple, omega)))
    return d, unit_vector(b_dim, 0)
