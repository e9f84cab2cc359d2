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
    qq,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .lr import LRAlgebra, VerificationReport, Violation, verify_axioms


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


def _as_omega(a_dim: int, b_dim: int, omega) -> tuple:
    if omega is None:
        z = zero_vector(a_dim)
        return tuple(tuple(z for _ in range(b_dim)) for _ in range(b_dim))
    rows = []
    for i in range(b_dim):
        row = []
        for j in range(b_dim):
            v = tuple(qq(x) for x in omega[i][j])
            if len(v) != a_dim:
                raise ExtensionError(
                    f"cochain value at ({i + 1}, {j + 1}) has length {len(v)}, "
                    f"expected {a_dim}"
                )
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class ExtensionData:
    a_dim: int
    b: LieAlgebra
    phi: tuple[Matrix, ...]
    omega: tuple

    def __post_init__(self):
        if len(self.phi) != self.b.dim:
            raise ExtensionError("need one phi matrix per base basis vector")
        for m in self.phi:
            if m.rows != self.a_dim or m.cols != self.a_dim:
                raise ExtensionError("phi matrices must act on the kernel")
        object.__setattr__(
            self, "omega", _as_omega(self.a_dim, self.b.dim, self.omega)
        )

    def phi_of(self, x: Vector) -> Matrix:
        acc = Matrix.zero(self.a_dim, self.a_dim)
        for i, c in enumerate(x):
            if c != 0:
                acc = acc + self.phi[i].scale(c)
        return acc

    def omega_of(self, x: Vector, y: Vector) -> Vector:
        acc = zero_vector(self.a_dim)
        for i, c in enumerate(x):
            if c == 0:
                continue
            for j, d in enumerate(y):
                if d == 0:
                    continue
                acc = vec_add(acc, vec_scale(c * d, self.omega[i][j]))
        return acc


def validate_extension(d: ExtensionData) -> VerificationReport:
    """Representation law, antisymmetry of Omega, and the cocycle identity,
    all over basis tuples of the base."""
    m = d.b.dim
    violations: list[Violation] = []
    counts = {"phi_respects_brackets": 0, "omega_antisymmetric": 0, "omega_cocycle": 0}

    def note(check, where, residual):
        violations.append(Violation(check, where, tuple(residual)))

    for i in range(m):
        for j in range(i + 1, m):
            counts["phi_respects_brackets"] += 1
            lhs = d.phi_of(_densify(m, d.b.bracket_basis(i, j)))
            rhs = d.phi[i] @ d.phi[j] - d.phi[j] @ d.phi[i]
            diff = lhs - rhs
            if not diff.is_zero():
                note(
                    "phi_respects_brackets",
                    (i, j),
                    tuple(x for row in diff.entries for x in row),
                )
    for i in range(m):
        for j in range(i, m):
            counts["omega_antisymmetric"] += 1
            res = vec_add(d.omega[i][j], d.omega[j][i])
            if not vec_is_zero(res):
                note("omega_antisymmetric", (i, j), res)

    def omega_vec(v: SparseVec, k: int) -> Vector:
        acc = zero_vector(d.a_dim)
        for t, c in v.items():
            acc = vec_add(acc, vec_scale(c, d.omega[t][k]))
        return acc

    for i in range(m):
        for j in range(i + 1, m):
            cij = d.b.bracket_basis(i, j)
            for k in range(j + 1, m):
                counts["omega_cocycle"] += 1
                lhs = d.phi[i].apply(d.omega[j][k])
                lhs = vec_sub(lhs, d.phi[j].apply(d.omega[i][k]))
                lhs = vec_add(lhs, d.phi[k].apply(d.omega[i][j]))
                rhs = omega_vec(cij, k)
                rhs = vec_sub(rhs, omega_vec(d.b.bracket_basis(i, k), j))
                rhs = vec_add(rhs, omega_vec(d.b.bracket_basis(j, k), i))
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    note("omega_cocycle", (i, j, k), res)
    return VerificationReport(not violations, tuple(violations), counts)


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
    entries = []
    for i in range(m):
        for j in range(i + 1, m):
            vec = list(zero_vector(n))
            for t, c in enumerate(d.omega[i][j]):
                vec[t] = c
            for t, c in d.b.bracket_basis(i, j).items():
                vec[p + t] = c
            entries.append((p + i + 1, p + j + 1, tuple(vec)))
    for i in range(m):
        for j in range(p):
            col = d.phi[i].column(j)
            if any(c != 0 for c in col):
                vec = list(zero_vector(n))
                for t, c in enumerate(col):
                    vec[t] = c
                entries.append((p + i + 1, j + 1, tuple(vec)))
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
        zmat = Matrix.zero(p, p)
        phi1 = tuple(phi1) if phi1 is not None else tuple(zmat for _ in range(m))
        phi2 = tuple(phi2) if phi2 is not None else tuple(zmat for _ in range(m))
        om = _as_omega(p, m, omega)
        zp = zero_vector(p)
        zm = zero_vector(m)
        if a_product is None:
            a_product = tuple(tuple(zp for _ in range(p)) for _ in range(p))
        else:
            a_product = tuple(
                tuple(tuple(qq(x) for x in a_product[i][j]) for j in range(p))
                for i in range(p)
            )
        if b_product is None:
            b_product = tuple(tuple(zm for _ in range(m)) for _ in range(m))
        else:
            b_product = tuple(
                tuple(tuple(qq(x) for x in b_product[i][j]) for j in range(m))
                for i in range(m)
            )
        return cls(phi1, phi2, om, a_product, b_product)

    def a_prod(self, u: Vector, v: Vector) -> Vector:
        p = len(self.a_product)
        acc = zero_vector(p)
        for i, c in enumerate(u):
            if c == 0:
                continue
            for j, e in enumerate(v):
                if e != 0:
                    acc = vec_add(acc, vec_scale(c * e, self.a_product[i][j]))
        return acc

    def omega_row(self, v: Vector, j: int) -> Vector:
        """omega(v, e_j) for a base vector v."""
        p = len(self.omega[0][0]) if self.omega else 0
        acc = zero_vector(p)
        for t, c in enumerate(v):
            if c != 0:
                acc = vec_add(acc, vec_scale(c, self.omega[t][j]))
        return acc

    def omega_col(self, i: int, v: Vector) -> Vector:
        """omega(e_i, v) for a base vector v."""
        p = len(self.omega[0][0]) if self.omega else 0
        acc = zero_vector(p)
        for t, c in enumerate(v):
            if c != 0:
                acc = vec_add(acc, vec_scale(c, self.omega[i][t]))
        return acc


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
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def note(check, where, residual):
        violations.append(Violation(check, where, tuple(residual)))

    def bump(check):
        counts[check] = counts.get(check, 0) + 1

    aunit = [tuple(QQ(1) if t == i else QQ(0) for t in range(p)) for i in range(p)]
    bunit = [tuple(QQ(1) if t == i else QQ(0) for t in range(m)) for i in range(m)]

    # prechecks: kernel product commutative associative, base product LR
    for i in range(p):
        for j in range(i, p):
            bump("kernel_product_commutative")
            res = vec_sub(l.a_product[i][j], l.a_product[j][i])
            if not vec_is_zero(res):
                note("kernel_product_commutative", (i, j), res)
    for i in range(p):
        for j in range(p):
            for k in range(p):
                bump("kernel_product_associative")
                res = vec_sub(
                    l.a_prod(l.a_product[i][j], aunit[k]),
                    l.a_prod(aunit[i], l.a_product[j][k]),
                )
                if not vec_is_zero(res):
                    note("kernel_product_associative", (i, j, k), res)
    base_table: dict[tuple[int, int], SparseVec] = {}
    for i in range(m):
        for j in range(m):
            sv = _sparsify(l.b_product[i][j])
            if sv:
                base_table[(i, j)] = sv
    base_lr = LRAlgebra(d.b, base_table)
    base_report = verify_axioms(base_lr)
    bump("base_product_lr")
    if not base_report.ok:
        first = base_report.violations[0]
        note("base_product_lr", (first.check,) + first.where, first.residual)

    phi = d.phi
    phi1, phi2 = l.phi1, l.phi2

    for i in range(m):
        for j in range(m):
            bump("omega_skew_matches_cocycle")
            res = vec_sub(vec_sub(l.omega[i][j], l.omega[j][i]), d.omega[i][j])
            if not vec_is_zero(res):
                note("omega_skew_matches_cocycle", (i, j), res)
    for i in range(m):
        bump("phi_difference_is_action")
        diff = phi2[i] - phi1[i] - phi[i]
        if not diff.is_zero():
            note(
                "phi_difference_is_action",
                (i,),
                tuple(x for row in diff.entries for x in row),
            )
    for x in range(m):
        for y in range(m):
            bump("phi2_commute")
            res = phi2[x].commutator(phi2[y])
            if not res.is_zero():
                note("phi2_commute", (x, y), tuple(e for r in res.entries for e in r))
            bump("phi1_commute")
            res = phi1[x].commutator(phi1[y])
            if not res.is_zero():
                note("phi1_commute", (x, y), tuple(e for r in res.entries for e in r))
            for z in range(m):
                bump("phi2_omega_exchange")
                lhs = vec_sub(
                    phi2[x].apply(l.omega[y][z]), phi2[y].apply(l.omega[x][z])
                )
                rhs = vec_sub(
                    l.omega_col(y, l.b_product[x][z]),
                    l.omega_col(x, l.b_product[y][z]),
                )
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    note("phi2_omega_exchange", (x, y, z), res)
                bump("phi1_omega_exchange")
                lhs = vec_sub(
                    phi1[z].apply(l.omega[x][y]), phi1[y].apply(l.omega[x][z])
                )
                rhs = vec_sub(
                    l.omega_row(l.b_product[x][z], y),
                    l.omega_row(l.b_product[x][y], z),
                )
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    note("phi1_omega_exchange", (x, y, z), res)

    def phi_of_vec(mats: tuple[Matrix, ...], v: Vector) -> Matrix:
        acc = Matrix.zero(p, p)
        for t, c in enumerate(v):
            if c != 0:
                acc = acc + mats[t].scale(c)
        return acc

    for y in range(m):
        for z in range(m):
            phi1_yz = phi_of_vec(phi1, l.b_product[y][z])
            for a in range(p):
                bump("phi1_product_rule")
                lhs = vec_add(
                    l.a_prod(aunit[a], l.omega[y][z]), phi1_yz.apply(aunit[a])
                )
                rhs = phi2[y].apply(phi1[z].apply(aunit[a]))
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    note("phi1_product_rule", (a, y, z), res)
    for x in range(m):
        for y in range(m):
            phi2_xy = phi_of_vec(phi2, l.b_product[x][y])
            for c in range(p):
                bump("phi2_product_rule")
                lhs = vec_add(
                    l.a_prod(l.omega[x][y], aunit[c]), phi2_xy.apply(aunit[c])
                )
                rhs = phi1[y].apply(phi2[x].apply(aunit[c]))
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    note("phi2_product_rule", (x, y, c), res)
    for y in range(m):
        for a in range(p):
            for c in range(p):
                bump("phi2_kernel_bimodule")
                res = vec_sub(
                    phi2[y].apply(l.a_product[a][c]),
                    l.a_prod(aunit[a], phi2[y].apply(aunit[c])),
                )
                if not vec_is_zero(res):
                    note("phi2_kernel_bimodule", (y, a, c), res)
                bump("phi1_kernel_symmetry")
                res = vec_sub(
                    l.a_prod(aunit[a], phi1[y].apply(aunit[c])),
                    l.a_prod(aunit[c], phi1[y].apply(aunit[a])),
                )
                if not vec_is_zero(res):
                    note("phi1_kernel_symmetry", (y, a, c), res)
                bump("phi1_kernel_bimodule")
                res = vec_sub(
                    phi1[y].apply(l.a_product[a][c]),
                    l.a_prod(phi1[y].apply(aunit[a]), aunit[c]),
                )
                if not vec_is_zero(res):
                    note("phi1_kernel_bimodule", (y, a, c), res)
                bump("phi2_kernel_symmetry")
                res = vec_sub(
                    l.a_prod(phi2[y].apply(aunit[c]), aunit[a]),
                    l.a_prod(phi2[y].apply(aunit[a]), aunit[c]),
                )
                if not vec_is_zero(res):
                    note("phi2_kernel_symmetry", (y, c, a), res)
    return VerificationReport(not violations, tuple(violations), counts)


def lift_product_tensor(d: ExtensionData, l: LiftData) -> dict[tuple[int, int], SparseVec]:
    """Raw product table of the lifted product on kernel + base coordinates."""
    p, m = d.a_dim, d.b.dim
    table: dict[tuple[int, int], SparseVec] = {}

    def put(i, j, vec):
        sv = _sparsify(tuple(vec))
        if sv:
            table[(i, j)] = sv

    n = p + m
    for i in range(p):
        for j in range(p):
            vec = list(zero_vector(n))
            for t, c in enumerate(l.a_product[i][j]):
                vec[t] = c
            put(i, j, vec)
    for i in range(p):
        for j in range(m):
            col = l.phi1[j].column(i)
            vec = list(zero_vector(n))
            for t, c in enumerate(col):
                vec[t] = c
            put(i, p + j, vec)
    for i in range(m):
        for j in range(p):
            col = l.phi2[i].column(j)
            vec = list(zero_vector(n))
            for t, c in enumerate(col):
                vec[t] = c
            put(p + i, j, vec)
    for i in range(m):
        for j in range(m):
            vec = list(zero_vector(n))
            for t, c in enumerate(l.omega[i][j]):
                vec[t] = c
            for t, c in enumerate(l.b_product[i][j]):
                vec[p + t] = c
            put(p + i, p + j, vec)
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
    eunit = [tuple(QQ(1) if t == i else QQ(0) for t in range(m)) for i in range(m)]
    omega = []
    for i in range(m):
        row = []
        for j in range(m):
            w = d.omega_of(e, eunit[j])
            row.append(phie_inv.apply(d.phi[i].apply(w)))
        omega.append(tuple(row))
    l = LiftData.build(d, phi2=d.phi, omega=tuple(omega))
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
        if base_mat.det() != 0:
            break
    powers = [Matrix.identity(a_dim)]
    for _ in range(3):
        powers.append(powers[-1] @ base_mat)
    phis = [base_mat]
    for _ in range(b_dim - 1):
        acc = Matrix.zero(a_dim, a_dim)
        for pw in powers:
            acc = acc + pw.scale(QQ(rng.randint(-2, 2)))
        phis.append(acc)
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
    e = tuple(QQ(1) if t == 0 else QQ(0) for t in range(b_dim))
    return d, e
