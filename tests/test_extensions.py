"""Abelian-kernel extensions and product lifts.

The central claim under test: a candidate product on an extension is an
LR product exactly when the twelve named lift conditions hold.  Both
directions are exercised on randomized data from the forward generator,
with deliberate single-spot corruptions for the negative direction.
"""

import random
from dataclasses import replace
from fractions import Fraction as QQ

import pytest
from test_reports import _bumped_phi, _bumped_table, broken_extensions, report_text

from lralg.extensions import (
    CONDITION_NAMES,
    ExtensionData,
    ExtensionError,
    HypothesisFailed,
    LiftConditionsFailed,
    LiftData,
    NotAbelian,
    NotInvertible,
    extension_lie_algebra,
    invertible_generator_lift,
    lift_product,
    lift_product_tensor,
    random_abelian_extension,
    semidirect_lr,
    validate_extension,
    verify_lift_conditions,
)
from lralg.catalog import lie_r2
from lralg.lie import (
    LieAlgebra,
    LieError,
    _densify,
    _sparsify,
    abelian_lie,
    lie_from_table,
    lower_central_series,
)
from lralg.linalg import (
    Matrix,
    combination,
    unit_vector,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from lralg.lr import Checks, LRAlgebra, lr_from_table, verify_axioms


def heisenberg_as_extension():
    """Kernel = the center, base = the abelian 2-dim quotient."""
    omega = (
        ((QQ(0),), (QQ(1),)),
        ((QQ(-1),), (QQ(0),)),
    )
    zero = Matrix.zero(1, 1)
    return ExtensionData(1, abelian_lie(2), (zero, zero), omega)


def test_validate_extension_accepts_heisenberg_datum():
    report = validate_extension(heisenberg_as_extension())
    assert report.ok
    assert report.counts["phi_respects_brackets"] == 1
    assert report.counts["omega_antisymmetric"] == 3


def test_validate_extension_flags_each_defect():
    # phi not a representation: the base is abelian but the phis do not commute
    n = Matrix([[0, 1], [0, 0]])
    nt = Matrix([[0, 0], [1, 0]])
    zeros = tuple(tuple((QQ(0), QQ(0)) for _ in range(2)) for _ in range(2))
    bad_phi = ExtensionData(2, abelian_lie(2), (n, nt), zeros)
    rep = validate_extension(bad_phi)
    assert not rep.ok
    assert rep.by_check("phi_respects_brackets")

    # omega not antisymmetric
    omega = (((QQ(1),), (QQ(0),)), ((QQ(0),), (QQ(0),)))
    z1 = Matrix.zero(1, 1)
    rep = validate_extension(ExtensionData(1, abelian_lie(2), (z1, z1), omega))
    assert not rep.ok
    assert rep.by_check("omega_antisymmetric")

    # cocycle identity broken: needs three base directions and a nonzero phi
    ident = Matrix.identity(1)
    omega3 = (
        ((QQ(0),), (QQ(0),), (QQ(1),)),
        ((QQ(0),), (QQ(0),), (QQ(0),)),
        ((QQ(-1),), (QQ(0),), (QQ(0),)),
    )
    rep = validate_extension(
        ExtensionData(1, abelian_lie(3), (z1, ident, z1), omega3)
    )
    assert not rep.ok
    assert rep.by_check("omega_cocycle")


def test_extension_lie_algebra_rebuilds_heisenberg():
    g = extension_lie_algebra(heisenberg_as_extension())
    assert g.dim == 3
    # kernel coordinate first: [b1, b2] = a1 sits at basis pair (2, 3)
    assert g.bracket_basis(1, 2) == {0: QQ(1)}
    assert lower_central_series(g).dims() == (3, 1, 0)


def test_extension_lie_algebra_rejects_bad_datum():
    omega = (((QQ(1),), (QQ(0),)), ((QQ(0),), (QQ(0),)))
    z1 = Matrix.zero(1, 1)
    with pytest.raises(HypothesisFailed):
        extension_lie_algebra(ExtensionData(1, abelian_lie(2), (z1, z1), omega))


class OracleChecks(Checks):
    """Checks with the dense comparison of the block-formula oracles."""

    def equal(self, name, where, lhs, rhs):
        """Two dense vectors or two matrices that should be equal; the
        residual lhs - rhs (a matrix row by row) is formed only when not."""
        if lhs == rhs:
            self.flag(name, where, False)
        elif isinstance(lhs, Matrix):
            self.flag(name, where, True, sum((lhs - rhs).entries, ()))
        else:
            self.flag(name, where, True, vec_sub(lhs, rhs))


# -- the dense block checks of a datum, kept as the oracle ---------------


def oracle_validate_extension(d):
    """Representation law, antisymmetry of Omega and the cocycle identity
    written out as dense block formulas over basis tuples of the base."""
    m = d.b.dim
    checks = OracleChecks(
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
        return _oracle_bilinear(d.omega, _densify(m, d.b.bracket_basis(i, j)), unit[k])

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


def dense_bracket_entries(d):
    """1-based entries [e_x, e_y] = Omega(x, y) + [x, y] on every ordered
    base pair and [e_x, c] = phi(x)c, as LieAlgebra.from_table reads them."""
    p, m = d.a_dim, d.b.dim
    base = [
        (p + x + 1, p + y + 1, d.omega[x][y] + _densify(m, d.b.bracket_basis(x, y)))
        for x in range(m)
        for y in range(m)
    ]
    return base + [
        (p + x + 1, c + 1, d.phi[x].column(c) + zero_vector(m))
        for x in range(m)
        for c in range(p)
    ]


def validation_cases():
    """The broken data of the report pins, 200 seeded forward-generator
    data, and each of those with one phi or Omega entry bumped."""
    yield from broken_extensions()
    for seed in range(200):
        rng = random.Random(seed)
        d, _ = random_abelian_extension(rng, rng.randint(1, 4), rng.randint(1, 4))
        yield d
        p, m = d.a_dim, d.b.dim
        if rng.randrange(2):
            yield replace(d, omega=_bumped_table(rng, d.omega, p))
        else:
            x, r, c = rng.randrange(m), rng.randrange(p), rng.randrange(p)
            rows = [list(row) for row in d.phi[x].entries]
            rows[r][c] += 1
            phi = tuple(Matrix(rows) if t == x else mat for t, mat in enumerate(d.phi))
            yield replace(d, phi=phi)


def test_validation_matches_the_dense_block_oracle():
    """validate_extension reads its checks off the antisymmetry and Jacobi
    residuals of the extension table and gives the report of the block
    formulas.  It accepts exactly the data whose bracket
    LieAlgebra.from_table accepts, and extension_lie_algebra, which skips
    from_table's own Jacobi pass, builds the same algebra."""
    cases = valid = 0
    for d in validation_cases():
        report = validate_extension(d)
        assert report_text(report) == report_text(oracle_validate_extension(d)), cases
        try:
            expected = LieAlgebra.from_table(d.a_dim + d.b.dim, dense_bracket_entries(d))
        except LieError:
            expected = None
        assert report.ok == (expected is not None), cases
        if report.ok:
            assert extension_lie_algebra(d) == expected, cases
            valid += 1
        else:
            with pytest.raises(HypothesisFailed):
                extension_lie_algebra(d)
        cases += 1
    assert (cases, valid) == (420, 237)


def test_extension_data_shape_validation():
    with pytest.raises(ExtensionError):
        ExtensionData(1, abelian_lie(2), (Matrix.zero(1, 1),), None)
    with pytest.raises(ExtensionError):
        ExtensionData(
            1, abelian_lie(2), (Matrix.zero(2, 2), Matrix.zero(2, 2)), None
        )


def _vectors(length, size):
    return [[(QQ(1),) * length for _ in range(size)] for _ in range(size)]


def _matrices(size, count):
    return [Matrix.identity(size) for _ in range(count)]


def _frozen(value):
    """Nested lists as the nested tuples that LiftData holds."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


@pytest.mark.parametrize(
    "arg, value, message",
    [
        # kernel and base are both 2-dimensional
        ("omega", _vectors(3, 2), "cochain value at (1, 1) has length 3, expected 2"),
        ("a_product", _vectors(1, 2), "kernel product value at (1, 1) has length 1"),
        ("b_product", _vectors(3, 2), "base product value at (1, 1) has length 3"),
        ("b_product", _vectors(2, 3), "base product must be a 2x2 table of vectors"),
        ("phi1", _matrices(2, 1), "need one phi matrix per base basis vector"),
        ("phi1", _matrices(1, 2), "phi matrices must act on the kernel"),
        ("phi2", _matrices(2, 1), "need one phi matrix per base basis vector"),
        ("phi2", _matrices(1, 2), "phi matrices must act on the kernel"),
    ],
    ids=[
        "omega",
        "a_product",
        "b_product",
        "b_product_rows",
        "phi1_count",
        "phi1_shape",
        "phi2_count",
        "phi2_shape",
    ],
)
def test_lift_data_build_checks_tensor_shapes(arg, value, message):
    d, _ = random_abelian_extension(random.Random(8), 2, 2)
    with pytest.raises(ExtensionError) as err:
        LiftData.build(d, **{arg: value})
    assert str(err.value).startswith(message)
    good = _matrices(2, 2) if arg.startswith("phi") else _vectors(2, 2)
    assert getattr(LiftData.build(d, **{arg: good}), arg) == _frozen(good)


def test_forward_generator_data_validates():
    rng = random.Random(404)
    for _ in range(10):
        a_dim = rng.randint(1, 4)
        b_dim = rng.randint(1, 4)
        d, e = random_abelian_extension(rng, a_dim, b_dim)
        assert validate_extension(d).ok
        assert d.phi_of(e).rank() == a_dim


def test_invertible_generator_lift_randomized():
    rng = random.Random(505)
    for _ in range(20):
        a_dim = rng.randint(1, 4)
        b_dim = rng.randint(1, 4)
        d, e = random_abelian_extension(rng, a_dim, b_dim)
        a = invertible_generator_lift(d, e)
        assert verify_axioms(a).ok
        assert a.dim == a_dim + b_dim


def test_lift_conditions_report_covers_all_twelve():
    rng = random.Random(606)
    d, e = random_abelian_extension(rng, 3, 3)
    lifted = invertible_generator_lift(d, e)
    # rebuild the lift datum the same way to inspect its report
    phie_inv = d.phi_of(e).inverse()
    units = [tuple(QQ(1) if t == i else QQ(0) for t in range(3)) for i in range(3)]
    omega = tuple(
        tuple(phie_inv.apply(d.phi[i].apply(d.omega_of(e, units[j]))) for j in range(3))
        for i in range(3)
    )
    l = LiftData.build(d, phi2=d.phi, omega=omega)
    report = verify_lift_conditions(d, l)
    assert report.ok
    for name in CONDITION_NAMES:
        assert report.counts.get(name, 0) > 0, name
    assert lift_product(d, l) == lifted


def corrupt(l, rng, d):
    """Return a LiftData with one random symmetric bump somewhere."""
    p = d.a_dim
    m = d.b.dim
    choice = rng.randrange(3)
    if choice == 0 and m >= 1:
        i = rng.randrange(m)
        om = [list(row) for row in l.omega]
        om[i][i] = tuple(QQ(x) + 1 for x in om[i][i])
        return LiftData(l.phi1, l.phi2, tuple(tuple(r) for r in om), l.a_product, l.b_product)
    if choice == 1:
        i = rng.randrange(m)
        bumped = l.phi2[i] + Matrix.identity(p)
        phi2 = tuple(bumped if t == i else mat for t, mat in enumerate(l.phi2))
        return LiftData(l.phi1, phi2, l.omega, l.a_product, l.b_product)
    i = rng.randrange(m)
    bumped = l.phi1[i] + Matrix.identity(p).scale(2)
    phi1 = tuple(bumped if t == i else mat for t, mat in enumerate(l.phi1))
    return LiftData(phi1, l.phi2, l.omega, l.a_product, l.b_product)


def seeded_lifts():
    """(datum, lift) for 60 seeds: the valid invertible-generator lift,
    each LiftData field corrupted alone, then all five together."""
    for seed in range(60):
        rng = random.Random(seed)
        d, e = random_abelian_extension(rng, rng.randint(1, 4), rng.randint(1, 4))
        p, m = d.a_dim, d.b.dim
        phie_inv = d.phi_of(e).inverse()
        w = [d.omega_of(e, tuple(QQ(t == j) for t in range(m))) for j in range(m)]
        omega = [[phie_inv.apply(d.phi[i].apply(w[j])) for j in range(m)] for i in range(m)]
        l = LiftData.build(d, phi2=d.phi, omega=omega)
        yield d, l
        fields = {
            "phi1": _bumped_phi(rng, l.phi1),
            "phi2": _bumped_phi(rng, l.phi2),
            "omega": _bumped_table(rng, l.omega, p),
            "a_product": _bumped_table(rng, l.a_product, p),
            "b_product": _bumped_table(rng, l.b_product, m),
        }
        for name, value in fields.items():
            yield d, replace(l, **{name: value})
        yield d, replace(l, **fields)


def differential_cases():
    """The seeded lifts, then two naive lifts of each broken datum."""
    yield from seeded_lifts()
    for d in broken_extensions():
        yield d, LiftData.build(d)
        yield d, LiftData.build(d, phi2=d.phi)


def test_conditions_equivalent_to_axioms_both_directions():
    """verify_lift_conditions(d, l).ok must coincide with verify_axioms on
    the tensor assembled from (d, l), for valid and corrupted lifts."""
    cases = 0
    broken_seen = 0
    for d, l in seeded_lifts():
        conditions_ok = verify_lift_conditions(d, l).ok
        ext = extension_lie_algebra(d)
        candidate = LRAlgebra(ext, lift_product_tensor(d, l))
        axioms_ok = verify_axioms(candidate).ok
        assert conditions_ok == axioms_ok, cases
        cases += 1
        if not conditions_ok:
            broken_seen += 1
            with pytest.raises(LiftConditionsFailed):
                lift_product(d, l)
    assert cases == 420
    assert broken_seen >= 300


# -- the hand-written lift conditions, kept as the oracle ----------------


def _oracle_bilinear(tensor, u, v):
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


def oracle_lift_conditions(d, l):
    """The twelve lift conditions written out as block formulas on dense
    matrices, each condition a second time beside the axioms."""
    p, m = d.a_dim, d.b.dim
    checks = OracleChecks(p)
    aunit = [unit_vector(p, i) for i in range(p)]
    bunit = [unit_vector(m, i) for i in range(m)]
    ap, om, phi1, phi2 = l.a_product, l.omega, l.phi1, l.phi2
    bil = _oracle_bilinear

    for i in range(p):
        for j in range(i, p):
            checks.equal("kernel_product_commutative", (i, j), ap[i][j], ap[j][i])
    for i in range(p):
        for j in range(p):
            for k in range(p):
                checks.equal(
                    "kernel_product_associative",
                    (i, j, k),
                    bil(ap, ap[i][j], aunit[k]),
                    bil(ap, aunit[i], ap[j][k]),
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
                        bil(om, bunit[y], l.b_product[x][z]),
                        bil(om, bunit[x], l.b_product[y][z]),
                    ),
                )
                checks.equal(
                    "phi1_omega_exchange",
                    (x, y, z),
                    vec_sub(phi1[z].apply(om[x][y]), phi1[y].apply(om[x][z])),
                    vec_sub(
                        bil(om, l.b_product[x][z], bunit[y]),
                        bil(om, l.b_product[x][y], bunit[z]),
                    ),
                )
    for y in range(m):
        for z in range(m):
            phi1_yz = combination(phi1, l.b_product[y][z])
            for a in range(p):
                checks.equal(
                    "phi1_product_rule",
                    (a, y, z),
                    vec_add(bil(ap, aunit[a], om[y][z]), phi1_yz.column(a)),
                    phi2[y].apply(phi1[z].column(a)),
                )
    for x in range(m):
        for y in range(m):
            phi2_xy = combination(phi2, l.b_product[x][y])
            for c in range(p):
                checks.equal(
                    "phi2_product_rule",
                    (x, y, c),
                    vec_add(bil(ap, om[x][y], aunit[c]), phi2_xy.column(c)),
                    phi1[y].apply(phi2[x].column(c)),
                )
    for y in range(m):
        for a in range(p):
            for c in range(p):
                checks.equal(
                    "phi2_kernel_bimodule",
                    (y, a, c),
                    phi2[y].apply(ap[a][c]),
                    bil(ap, aunit[a], phi2[y].column(c)),
                )
                checks.equal(
                    "phi1_kernel_symmetry",
                    (y, a, c),
                    bil(ap, aunit[a], phi1[y].column(c)),
                    bil(ap, aunit[c], phi1[y].column(a)),
                )
                checks.equal(
                    "phi1_kernel_bimodule",
                    (y, a, c),
                    phi1[y].apply(ap[a][c]),
                    bil(ap, phi1[y].column(a), aunit[c]),
                )
                checks.equal(
                    "phi2_kernel_symmetry",
                    (y, c, a),
                    bil(ap, phi2[y].column(c), aunit[a]),
                    bil(ap, phi2[y].column(a), aunit[c]),
                )
    return checks.report()


def oracle_lift_product(d, l, report):
    """Given the oracle's report: the conditions first, then the extension
    datum, then the axioms."""
    if not report.ok:
        raise LiftConditionsFailed(report)
    a = LRAlgebra(extension_lie_algebra(d), lift_product_tensor(d, l))
    check = verify_axioms(a)
    if not check.ok:
        raise LiftConditionsFailed(check)
    return a


def _outcome(lift, *args):
    try:
        a = lift(*args)
    except ExtensionError as exc:
        report = getattr(exc, "report", None)
        return type(exc), str(exc), report and report_text(report)
    return a


def test_lift_conditions_match_the_hand_written_oracle():
    """Each condition read off an axiom residual of the lifted table gives
    the report of the block formulas, and lift_product the same algebra
    or the same exception, message and report as checking the conditions
    first."""
    cases = 0
    for d, l in differential_cases():
        report = oracle_lift_conditions(d, l)
        assert report_text(verify_lift_conditions(d, l)) == report_text(report), cases
        expected = _outcome(oracle_lift_product, d, l, report)
        assert _outcome(lift_product, d, l) == expected, cases
        cases += 1
    assert cases == 460


def test_lift_conditions_failed_carries_report():
    rng = random.Random(808)
    d, e = random_abelian_extension(rng, 2, 2)
    l = LiftData.build(d, phi2=d.phi)  # missing the omega correction
    bad = corrupt(l, rng, d)
    try:
        lift_product(d, bad)
    except LiftConditionsFailed as exc:
        assert hasattr(exc, "report")
        assert not exc.report.ok
    else:
        report = verify_lift_conditions(d, bad)
        assert report.ok  # corruption happened to stay liftable


def test_semidirect_lift_positive():
    # base r2 with the complete product e1.e2 = e1; one-dim kernel acted
    # on by the second base direction only
    base = lie_r2()
    b_lr = lr_from_table(base, [(1, 2, (1, 0))])
    phi = (Matrix.zero(1, 1), Matrix([[QQ(1)]]))
    zeros = tuple(tuple((QQ(0),) for _ in range(2)) for _ in range(2))
    d = ExtensionData(1, base, phi, zeros)
    a = semidirect_lr(d, b_lr)
    assert verify_axioms(a).ok
    assert a.dim == 3
    # the base block of the product survives: (kernel first) e2.e3 = e2
    assert a.product_basis(1, 2) == {1: QQ(1)}


def test_semidirect_lift_negative_cases():
    base = lie_r2()
    b_lr = lr_from_table(base, [(1, 2, (1, 0))])
    # nonzero cocycle
    omega = (((QQ(0),), (QQ(1),)), ((QQ(-1),), (QQ(0),)))
    d = ExtensionData(1, base, (Matrix.zero(1, 1), Matrix([[QQ(1)]])), omega)
    with pytest.raises(HypothesisFailed):
        semidirect_lr(d, b_lr)
    # phi fails to vanish on the base product e1.e2 = e1
    e12 = Matrix([[0, 1], [0, 0]])
    diag = Matrix([[0, 0], [0, 1]])
    zeros2 = tuple(tuple((QQ(0), QQ(0)) for _ in range(2)) for _ in range(2))
    d2 = ExtensionData(2, base, (e12, diag), zeros2)
    assert validate_extension(d2).ok
    with pytest.raises(HypothesisFailed):
        semidirect_lr(d2, b_lr)
    # base product on the wrong algebra
    other = lr_from_table(abelian_lie(2), [])
    d3 = ExtensionData(1, base, (Matrix.zero(1, 1), Matrix([[QQ(1)]])),
                       tuple(tuple((QQ(0),) for _ in range(2)) for _ in range(2)))
    with pytest.raises(HypothesisFailed):
        semidirect_lr(d3, other)


def test_invertible_generator_error_paths():
    rng = random.Random(909)
    d, e = random_abelian_extension(rng, 2, 2)
    # replace the base with a non-abelian one of the same dimension
    bad = ExtensionData(2, lie_r2(), d.phi, d.omega)
    with pytest.raises(NotAbelian):
        invertible_generator_lift(bad, e)
    # singular phi(e): evaluate at a vector annihilated by no... rather
    # pick the zero vector, whose phi is the zero matrix
    with pytest.raises(NotInvertible):
        invertible_generator_lift(d, (QQ(0), QQ(0)))


def test_lift_tensor_blocks():
    rng = random.Random(111)
    d, e = random_abelian_extension(rng, 2, 2)
    a = invertible_generator_lift(d, e)
    p = d.a_dim
    # kernel-kernel products vanish for this lift family
    for i in range(p):
        for j in range(p):
            assert a.product_basis(i, j) == {}
    # base-acting-on-kernel block is phi2 = phi
    for i in range(d.b.dim):
        for j in range(p):
            col = d.phi[i].column(j)
            got = a.product_basis(p + i, j)
            assert got == {t: c for t, c in enumerate(col) if c != 0}
