"""Polynomial constraint systems for product existence.

The variable x[i][j][k] is the coefficient of e_j in e_i . e_k.  A
product tensor solves the generated system exactly when it is an LR
product compatible with the bracket, so every test here leans on the
known catalog structures as ground truth: generated rows, added
structural rows, elimination expressions, and residuals must all
annihilate them.
"""

import gc
import hashlib
import math
import random
from fractions import Fraction as QQ
from itertools import chain, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lralg.catalog import (
    catalog_entry,
    catalog_get,
    catalog_list,
    counterexample_g13,
    lie_n3,
    lie_n3_plus_line,
    lie_n4,
    lie_r2,
    sample_params,
)
from lralg.constraints import (
    STRUCTURAL_RULES,
    ConstraintError,
    ConstraintSystem,
    IncompleteAssignment,
    assignment_from_lr,
    buchberger_certify,
    evaluate_candidate,
    generate_lr_system,
    iso_search,
    lr_fingerprint,
    structural_reduce,
)
from lralg import constraints
from lralg.constraints import _identity_rows, _linear_parts, x_index
from lralg.constructions import (
    FiliformSpec,
    filiform_lr,
    free3_lie,
    free3_lr,
    free4_two_gen_lie,
    free4_two_gen_lr,
    free_two_step_lie,
)
from lralg.extensions import extension_lie_algebra, random_abelian_extension
from lralg import fileformat
from lralg.fileformat import (
    ParseError,
    format_system,
    parse_algebra_text,
    parse_system_file,
    parse_system_text,
)
from lralg.lie import (
    _sparsify,
    abelian_lie,
    bilinear_sparse,
    center,
    derived_series,
    lie_from_table,
    lower_central_series,
    upper_central_series,
)
from lralg.linalg import Eliminator, Matrix, Subspace
from lralg.lr import (
    LRAlgebra,
    ad_product_residual,
    center_kills_derived_residual,
    compat_residual,
    derivation_residual,
    grading_residual,
    ideal_product,
    ideal_residual,
    lr1_residual,
    lr2_residual,
    lr_from_table,
    opposite,
    verify_axioms,
)
from lralg.poly import Polynomial, groebner_basis, reduce_full, s_polynomial
from test_reports import perturbed_tables


def test_variable_indexing_round_trip():
    s = generate_lr_system(lie_n3())
    assert s.nvars == 27
    for v in range(s.nvars):
        i, j, k = s.var_triple(v)
        assert s.var_index(i, j, k) == v
    assert s.var_name(0) == "x[1][1][1]"
    assert s.var_name(26) == "x[3][3][3]"


def test_generated_counts():
    for g in (lie_r2(), lie_n3(), lie_n4()):
        n = g.dim
        s = generate_lr_system(g)
        by_tag = {}
        for t in s.tags:
            by_tag[t] = by_tag.get(t, 0) + 1
        # compatibility rows never degenerate: one per pair and coordinate
        assert by_tag["compatibility"] == n * n * (n - 1) // 2
        assert by_tag.get("left_commute", 0) <= n * n * n * (n - 1) // 2
        assert by_tag.get("right_commute", 0) <= n * n * n * (n - 1) // 2
        assert len(s.polys) == len(s.tags)


def test_n3_system_size_is_pinned():
    s = generate_lr_system(lie_n3())
    assert len(s.polys) == 63
    assert s.used_variables() == set(range(27))


def test_catalog_solutions_satisfy_generated_systems():
    cases = [
        ("r2/A1", {}),
        ("r2/A2", {}),
        ("n3/A2", {"beta": QQ(1, 2)}),
        ("n4/A1", {"alpha": 3}),
        ("n3_r/A13", {"alpha": QQ(-1, 2)}),
    ]
    for key, params in cases:
        a = catalog_get(key, params)
        s = generate_lr_system(a.g)
        assert evaluate_candidate(s, a) == [], key


def test_invalid_candidate_produces_residuals():
    g = lie_n3()
    s = generate_lr_system(g)
    bad = lr_from_table(g, [(1, 1, (1, 0, 0))], validate=False)
    offenders = evaluate_candidate(s, bad)
    assert offenders
    tags = {t for _, t, _ in offenders}
    assert "compatibility" in tags
    for idx, tag, value in offenders:
        assert s.tags[idx] == tag
        assert value != 0


def test_evaluate_candidate_input_validation():
    s = generate_lr_system(lie_n3())
    other = lr_from_table(abelian_lie(3), [])
    with pytest.raises(ConstraintError):
        evaluate_candidate(s, other)
    with pytest.raises(IncompleteAssignment):
        evaluate_candidate(s, {0: QQ(1)})


def oracle_lr_system(g):
    """generate_lr_system as first written: every row summed in Fractions
    through Polynomial's own constructor."""
    n = g.dim
    polys, tags = [], []

    def add(tag, terms):
        p = Polynomial(terms)
        if not p.is_zero():
            polys.append(p)
            tags.append(tag)

    left = [[[x_index(n, i, a, m) for m in range(n)] for a in range(n)] for i in range(n)]
    right = [[[x_index(n, m, a, i) for m in range(n)] for a in range(n)] for i in range(n)]
    one, minus_one = QQ(1), QQ(-1)

    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                terms = {((left[i][k][j], 1),): one, ((left[j][k][i], 1),): minus_one}
                c = cij.get(k, QQ(0))
                if c:
                    terms[()] = -c
                add("compatibility", terms)

    def q(v1, v2):
        return ((v1, 2),) if v1 == v2 else tuple(sorted(((v1, 1), (v2, 1))))

    for tag, ops in (("left_commute", left), ("right_commute", right)):
        for i in range(n):
            for j in range(i + 1, n):
                oi, oj = ops[i], ops[j]
                for a in range(n):
                    for b in range(n):
                        terms = {}
                        for m in range(n):
                            for mono, sign in (
                                (q(oi[a][m], oj[m][b]), one),
                                (q(oj[a][m], oi[m][b]), minus_one),
                            ):
                                s = terms.get(mono, QQ(0)) + sign
                                if s:
                                    terms[mono] = s
                                else:
                                    terms.pop(mono, None)
                        add(tag, terms)
    return polys, tags


@pytest.mark.parametrize(
    "base",
    [lie_r2, lie_n3, lie_n4, lie_n3_plus_line, lambda: free3_lie(3), free4_two_gen_lie],
    ids=["r2", "n3", "n4", "n3r", "free3_3", "free4_2gen"],
)
def test_generated_system_matches_the_fraction_oracle(base):
    g = base()
    s = generate_lr_system(g)
    want_polys, want_tags = oracle_lr_system(g)
    assert s.tags == want_tags
    assert len(s.polys) == len(want_polys)
    for got, want in zip(s.polys, want_polys):
        # the order of the terms is pinned too: it is the order of the file
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is QQ for c in got.terms.values())


def residual_rows(g):
    """(tag, where, row) of each row generate_lr_system(g) should emit, in
    its order, read off the lr residuals on the generic product P: the
    compatibility row (i, j, k) is component k of compat(P; i, j), the
    commute rows (i, j, a, b) component a of LR1(P; i, j, b) and of
    LR2(P; b, j, i), and a row that is zero as a polynomial is left out."""
    n = g.dim
    gp = constraints._generic_product(n)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            res = compat_residual(gp, g.table, i, j)
            out += [("compatibility", (i, j, k), res[k]) for k in sorted(res)]
    sides = (
        ("left_commute", lambda i, j, b: lr1_residual(gp, i, j, b)),
        ("right_commute", lambda i, j, b: lr2_residual(gp, b, j, i)),
    )
    for tag, residual in sides:
        for i in range(n):
            for j in range(i + 1, n):
                cols = [residual(i, j, b) for b in range(n)]
                out += [
                    (tag, (i, j, a, b), col[a])
                    for a in range(n)
                    for b, col in enumerate(cols)
                    if a in col
                ]
    return out


@pytest.mark.parametrize(
    "base",
    [lie_r2, lie_n3, lie_n4, lie_n3_plus_line, free4_two_gen_lie],
    ids=["r2", "n3", "n4", "n3r", "free4_2gen"],
)
def test_generated_system_is_the_lr_residuals_on_the_generic_product(base):
    g = base()
    s = generate_lr_system(g)
    want = residual_rows(g)
    assert s.tags == [tag for tag, _, _ in want]
    for got, (_, _, row) in zip(s.polys, want):
        assert got.terms == row.terms


def test_generated_system_matches_verify_axioms():
    """On every perturbed product table but free3_lr(3)'s, the nonzero rows
    of the generated system are the nonzero residual components of
    verify_axioms, value for value."""
    skip = free3_lie(3)
    for g, entries in perturbed_tables():
        if g == skip:
            continue
        a = lr_from_table(g, entries, validate=False)
        where = [w for _, w, _ in residual_rows(g)]
        got = {
            (tag, where[idx]): value
            for idx, tag, value in evaluate_candidate(generate_lr_system(g), a)
        }
        want = {}
        for v in verify_axioms(a).violations:
            for c, value in enumerate(v.residual):
                if value and v.check == "compat":
                    want["compatibility", v.where + (c,)] = value
                elif value and v.check == "left_commute":
                    i, j, b = v.where
                    want["left_commute", (i, j, c, b)] = value
                elif value:
                    b, i, j = v.where
                    want["right_commute", (i, j, c, b)] = -value
        assert got == want


# sha256 of the tags, then the rows in system-file text, of
# generate_lr_system(counterexample_g13()): the body of the raw g13 file.
G13_SYSTEM_SHA256 = "af1e40bba924ed4391faa584eb5ca50f7023bfc6049e7f38cbe34f5fd968184c"


def test_g13_system_is_pinned():
    s = generate_lr_system(counterexample_g13())
    text = "\n".join(s.tags) + "\n" + format_system(13, s.polys)
    assert hashlib.sha256(text.encode()).hexdigest() == G13_SYSTEM_SHA256


def seeded_extension(seed):
    d, _ = random_abelian_extension(random.Random(seed), 2, 3)
    return extension_lie_algebra(d)


@pytest.mark.parametrize(
    "base",
    [
        lie_r2,
        lie_n3,
        lie_n4,
        lie_n3_plus_line,
        counterexample_g13,
        lambda: free3_lie(3),
        free4_two_gen_lie,
        lambda: free_two_step_lie(3),
        lambda: seeded_extension(5),
        lambda: seeded_extension(6),
        lambda: seeded_extension(7),
        lambda: lie_n3_half(),
        lambda: lie_r3_two_thirds(),
    ],
    ids=[
        "r2", "n3", "n4", "n3r", "g13", "free3_3", "free4_2gen", "free2step_3",
        "ext5", "ext6", "ext7", "n3_half", "r3_two_thirds",
    ],
)
def test_raw_system_has_its_closed_form(base):
    """n*C(n,2) compatibility rows, then the left and the right commute
    rows (i, j, a, b), i < j, in that order: entry (a, b) of
    O_i O_j - O_j O_i has 2n products of two distinct unknowns with
    coefficient +1 or -1, n of each sign, but for a == b, where the two
    products at m == a cancel."""
    g = base()
    n = g.dim
    pairs = n * (n - 1) // 2
    s = generate_lr_system(g)
    assert len(s.polys) == n * pairs + 2 * pairs * n * n
    assert s.tags == (
        ["compatibility"] * (n * pairs)
        + ["left_commute"] * (pairs * n * n)
        + ["right_commute"] * (pairs * n * n)
    )
    where = [
        (i, j, a, b)
        for i in range(n)
        for j in range(i + 1, n)
        for a in range(n)
        for b in range(n)
    ]
    commute = s.polys[n * pairs:]
    for (i, j, a, b), p in zip(where + where, commute):
        half = n - 1 if a == b else n
        coeffs = list(p.terms.values())
        assert len(coeffs) == 2 * half, (i, j, a, b)
        assert (coeffs.count(1), coeffs.count(-1)) == (half, half), (i, j, a, b)
        for mono in p.terms:
            assert len(mono) == 2 and all(e == 1 for _, e in mono), mono
            assert mono[0][0] != mono[1][0], mono


def test_assignment_from_lr_reads_the_tensor():
    a = catalog_get("n3/A3")
    s = generate_lr_system(a.g)
    asg = assignment_from_lr(a)
    assert len(asg) == 27
    # e1.e2 = e3/2 lives at x[1][3][2]
    assert asg[s.var_index(0, 2, 1)] == QQ(1, 2)
    assert asg[s.var_index(1, 2, 0)] == QQ(-1, 2)
    assert evaluate_candidate(s, asg) == []
    # every value is a Fraction, where the table keeps an int too
    asg = assignment_from_lr(catalog_get("n3/A4"))
    assert all(type(c) is QQ for c in asg.values())


KNOWN_SOLUTIONS = [
    ("r2/A1", {}),
    ("r2/A2", {}),
    ("r2/A3", {}),
    ("n3/A1", {"alpha": QQ(-2)}),
    ("n3/A3", {}),
    ("n3/A4", {}),
    ("n4/A2", {}),
    ("n4/A5", {"alpha": 1}),
    ("n3_r/A8", {}),
    ("n3_r/A15", {"alpha": 2}),
]


def test_structural_rows_annihilate_known_solutions():
    by_base = {}
    for key, params in KNOWN_SOLUTIONS:
        a = catalog_get(key, params)
        sys_key = key.split("/")[0]
        if sys_key not in by_base:
            by_base[sys_key] = (generate_lr_system(a.g), [])
        by_base[sys_key][1].append((key, a))
    for sys_key, (s, instances) in by_base.items():
        red = structural_reduce(s)
        assert not red.contradiction, sys_key
        assert set(tag for tag, _ in red.added) <= set(STRUCTURAL_RULES)
        for key, a in instances:
            asg = assignment_from_lr(a)
            for tag, p in red.added:
                assert p.evaluate(asg) == 0, (key, tag)
            for v, expr in red.eliminated.items():
                assert expr.evaluate(asg) == asg[v], (key, s.var_name(v))
            for p in red.residual:
                assert p.evaluate(asg) == 0, key


def test_reduction_expand_round_trip():
    a = catalog_get("n3/A2", {"beta": QQ(3)})
    s = generate_lr_system(a.g)
    red = structural_reduce(s)
    asg = assignment_from_lr(a)
    free = {v: asg[v] for v in red.free_variables()}
    rebuilt = red.expand(free)
    for v in s.used_variables():
        assert rebuilt[v] == asg[v], s.var_name(v)


def test_reduction_reports_consistent_stats():
    s = generate_lr_system(lie_n4())
    red = structural_reduce(s)
    assert red.eliminated_count == red.stats["eliminated"]
    assert len(red.residual) == red.stats["residual"]
    assert red.stats["added_rows"] == len(red.added)
    assert red.stats["rounds"] >= 1
    assert not red.contradiction
    # forced-zero variables are a subset of the eliminated ones
    for v in red.forced_zero():
        assert red.eliminated[v] == Polynomial.zero()


@pytest.mark.parametrize("mono", [((1, 2), (4, 1)), ((4, 3),)])
def test_structural_reduce_handles_degree_above_two(mono):
    cubic = Polynomial({mono: QQ(1)}) + Polynomial.variable(2)
    system = ConstraintSystem(
        lie_n3(),
        [Polynomial.variable(0) - Polynomial.constant(1), cubic],
        ["compatibility", "hand_built"],
    )
    red = structural_reduce(system)
    assert red.eliminated[0] == Polynomial.constant(1)
    assert red.eliminated_count == 18
    assert red.residual == [cubic.substitute(red.eliminated)]
    assert red.residual[0].degree() == 3


NVARS = 6
# every nonzero a/b with b in {1, 2, 3} and |a/b| <= 3, smallest first so
# that failures shrink towards small coefficients
NONZERO = st.sampled_from(
    sorted(
        {QQ(a, b) for b in (1, 2, 3) for a in range(-3 * b, 3 * b + 1) if a},
        key=lambda c: (abs(c), c),
    )
)


@st.composite
def images(draw):
    """Images for variables 1..5 (variable 0 always stays): each one is
    kept, or sent to 0, a nonzero constant, one variable, an affine form
    or a form of degree 2, over all of the variables 0..5."""
    var = st.integers(0, NVARS - 1)
    subs = {}
    for v in range(1, NVARS):
        kind = draw(st.sampled_from(
            ["stay", "zero", "constant", "variable", "affine", "quadratic"]))
        if kind == "zero":
            subs[v] = Polynomial.zero()
        elif kind == "constant":
            subs[v] = Polynomial.constant(draw(NONZERO))
        elif kind == "variable":
            subs[v] = Polynomial.variable(draw(var))
        elif kind == "affine":
            coeffs = draw(st.dictionaries(var, NONZERO))
            subs[v] = Polynomial.linear(coeffs, draw(NONZERO | st.just(QQ(0))))
        elif kind == "quadratic":
            subs[v] = draw(polynomials(2, 3))
    return subs


@st.composite
def polynomials(draw, degree, size):
    """A polynomial of degree <= degree with at most size terms over
    variables 0..5; repeated variables (squares, cubes) may occur."""
    terms = {}
    for _ in range(draw(st.integers(0, size))):
        picked = draw(st.lists(st.integers(0, NVARS - 1), max_size=degree))
        exps = {}
        for v in picked:
            exps[v] = exps.get(v, 0) + 1
        terms[tuple(sorted(exps.items()))] = draw(NONZERO)
    return Polynomial(terms)


def oracle_substitute(p, subs):
    """Each variable in subs replaced by its image, and the result
    multiplied out with Polynomial arithmetic."""
    out = Polynomial.zero()
    for mono, c in p.terms.items():
        term = Polynomial.constant(c)
        for v, e in mono:
            factor = subs[v] if v in subs else Polynomial.variable(v)
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


@settings(max_examples=300, deadline=None)
@given(images(), polynomials(3, 8))
def test_substitute_matches_polynomial_arithmetic(subs, p):
    got = p.substitute(subs)
    assert got.terms == oracle_substitute(p, subs).terms
    assert all(type(c) is QQ for c in got.terms.values())


# sha256 of the tags, then the rows in system-file text, of
# structural_reduce(generate_lr_system(g)).added: pins every row, its
# order, tag and sign.
ADDED_ROWS_SHA256 = [
    (lie_r2, "8095362b016c091032852b956d20de9a447a61d82b75484717f2ee4f3e2981cc"),
    (lie_n3, "d42451d29a886431c11408d4c1c9685c3b2b315b3c9f57b975494cae35754c94"),
    (lie_n4, "60aede557e1bf2a77f21192b17bf0d738675a7ed512681cde7775140da1b419c"),
    (
        lie_n3_plus_line,
        "46d81003c29110a38c08f236822c920caa1a0bcf26dea9348c8f0ec2d519499a",
    ),
]


@pytest.mark.parametrize("base, digest", ADDED_ROWS_SHA256)
def test_added_rows_are_pinned(base, digest):
    g = base()
    red = structural_reduce(generate_lr_system(g))
    text = "\n".join(t for t, _ in red.added) + "\n"
    text += format_system(g.dim, [p for _, p in red.added])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def lie_sl2():
    # e1 = h, e2 = e, e3 = f
    return lie_from_table(3, [(1, 2, (0, 2, 0)), (1, 3, (0, 0, -2)), (2, 3, (1, 0, 0))])


def lie_d_h3():
    """d acting on h3 = span(x, y, z), [x, y] = z, by x -> x, y -> y,
    z -> 2z.  Basis d, x, y, z."""
    entries = [
        (1, 2, (0, 1, 0, 0)),
        (1, 3, (0, 0, 1, 0)),
        (1, 4, (0, 0, 0, 2)),
        (2, 3, (0, 0, 0, 1)),
    ]
    return lie_from_table(4, entries)


def lie_r3():
    """[e1, e2] = e2, [e1, e3] = e2 + e3."""
    return lie_from_table(3, [(1, 2, (0, 1, 0)), (1, 3, (0, 1, 1))])


def lie_n3_half():
    """n3 with [e1, e2] = 1/2 e3: a non-integral structure constant."""
    return lie_from_table(3, [(1, 2, (0, 0, QQ(1, 2)))])


def lie_r3_two_thirds():
    """[e1, e2] = 2/3 e2, [e1, e3] = e3."""
    return lie_from_table(3, [(1, 2, (0, QQ(2, 3), 0)), (1, 3, (0, 0, 1))])


def lie_extension(seed):
    d, _ = random_abelian_extension(random.Random(seed), 1 + seed % 3, 2)
    return extension_lie_algebra(d)


def oracle_identity_rows(g):
    """_identity_rows as it was before it ran on int scalars: every scalar
    a Fraction, every unknown Polynomial.variable."""
    n = g.dim
    table = {
        (p, q): {a: Polynomial.variable(x_index(n, p, a, q)) for a in range(n)}
        for p in range(n)
        for q in range(n)
    }

    def prod(u, v):
        return bilinear_sparse(table, u, v)

    brak = g.bracket_sparse
    sides = (("left", prod), ("right", opposite(prod)))
    basis = [{i: QQ(1)} for i in range(n)]
    rows = []

    def row(c):
        return c if isinstance(c, Polynomial) else Polynomial.constant(c)

    def emit(tag, residual):
        rows.extend((tag, row(residual[a])) for a in sorted(residual))

    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                for side, act in sides:
                    emit(
                        f"{side}_derivation",
                        derivation_residual(brak, act, basis[i], basis[j], basis[k]),
                    )

    for i in range(n):
        for j in range(i + 1, n):
            for (side, act), sign in zip(sides, (1, -1)):
                cols = [
                    ad_product_residual(brak, act, sign, basis[i], basis[j], basis[b])
                    for b in range(n)
                ]
                rows.extend(
                    (f"bracket_product_rule_{side}", row(col[a]))
                    for a in range(n)
                    for col in cols
                    if a in col
                )

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
                for v in s.basis_vectors():
                    emit(
                        f"{side}_preserves_{kind}_central",
                        ideal_residual(act, s, basis[i], _sparsify(v)),
                    )

    z = center(g)
    derived = gamma(2)
    for side, act in sides:
        for zv in z.basis_vectors():
            for dv in derived.basis_vectors():
                emit(
                    f"center_kills_derived_{side}",
                    center_kills_derived_residual(act, _sparsify(zv), _sparsify(dv)),
                )

    top = len(lcs.terms) + 1
    for i in range(1, top):
        for j in range(1, top):
            src_a, src_b = gamma(i + 1), gamma(j + 1)
            tgt = gamma(i + j + 1)
            if src_a.dim == 0 or src_b.dim == 0 or tgt.dim == n:
                continue
            for u in src_a.basis_vectors():
                for v in src_b.basis_vectors():
                    emit(
                        "series_product_grading",
                        grading_residual(prod, tgt, _sparsify(u), _sparsify(v)),
                    )
    return rows


def assert_identity_rows_match_oracle(g, added):
    """_identity_rows(g), and added, its tagged polynomials, equal the
    oracle's rows in tag and order, and term for term in value, type and
    order: an int row holds what _linear_parts reads off the oracle's row,
    a polynomial the oracle's own terms."""
    rows, want = _identity_rows(g), oracle_identity_rows(g)
    assert [t for t, _ in rows] == [t for t, _ in added] == [t for t, _ in want]

    def typed(items):
        return [(k, c, type(c)) for k, c in items]

    for (_, (coeffs, const)), (_, p), (_, q) in zip(rows, added, want):
        want_coeffs, want_const = _linear_parts(q)
        assert typed(coeffs.items()) == typed(want_coeffs.items())
        assert (const, type(const)) == (want_const, type(want_const))
        assert typed(p.terms.items()) == typed(q.terms.items())


def reduction_digest(red):
    """sha256 of the eliminated map by variable, the residual in order and
    the contradiction flag."""
    text = "".join(f"{v}: {e.to_string()}\n" for v, e in sorted(red.eliminated.items()))
    text += "".join(f"{p.to_string()}\n" for p in red.residual)
    text += f"{red.contradiction}\n"
    return hashlib.sha256(text.encode()).hexdigest()


# Algebras of the int-scalar differential test, with the eliminated count,
# round count, contradiction flag and reduction_digest of structural_reduce
# as computed by the Fraction-scalar implementation.  sl2 and d x h3 stop at
# a contradiction in round 2, after a number of eliminations that depends on
# the order in which the pending rows are sorted.
IDENTITY_ROW_ALGEBRAS = [
    ("r2", lie_r2, 5, 1, False,
     "2c0bb751e09477582ad216f9edf496038522da3fc42348b6019ab82641faad82"),
    ("n3", lie_n3, 18, 1, False,
     "b1f94e10652f74e873b9b3b728600c72715985d77a06d6bbd32dbf6d2914c5f5"),
    ("n4", lie_n4, 54, 1, False,
     "682e68646a65e117ae53a8d89983e8961fae1ac5e37955289ce66e05271c5b9d"),
    ("n3r", lie_n3_plus_line, 46, 1, False,
     "015c2624e5547edf29af748c30245bbfcb441d91bdf061104b32e0a0b716810f"),
    ("sl2", lie_sl2, 27, 2, True,
     "155ec834d0b0f5f2fb5ffae64e8e781869e6843ea7aa29e29f33077f1c7da1b4"),
    ("d_h3", lie_d_h3, 54, 2, True,
     "09fdd86931f7d2019b9cd68e1535b9f2adc33041fb3bede8a29d5a8e4ed0d2f6"),
    ("r3", lie_r3, 21, 1, False,
     "555edcb10c759328e65a8c3cb5dfdd035d7f9d073cdfb033bfb80574007a7596"),
    ("free3_3", lambda: free3_lie(3), 2678, 1, False,
     "0725e3d50610c6406e9280df2fad06488ebe6e251f8c65812145846823832694"),
    ("n3_half", lie_n3_half, 18, 1, False,
     "c4c331e1cc8d9d566ca1013121a5073b516d4d8b31a4badd9ea4c34d443f54bb"),
    ("r3_two_thirds", lie_r3_two_thirds, 21, 1, False,
     "ace801e06f595fa43d7d1f728e2737a88a77d79a680eb96ccf3252ddc66a495c"),
    ("ext1", lambda: lie_extension(1), 58, 1, False,
     "3be36cf22e2125ee506cda0a64db6f9db8a384d1114bb0228717d304ae3f8ee3"),
    ("ext2", lambda: lie_extension(2), 116, 1, False,
     "1ddf7e7c20ea0005d3b9af66f305dafdc1cca24091c2a18623ff4a71e8826378"),
    ("ext3", lambda: lie_extension(3), 21, 1, False,
     "4db87f4d5a4715aaaa81f03502cc4ebd4d895c1b292a9ca39a8fda2dc5e2b5d1"),
    ("ext4", lambda: lie_extension(4), 58, 1, False,
     "191c16dc9e913b0e9ae11d0421da63dff5747432cb94d93463faa4d3434c05c5"),
    ("ext5", lambda: lie_extension(5), 116, 1, False,
     "99f5b58acd8684db91317424df518fc41ccbcc05e22d5ea225874374b2e2004c"),
]


@pytest.mark.parametrize(
    "base, eliminated, rounds, contradiction, digest",
    [row[1:] for row in IDENTITY_ROW_ALGEBRAS],
    ids=[row[0] for row in IDENTITY_ROW_ALGEBRAS],
)
def test_identity_rows_match_the_fraction_oracle(
    base, eliminated, rounds, contradiction, digest
):
    g = base()
    red = structural_reduce(generate_lr_system(g))
    assert_identity_rows_match_oracle(g, red.added)
    assert (red.eliminated_count, red.stats["rounds"]) == (eliminated, rounds)
    assert red.contradiction is contradiction
    assert reduction_digest(red) == digest


def rescaled(g, scales):
    """g in the basis scales[i] e_i, whose structure constants
    scales[i] scales[j] / scales[k] c_ij^k are Fractions in general."""
    n = g.dim
    entries = [
        (i + 1, j + 1, [scales[i] * scales[j] / scales[k] * v.get(k, 0) for k in range(n)])
        for (i, j), v in g.table.items()
        if i < j
    ]
    return lie_from_table(n, entries)


SCALES = st.lists(
    st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4), QQ(5, 3)]), min_size=6, max_size=6
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3), st.none() | SCALES)
def test_identity_rows_match_the_oracle_on_drawn_algebras(seed, a_dim, b_dim, scales):
    """Seeded abelian extensions, as they are or in a rescaled basis with
    Fraction structure constants."""
    d, _ = random_abelian_extension(random.Random(seed), a_dim, b_dim)
    g = extension_lie_algebra(d)
    if scales is not None:
        g = rescaled(g, scales)
    assert_identity_rows_match_oracle(g, structural_reduce(generate_lr_system(g)).added)


# len and sha256 of the repr of structural_reduce(generate_lr_system(g))
# .free_variables()
FREE_VARIABLES = [
    (lie_r2, 3, "058bc3b0adcbc8538932f4a6009e19c4ffd2fa8e993cfcd87030a0d6b2d4e6b3"),
    (lie_n3, 9, "b2cb6ca8271fece631da7e07c873f9599a972191b455205961ee460e75520de7"),
    (lie_n4, 10, "015112a79bf49001fe58fb2cb266666b2340960dff68a835d0dc2ccea9d563b8"),
    (lie_n3_plus_line, 18, "48b6637d1bc6301b4c3ea040e3834191480f1168d9614bd767d77cc23a9e2fac"),
    (counterexample_g13, 58, "208a462445a3939c759fdc8e3a8ca95b34ee5f47a739256030dbdfe856caa791"),
]


@pytest.mark.parametrize("base, count, digest", FREE_VARIABLES, ids=["r2", "n3", "n4", "n3r", "g13"])
def test_free_variables_are_pinned(base, count, digest):
    free = structural_reduce(generate_lr_system(base())).free_variables()
    assert len(free) == count
    assert hashlib.sha256(repr(free).encode()).hexdigest() == digest


def test_added_rows_are_built_only_when_read(monkeypatch):
    """On g13, structural_reduce turns no identity row into a Fraction
    polynomial; reading added does, once for each row, and only the
    first time."""
    system = generate_lr_system(counterexample_g13())
    row, built = constraints._row, []

    def counted_row(fractions, terms):
        built.append(terms)
        return row(fractions, terms)

    monkeypatch.setattr(constraints, "_row", counted_row)
    red = structural_reduce(system)
    assert built == [] and "added" not in vars(red)
    added = red.added
    assert len(built) == len(added) == red.stats["added_rows"] == 30721
    assert red.added is added and len(built) == 30721


def test_pending_rows_are_taken_in_the_order_of_their_sorted_pairs():
    """A contradiction stops a round at the row where it occurs, so the
    eliminated map depends on the order of the rows.  On a one-dimensional
    abelian algebra, which adds no identity rows, the rows of a system must
    be taken sorted by length and then by their sorted (variable,
    coefficient) pairs, as a list.  A round takes each distinct row once,
    which is exact: the same system with some rows repeated, each copy
    after its original, reduces to the same map and contradiction."""
    rng = random.Random(11)
    coefficient = [QQ(c, d) for c in (-2, -1, 1, 2) for d in (1, 2)]
    contradictions = repeats = 0
    for _ in range(300):
        rows = []
        for _ in range(rng.randint(2, 7)):
            support = rng.sample(range(4), rng.randint(1, 3))
            coeffs = {v: rng.choice(coefficient) for v in support}
            rows.append((coeffs, QQ(rng.randint(-1, 1))))
        repeated = list(rows)
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(rows))
            at = repeated.index(rows[k]) + 1
            repeated.insert(rng.randint(at, len(repeated)), rows[k])
        elim = Eliminator()
        for coeffs, const in sorted(rows, key=lambda rc: (len(rc[0]), sorted(rc[0].items()))):
            elim.add(coeffs, const)
            if elim.contradiction:
                break
        want = {v: Polynomial.linear(ec, ek) for v, (ec, ek) in elim.finalize().items()}
        for given in (rows, repeated):
            system = ConstraintSystem(
                abelian_lie(1),
                [Polynomial.linear(coeffs, const) for coeffs, const in given],
                ["hand_built"] * len(given),
            )
            red = structural_reduce(system)
            assert red.contradiction is elim.contradiction
            assert red.eliminated == want
        contradictions += elim.contradiction
        repeats += len(repeated) - len(rows)
    assert contradictions > 100
    assert repeats > 500


@pytest.mark.parametrize("base", [lie_n3_half, lie_r3_two_thirds], ids=["n3_half", "r3_two_thirds"])
def test_linear_parts_hold_integral_values_as_ints(base):
    """The round-1 rows reach the Eliminator in its own form: an int for
    each integral value, a Fraction for each other one."""
    g = base()
    polys = generate_lr_system(g).polys
    rows = [lp for p in polys if (lp := _linear_parts(p)) is not None]
    rows += [lp for _, lp in _identity_rows(g)]
    values = [c for coeffs, const in rows for c in (*coeffs.values(), const)]
    assert all(type(c) is (int if c.denominator == 1 else QQ) for c in values)
    assert {type(c) for c in values} == {int, QQ}


# ---------------------------------------------------------------------------
# the first round over the substituted operators


def oracle_reduce(system):
    """structural_reduce without its first-round shortcut: every row goes
    through _linear_parts, and every nonlinear row, the left and the right
    commute rows alike, through Polynomial.substitute in every round.  A
    nonlinear image is dropped only when it repeats one of the same round.
    Returns the eliminated map, the residual, the contradiction flag and
    the stats."""
    rows = _identity_rows(system.g)
    elim = Eliminator()
    nonlinear, pending = [], []
    for p in system.polys:
        lp = _linear_parts(p)
        if lp is None:
            nonlinear.append(p)
        else:
            pending.append(lp)
    pending.extend(row for _, row in rows)
    rounds, eliminated = 0, {}
    while pending:
        rounds += 1
        pending.sort(key=lambda rc: (len(rc[0]), *chain(*sorted(rc[0].items()))))
        last = None
        for row in pending:
            if row != last:
                last = row
                elim.add(*row)
                if elim.contradiction:
                    break
        pending = []
        eliminated = {v: Polynomial.linear(ec, ek) for v, (ec, ek) in elim.finalize().items()}
        if elim.contradiction:
            break
        seen, next_nonlinear = set(), []
        for p in nonlinear:
            r = p.substitute(eliminated)
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
    stats = {"rounds": rounds, "eliminated": len(eliminated), "added_rows": len(rows),
             "residual": len(residual)}
    return eliminated, residual, elim.contradiction, stats


def typed_terms(p):
    """The terms of p in dict order, each with its coefficient's type."""
    return [(m, c, type(c)) for m, c in p.terms.items()]


def assert_reduces_as_oracle(system):
    """structural_reduce(system) equals oracle_reduce(system): the residual
    in order, term for term and in dict order, with coefficient types,
    the eliminated map likewise, the stats and the contradiction flag."""
    red = structural_reduce(system)
    eliminated, residual, contradiction, stats = oracle_reduce(system)
    assert list(map(typed_terms, red.residual)) == list(map(typed_terms, residual))
    assert {v: typed_terms(e) for v, e in red.eliminated.items()} == {
        v: typed_terms(e) for v, e in eliminated.items()
    }
    assert (red.stats, red.contradiction) == (stats, contradiction)
    return red


def n4_with_two_rows():
    """n4's generated system with x1*x0 + x0 and x4*x5 appended: round 1
    sends x1 to 0, so round 2 sends x0 to 0 and leaves x4*x5 and one more
    of round 1's nonlinear images as they were."""
    system = generate_lr_system(lie_n4())
    x = Polynomial.variable
    system.polys += [x(1) * x(0) + x(0), x(4) * x(5)]
    system.tags += ["hand_built"] * 2
    return system


G11B = """algebra g11b
dim 11
[1,2] = e7
[1,5] = -e10
[1,6] = -e11
[2,3] = e5
[2,4] = e6
[2,5] = e11
[2,6] = e9
[2,7] = -e8
[3,4] = e7
[3,5] = e8 + e11
[3,7] = e10
[4,5] = e8
[4,6] = -e11
[4,7] = e11
"""


def lie_g11b():
    """An 11-dimensional quotient of free3_lie(4), 2-step solvable with
    lower central series 11, 7, 4, 0, that carries no LR-structure."""
    return parse_algebra_text(G11B).to_lie()


OPERATOR_ROUTE_ALGEBRAS = {
    "r2": lie_r2,
    "n3": lie_n3,
    "n4": lie_n4,
    "n3r": lie_n3_plus_line,
    "g13": counterexample_g13,
    "sl2": lie_sl2,
    "d_h3": lie_d_h3,
    "free3_3": lambda: free3_lie(3),
    "free4_2gen": free4_two_gen_lie,
    "n3_half": lie_n3_half,
    "r3_two_thirds": lie_r3_two_thirds,
    "free_two_step_3": lambda: free_two_step_lie(3),
    "n4_two_rows": n4_with_two_rows,
    "g11b": lie_g11b,
}


@pytest.mark.parametrize("base", OPERATOR_ROUTE_ALGEBRAS.values(), ids=OPERATOR_ROUTE_ALGEBRAS)
def test_operator_round_reduces_as_substitution(base):
    """The oracle substitutes the right commute rows that structural_reduce
    leaves out, so it checks that each one's image is its left twin's.
    g11b, like g13, is 2-step solvable and contradictory in round 2: its
    13,915 rows over 1,331 unknowns lose 1,288 of them first."""
    built = base()
    system = built if isinstance(built, ConstraintSystem) else generate_lr_system(built)
    red = assert_reduces_as_oracle(system)
    if base is lie_g11b:
        assert (len(system.polys), system.nvars) == (13_915, 1_331)
        assert (red.stats["rounds"], red.eliminated_count, red.contradiction) == (2, 1_288, True)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3), st.none() | SCALES)
def test_operator_round_reduces_as_substitution_on_drawn_algebras(seed, a_dim, b_dim, scales):
    """Seeded abelian extensions, as they are or in a rescaled basis with
    Fraction structure constants."""
    d, _ = random_abelian_extension(random.Random(seed), a_dim, b_dim)
    g = extension_lie_algebra(d)
    if scales is not None:
        g = rescaled(g, scales)
    assert_reduces_as_oracle(generate_lr_system(g))


@st.composite
def operator_images(draw):
    """A dimension n in 1..3 and images for the n^3 unknowns: each one is
    kept, or sent to 0 or to a form over a few kept unknowns, with a
    constant or not, coefficients +-1 and +-1/2, so that products often
    cancel."""
    n = draw(st.integers(1, 3))
    free = draw(st.lists(st.integers(0, n**3 - 1), min_size=1, max_size=3, unique=True))
    coefficient = st.sampled_from([QQ(1), QQ(-1), QQ(1, 2), QQ(-1, 2)])
    eliminated = {}
    for v in range(n**3):
        kind = draw(st.sampled_from(["stay", "zero", "form"]))
        if v in free or kind == "stay":
            continue
        coeffs = draw(st.dictionaries(st.sampled_from(free), coefficient, max_size=3))
        const = draw(st.just(QQ(0)) | coefficient)
        eliminated[v] = Polynomial.linear(coeffs, const) if kind == "form" else Polynomial.zero()
    return n, eliminated


def is_live(p, eliminated):
    """Does p hold a product with no factor sent to 0 by eliminated?"""
    zero = {v for v, e in eliminated.items() if not e}
    return any(zero.isdisjoint(v for v, _ in m) for m in p.terms)


X = Polynomial.variable


@settings(max_examples=300, deadline=None)
@given(operator_images())
@example((2, {2: X(0), 5: X(0) + X(4), 6: Polynomial.zero(), 3: -X(0), 7: X(0)}))
def test_live_left_rows_leave_out_only_rows_that_vanish(drawn):
    """_live_left_rows returns left commute rows of the system, the very
    objects in raw order, each with a product of two entries not sent to
    0, and every left row it leaves out has none and substitutes to 0.
    In the example, entry (1, 1) of L_0 L_1 - L_1 L_0 in dimension 2 has
    live products at m = 0 only, beside the left-out pair at m == a == b."""
    n, eliminated = drawn
    polys = generate_lr_system(abelian_lie(n)).polys
    pairs = n * (n - 1) // 2
    left = polys[n * pairs:n * pairs + n * n * pairs]
    at = {id(p): k for k, p in enumerate(left)}
    got = [at[id(p)] for p in constraints._live_left_rows(polys, n, eliminated)]
    assert got == sorted(set(got))
    assert all(is_live(left[k], eliminated) for k in got)
    kept = set(got)
    out = [p for k, p in enumerate(left) if k not in kept]
    assert not any(is_live(p, eliminated) or p.substitute(eliminated) for p in out)


def substituted_commute_rows(n, eliminated):
    """The nonzero results of Polynomial.substitute on the left commute
    rows of an n-dimensional system, in order."""
    pairs = n * (n - 1) // 2
    left = generate_lr_system(abelian_lie(n)).polys[n * pairs:n * pairs + n * n * pairs]
    return [r for p in left if (r := p.substitute(eliminated))]


def commute_images(n, eliminated):
    """The nonzero images round 1 takes of the left commute rows: the rows
    _live_left_rows picks, substituted, in order."""
    polys = generate_lr_system(abelian_lie(n)).polys
    return [r for p in constraints._live_left_rows(polys, n, eliminated)
            if (r := p.substitute(eliminated))]


@settings(max_examples=300, deadline=None)
@given(operator_images())
def test_commute_images_are_the_substituted_rows(drawn):
    n, eliminated = drawn
    got = commute_images(n, eliminated)
    want = substituted_commute_rows(n, eliminated)
    assert list(map(typed_terms, got)) == list(map(typed_terms, want))


def test_commute_images_keep_the_order_of_a_cancelled_term():
    """On L_0 L_1 - L_1 L_0 at (a, b) = (1, 1), dimension 2, the products
    at m = 0 give x0^2 + x0*x4, and the left-out pair at m == a == b
    would cancel x0^2 and put it back after x0*x4."""
    eliminated = {
        2: X(0), 5: X(0) + X(4), 6: Polynomial.zero(), 3: -X(0), 7: X(0),
    }
    got = commute_images(2, eliminated)
    want = substituted_commute_rows(2, eliminated)
    assert list(map(typed_terms, got)) == list(map(typed_terms, want))
    square, mixed = ((0, 2),), ((0, 1), (4, 1))
    assert any(list(p.terms) == [square, mixed] for p in got)


def test_rows_that_are_not_the_generators_take_substitution():
    """Only when polys still begins with the generator's own rows does
    round 1 pick the live left commute rows alone.  A replaced row, appended
    rows that force a second round, changed tags, and a system built by
    hand from the same rows reduce as the oracle does."""
    system = generate_lr_system(lie_n4())
    plain = assert_reduces_as_oracle(system)
    assert plain.stats["rounds"] == 1
    x = Polynomial.variable
    w = min(plain.residual[0].variables())
    zero = plain.forced_zero()[0]

    replaced = generate_lr_system(lie_n4())
    k = len(replaced.polys) - 100
    assert replaced.polys[k].substitute(plain.eliminated).is_zero()
    replaced.polys[k] = x(w) * x(w)
    red = assert_reduces_as_oracle(replaced)
    assert x(w) * x(w) in red.residual

    # the first row becomes x_w in round 1, so round 2 substitutes
    # x_w = 0 into the rest, the second row among them
    u, v = [f for f in plain.free_variables() if f != w][:2]
    appended = generate_lr_system(lie_n4())
    appended.polys += [x(zero) * x(w) + x(w), x(u) * x(v) + x(u) * x(w)]
    appended.tags += ["hand_built"] * 2
    red = assert_reduces_as_oracle(appended)
    assert red.stats["rounds"] == 2 and red.eliminated[w].is_zero()
    assert x(u) * x(v) in red.residual

    retagged = generate_lr_system(lie_n4())
    retagged.tags = ["hand_built"] * len(retagged.tags)
    assert reduction_digest(assert_reduces_as_oracle(retagged)) == reduction_digest(plain)

    copied = ConstraintSystem(system.g, list(system.polys), list(system.tags))
    assert reduction_digest(assert_reduces_as_oracle(copied)) == reduction_digest(plain)


def test_g13_first_round_substitutes_only_live_left_rows(monkeypatch):
    """On g13 round 1 substitutes 47 of the generator's own left commute
    rows, 1,222 products in all, and round 2 ends in the contradiction.
    A hand-built copy substitutes all 26,364 raw commute rows, to the same
    digest."""
    system = generate_lr_system(counterexample_g13())
    substitute, calls = Polynomial.substitute, []

    def counted_substitute(p, subs):
        calls.append(p)
        return substitute(p, subs)

    monkeypatch.setattr(Polynomial, "substitute", counted_substitute)
    red = structural_reduce(system)
    raw = {id(p) for p in system.polys}
    assert all(id(p) in raw for p in calls)
    assert (len(calls), sum(len(p.terms) for p in calls)) == (47, 1_222)
    assert (red.stats["rounds"], red.contradiction) == (2, True)
    calls.clear()
    copied = ConstraintSystem(system.g, list(system.polys), list(system.tags))
    assert reduction_digest(structural_reduce(copied)) == reduction_digest(red)
    assert list(map(id, calls)) == list(map(id, system.polys[13 * 78:]))
    assert len(calls) == 2 * 78 * 13 * 13


# ---------------------------------------------------------------------------
# the reduced system has the input's solutions


def check_reduction(system, red):
    """Three checks that red reduces system without losing a row: every
    input row, substituted, reduces to 0 modulo a Groebner basis of the
    residual; every residual row lies in the ideal of the input rows and
    each x_v - form_v of red.eliminated; the residual's basis is [1]
    exactly when the input's is, and it is whenever red.contradiction
    holds (a residual may be inconsistent through its nonlinear rows
    alone, which structural_reduce leaves to Buchberger)."""
    residual = groebner_basis(red.residual)
    assert residual.status == "complete"
    assert not [p for p in system.polys if reduce_full(p.substitute(red.eliminated), residual.basis)]
    forms = [Polynomial.variable(v) - e for v, e in red.eliminated.items()]
    inputs = groebner_basis(system.polys + forms)
    assert inputs.status == "complete"
    assert not [r for r in red.residual if reduce_full(r, inputs.basis)]
    unit = groebner_basis(system.polys).is_unit_ideal
    assert residual.is_unit_ideal == unit and red.contradiction <= unit


def test_n4_with_two_rows_keeps_every_row():
    """The two nonlinear images that round 2 leaves as they were stay in
    the residual beside the two it changed, and the residual implies
    every input row."""
    system = n4_with_two_rows()
    red = structural_reduce(system)
    assert (red.stats["rounds"], red.stats["eliminated"], len(red.residual)) == (2, 55, 4)
    assert Polynomial.variable(4) * Polynomial.variable(5) in red.residual
    check_reduction(system, red)


@st.composite
def appended_rows(draw):
    """r2, n3 or n4 with 1 to 3 rows appended: x_u * x_v + x_w, which a
    later round substitutes into when x_u goes to 0, or two terms of
    degree at most 2 with small coefficients."""
    base = draw(st.sampled_from([lie_r2, lie_n3, lie_n4]))
    system = generate_lr_system(base())
    x = Polynomial.variable
    var = st.integers(0, system.nvars - 1)
    monomial = st.lists(var, max_size=2).map(lambda vs: math.prod(map(x, vs), start=Polynomial.constant(1)))
    coefficient = st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(1, 2)])
    chained = st.tuples(var, var, var).map(lambda uvw: x(uvw[0]) * x(uvw[1]) + x(uvw[2]))
    sparse = st.lists(st.tuples(coefficient, monomial), min_size=1, max_size=2).map(
        lambda terms: sum((c * m for c, m in terms), Polynomial.zero())
    )
    rows = draw(st.lists(chained | sparse, min_size=1, max_size=3))
    system.polys += rows
    system.tags += ["hand_built"] * len(rows)
    return system


@settings(max_examples=50, deadline=None)
@given(appended_rows())
def test_reduction_keeps_the_solution_set(system):
    check_reduction(system, structural_reduce(system))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_builders_pause_gc_and_restore_its_state(monkeypatch, tmp_path, enabled):
    """generate_lr_system, structural_reduce and the system parsers run
    with the cyclic collector off and leave it as they found it, also
    when they raise.  With the collector on, what they return is in the
    oldest generation, unless the caller froze objects: those stay
    frozen."""
    seen = []

    def probe_rows(g):
        seen.append(gc.isenabled())
        return _identity_rows(g)

    def boom(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    read_canonical = fileformat._read_canonical
    read = []

    def probe_read(*args):
        read.append(gc.isenabled())
        return read_canonical(*args)

    was_enabled, was_frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if enabled else gc.disable)()
        system = generate_lr_system(lie_n3())
        assert gc.isenabled() is enabled
        if enabled:
            oldest = {id(o) for o in gc.get_objects(2)}
            young = {id(o) for o in gc.get_objects(0)}
            assert all(id(p) in oldest and id(p) not in young for p in system.polys)
        text = format_system(3, system.polys)
        path, bad = tmp_path / "n3.sys", tmp_path / "bad.sys"
        path.write_text(text, encoding="utf-8")
        bad.write_text(text + "x[4][1][1]\n", encoding="utf-8")
        monkeypatch.setattr(fileformat, "_read_canonical", probe_read)
        assert parse_system_file(path).polys == system.polys
        assert gc.isenabled() is enabled
        assert parse_system_text(text).polys == system.polys
        assert gc.isenabled() is enabled
        failing = (parse_system_file, bad), (parse_system_text, bad.read_text())
        for parse, arg in failing:
            with pytest.raises(ParseError, match="out of range"):
                parse(arg)
            assert gc.isenabled() is enabled
        monkeypatch.setattr(constraints, "_identity_rows", probe_rows)
        structural_reduce(system)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(constraints, "_identity_rows", boom)
        with pytest.raises(RuntimeError, match="boom"):
            structural_reduce(system)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(constraints, "x_index", boom)
        with pytest.raises(RuntimeError, match="boom"):
            generate_lr_system(lie_n3())
        assert gc.isenabled() is enabled
        # each builder has run once above, so none frees a frozen object now
        monkeypatch.undo()
        gc.freeze()
        frozen = gc.get_freeze_count()
        generate_lr_system(lie_n3())
        structural_reduce(system)
        parse_system_text(text)
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()
        if not was_frozen:
            gc.unfreeze()
    assert seen == [False, False, False]
    # every polynomial line of every parse is read with it off
    assert len(read) > 4 * len(system.polys) and not any(read)


def coefficient_types(polys):
    return {type(c) for p in polys for c in p.terms.values()}


@pytest.mark.parametrize(
    "base",
    [counterexample_g13, lie_n3_half, lie_r3_two_thirds],
    ids=["g13", "n3_half", "r3_two_thirds"],
)
def test_systems_hold_only_fractions(base):
    s = generate_lr_system(base())
    assert coefficient_types(s.polys) == {QQ}
    red = structural_reduce(s)
    assert coefficient_types(p for _, p in red.added) == {QQ}
    assert coefficient_types(red.eliminated.values()) <= {QQ}
    assert coefficient_types(red.residual) == {QQ}


def test_polynomial_arithmetic_keeps_fractions():
    p = Polynomial.linear({0: 1, 1: QQ(-3, 2)}, 2)
    q = Polynomial.variable(0) * Polynomial.variable(2) - Polynomial.constant(1)
    results = (p, p.scale(2), 2 * p, p * 3, p + q, p - q, q - p, Polynomial.linear({3: 4}))
    for r in results:
        assert coefficient_types([r]) == {QQ}, r
    # a rational on the right, as on the left; a new constant term comes last
    x = Polynomial.variable(0)
    assert list((x + 1).terms.items()) == [(((0, 1),), QQ(1)), ((), QQ(1))]
    assert list((x - QQ(1, 2)).terms.items()) == [(((0, 1),), QQ(1)), ((), QQ(-1, 2))]
    assert coefficient_types([x + 1, x - QQ(1, 2), q - 1]) == {QQ}
    assert (q + 1).terms == {((0, 1), (2, 1)): QQ(1)}


def test_groebner_results_hold_only_fractions():
    # the engine runs on int scalars; what it hands out is Fractions, on
    # the complete, unit-ideal and every budget_exhausted path
    x, y, z = (Polynomial.variable(v) for v in range(3))
    one = Polynomial.constant(1)
    gens = [2 * x + y + z, 3 * x * y + y * z + z * x, x * y * z - one]
    res = groebner_basis(gens)
    assert res.status == "complete" and len(res.basis) > 1
    assert coefficient_types(res.basis) == {QQ}
    res = groebner_basis([x * x, 2 * x - one])
    assert res.is_unit_ideal and coefficient_types(res.basis) == {QQ}
    for budget, reason in [
        ({"max_basis_size": 3}, "basis_size"),
        ({"max_degree": 2}, "degree"),
        ({"time_budget": 0.0}, "time"),
    ]:
        res = groebner_basis(gens, **budget)
        assert (res.status, res.stats["reason"]) == ("budget_exhausted", reason)
        assert coefficient_types(res.basis) == {QQ}, reason
    # a stop while the inputs are made monic, at the 1024th input
    many = [Polynomial.variable(v).scale(2) + one for v in range(2048)]
    res = groebner_basis(many, time_budget=0.0)
    assert res.stats["reason"] == "time" and len(res.basis) == 1023
    assert coefficient_types(res.basis) == {QQ}
    # results with non-integral and with only integral coefficients
    for a, b in [(gens[0], gens[1]), (x * x - y, y * y - one)]:
        assert coefficient_types([reduce_full(b, [a]), s_polynomial(a, b)]) == {QQ}


# sha256 of repr(trace), and the stats without "elapsed", of
# buchberger_certify on raw or reduced systems under the solve defaults:
# pins which S-pair is taken when and what it reduced to.
CERTIFY_TRACES = [
    (
        lie_r2,
        False,
        "5516ebbd5cf9534758f13e7d2e6d2ee5d0c3d25fa4e4c7976cf5ff6c0e64a4f0",
        9, 6, 2,
    ),
    (
        lie_n3,
        False,
        "e088d206d001a28576bbb777662fd11ad0f698da4eb094a2b64c12bfd6454783",
        113, 95, 3,
    ),
    (
        lie_n3,
        True,
        "a345cb65ea4ed561283e1c87c4c6c00d9149fb52fdd2e6af19570fa578e4f13f",
        23, 19, 3,
    ),
    (
        lie_n4,
        False,
        "7d04a93756c5d644b06ce0fbc837337fff355d6de906adcae8f3e1d4a65e29e5",
        424, 369, 4,
    ),
    (
        lie_n4,
        True,
        "47b1ba7a226b172975fdec5051ad968c24927650b28a669fb2b6a6a20e6d1dda",
        54, 42, 6,
    ),
    (
        lie_n3_plus_line,
        True,
        "a13fed84139c8c0a7b03e95893e4d181a83faf34cf2f813be1be3e366afaa95f",
        595, 525, 6,
    ),
    (
        lie_r2,
        True,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0, 0, 2,
    ),
]


@pytest.mark.parametrize("base, reduced, digest, pairs, zeros, degree", CERTIFY_TRACES)
def test_certify_traces_are_pinned(base, reduced, digest, pairs, zeros, degree):
    system = generate_lr_system(base())
    res = buchberger_certify(
        structural_reduce(system) if reduced else system,
        max_basis_size=2000,
        time_budget=600.0,
    )
    assert res.status == "solutions_may_exist"
    assert hashlib.sha256(repr(res.trace).encode()).hexdigest() == digest
    stats = {k: v for k, v in res.groebner.stats.items() if k != "elapsed"}
    assert stats == {
        "pairs_processed": pairs,
        "zero_reductions": zeros,
        "max_degree_seen": degree,
    }


def certify_summary(system):
    """(trace digest, pairs, zero reductions, max degree) of
    buchberger_certify on a system that stays open under the solve
    defaults."""
    res = buchberger_certify(system, max_basis_size=2000, time_budget=600.0)
    assert res.status == "solutions_may_exist"
    stats = res.groebner.stats
    digest = hashlib.sha256(repr(res.trace).encode()).hexdigest()
    return digest, stats["pairs_processed"], stats["zero_reductions"], stats["max_degree_seen"]


def test_catalog_samples_certify_as_pinned():
    """The reduced system of each of the 86 catalog samples is one of
    those of r2, n3, n4 and n3+line, and its run takes the pinned pairs
    in the pinned order."""
    pins = {base: tuple(pin) for base, reduced, *pin in CERTIFY_TRACES if reduced}
    bases = {"r2": lie_r2, "n3": lie_n3, "n4": lie_n4, "n3_r": lie_n3_plus_line}
    runs: dict[str, tuple] = {}
    count = 0
    for key in catalog_list():
        base = bases[key.split("/")[0]]
        for params in sample_params(catalog_entry(key)):
            g = catalog_get(key, params).g
            residual = structural_reduce(generate_lr_system(g)).residual
            text = format_system(g.dim, residual)
            if text not in runs:
                runs[text] = certify_summary(residual)
            assert runs[text] == pins[base], key
            count += 1
    assert (count, len(runs)) == (86, 4)


def test_certify_toy_contradiction():
    x = Polynomial.variable(0)
    one = Polynomial.constant(1)
    res = buchberger_certify([x * x, x - one])
    assert res.status == "inconsistent"
    assert res.certified_unsolvable
    assert res.trace
    assert res.trace[-1][-1] == 1


def test_certify_catalog_systems_stay_open():
    for g in (lie_r2(), lie_n3()):
        s = generate_lr_system(g)
        red = structural_reduce(s)
        res = buchberger_certify(red, time_budget=60.0)
        assert res.status == "solutions_may_exist", g.dim
        assert not res.certified_unsolvable


def test_certify_budget_exhaustion_reported():
    s = generate_lr_system(lie_n3())
    res = buchberger_certify(s, max_basis_size=1)
    assert res.status == "budget_exhausted"
    assert not res.certified_unsolvable


def test_fingerprint_is_basis_independent_data():
    a = catalog_get("n3/A1", {"alpha": 2})
    f = lr_fingerprint(a)
    assert f["dim"] == 3
    assert f["complete"] is True
    assert f["lower_central_dims"] == (3, 1, 0)
    # same algebra, same fingerprint
    assert lr_fingerprint(a) == f


def test_iso_search_finds_self():
    a = catalog_get("n3/A3")
    r = iso_search(a, a)
    assert r.status == "found"
    assert r.transform is not None
    assert r.transform.rank() == a.dim


def test_iso_search_finds_nontrivial_transform():
    # same product pushed through the basis change e3 -> -e3
    g2 = lie_from_table(3, [(1, 2, (0, 0, -1))])
    half = QQ(1, 2)
    a2 = lr_from_table(g2, [(1, 2, (0, 0, -half)), (2, 1, (0, 0, half))])
    a1 = catalog_get("n3/A3")
    r = iso_search(a1, a2)
    assert r.status == "found"
    t = r.transform
    for i in range(3):
        for j in range(3):
            prod1 = tuple(a1.product_basis(i, j).get(k, QQ(0)) for k in range(3))
            assert t.apply(prod1) == a2.product(t.column(i), t.column(j))


def test_iso_search_distinguishes_by_invariant():
    r = iso_search(catalog_get("r2/A1"), catalog_get("r2/A2"))
    assert r.status == "distinguished"
    assert r.invariant == "complete"
    r = iso_search(catalog_get("r2/A1"), catalog_get("r2/A3"))
    assert r.status == "distinguished"
    assert r.invariant == "product_span_dims"


def test_iso_search_certificate_separates_equal_fingerprints():
    a2 = catalog_get("n3/A1", {"alpha": 2})
    a3 = catalog_get("n3/A1", {"alpha": 3})
    assert lr_fingerprint(a2) == lr_fingerprint(a3)
    r = iso_search(a2, a3)
    assert r.status == "distinguished"
    assert r.invariant == "no_invertible_product_isomorphism"


def test_iso_search_undecided_in_high_dimension():
    a = free3_lr(2)
    r = iso_search(a, a)
    assert r.status == "undecided"


def dense_fingerprint(a: LRAlgebra) -> dict:
    """lr_fingerprint written on dense L and R matrices, as it read them
    before it read the sparse table: the oracle of the sparse one."""
    g = a.g
    n = a.dim
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
            (m1.entries[r][c] * m2.entries[c][r] for r in range(n) for c in range(n)),
            QQ(0),
        )

    def form_rank(ms1, ms2) -> int:
        return Matrix([[tr(ms1[i], ms2[j]) for j in range(n)] for i in range(n)]).rank()

    return {
        "dim": n,
        "complete": a.complete,
        "lower_central_dims": lower_central_series(g).dims(),
        "derived_dims": derived_series(g).dims(),
        "upper_central_dims": upper_central_series(g).dims(),
        "product_span_dims": tuple(spans),
        "left_annihilator_dim": n - ann_dim(lmats),
        "right_annihilator_dim": n - ann_dim(rmats),
        "trace_form_rank_ll": form_rank(lmats, lmats),
        "trace_form_rank_rr": form_rank(rmats, rmats),
        "trace_form_rank_lr": form_rank(lmats, rmats),
    }


def catalog_samples() -> list[tuple[str, LRAlgebra]]:
    out = [
        (key, catalog_get(key, params))
        for key in catalog_list()
        for params in sample_params(catalog_entry(key))
    ]
    assert len(out) == 86
    return out


def test_fingerprint_matches_the_dense_oracle():
    rng = random.Random(39)
    inputs = [a for _, a in catalog_samples()] + [free3_lr(2), free4_two_gen_lr()]
    for k in range(24):
        n = 4 + k % 8
        row = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 4)]
        inputs.append(filiform_lr(FiliformSpec.from_free_row(n, row)))
    for a in inputs:
        assert lr_fingerprint(a) == dense_fingerprint(a)


def dense_signed_permutation_search(a1: LRAlgebra, a2: LRAlgebra):
    """The first signed permutation matrix T, permutations outside and
    signs inside as iso_search tries them, with T(e_i.e_j) = Te_i.Te_j
    for all i, j; None when there is none."""
    n = a1.dim
    units = [tuple(QQ(int(k == i)) for k in range(n)) for i in range(n)]
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            t = Matrix(
                [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
            )
            if all(
                t.apply(a1.product(units[i], units[j]))
                == a2.product(t.column(i), t.column(j))
                for i in range(n)
                for j in range(n)
            ):
                return t
    return None


def relabelled(a: LRAlgebra) -> LRAlgebra:
    """a with its basis renamed cyclically, e_k as e_(k+1 mod n)."""
    n = a.dim

    def moved(table):
        out = []
        for (i, j), v in table.items():
            vec = [QQ(0)] * n
            for k, c in v.items():
                vec[(k + 1) % n] = c
            out.append(((i + 1) % n + 1, (j + 1) % n + 1, vec))
        return out

    return lr_from_table(lie_from_table(n, moved(a.g.table)), moved(a.table))


def test_iso_search_matches_the_dense_search_oracle():
    """Every self-pair, every sample against its cyclic relabelling, 150
    seeded pairs on one base, and A6(0) against A7(0) on n3+line,
    isomorphic over QQ but by no signed permutation: iso_search finds a
    map exactly when the dense oracle does, and the same map."""
    samples = catalog_samples()
    by_base = {}
    for key, a in samples:
        by_base.setdefault(key.split("/")[0], []).append(a)
    rng = random.Random(41)
    pairs = [(a, a) for _, a in samples] + [(a, relabelled(a)) for _, a in samples]
    for _ in range(150):
        group = by_base[rng.choice(sorted(by_base))]
        pairs.append((rng.choice(group), rng.choice(group)))
    zero = {"alpha": 0}
    pairs.append((catalog_get("n3_r/A6", zero), catalog_get("n3_r/A7", zero)))
    seen = set()
    for a1, a2 in pairs:
        r = iso_search(a1, a2)
        t = dense_signed_permutation_search(a1, a2)
        assert (r.status == "found") == (t is not None)
        assert r.transform == t
        seen.add(r.status)
    assert seen == {"found", "distinguished", "undecided"}
