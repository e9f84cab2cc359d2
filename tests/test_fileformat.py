"""Text formats: algebra tables, polynomial systems, extension data.

Formatting then parsing must reproduce the object, and parsing then
formatting must reproduce the text byte for byte; error positions are
pinned down to line and column.
"""

import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
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
from lralg.cli import main
from lralg.constraints import generate_lr_system
from lralg.constructions import FiliformSpec, filiform_lr
from lralg.extensions import (
    ExtensionData,
    extension_lie_algebra,
    random_abelian_extension,
)
from lralg.fileformat import (
    MissingSection,
    ParseError,
    format_algebra,
    format_extension,
    format_system,
    parse_algebra_file,
    parse_algebra_text,
    parse_extension_text,
    parse_system_text,
)
from lralg.lie import lie_from_table
from lralg.linalg import Matrix
from lralg.poly import Polynomial


HEISENBERG_TEXT = """algebra heisenberg
dim 3
[1,2] = e3
product
(1,2) = 1/2*e3
(2,1) = -1/2*e3
"""


def test_parse_algebra_with_product():
    f = parse_algebra_text(HEISENBERG_TEXT)
    assert f.name == "heisenberg"
    assert f.dim == 3
    g = f.to_lie()
    assert g == lie_n3()
    a = f.to_lr()
    assert a == catalog_get("n3/A3")


def test_algebra_round_trip_is_byte_identical():
    a = catalog_get("n3/A3")
    text = format_algebra("heisenberg", a.g, a)
    assert text == HEISENBERG_TEXT
    assert parse_algebra_text(text).to_lr() == a
    # bracket-only files too
    g = counterexample_g13()
    text = format_algebra("g13", g)
    back = parse_algebra_text(text)
    assert back.to_lie() == g
    assert format_algebra("g13", back.to_lie()) == text


def test_algebra_file_io(tmp_path):
    path = tmp_path / "heis.alg"
    path.write_text(HEISENBERG_TEXT)
    f = parse_algebra_file(path)
    assert f.to_lie() == lie_n3()


def test_comments_blank_lines_and_spacing_are_tolerated():
    text = """
# pure comment
algebra   fuzzy   # trailing comment
dim 2

[1,2]=  e1
product
( 1 , 2 ) = 1 * e1
"""
    f = parse_algebra_text(text)
    assert f.name == "fuzzy"
    assert f.to_lie().bracket_basis(0, 1) == {0: QQ(1)}


def test_vector_expression_forms():
    text = "algebra v\ndim 4\n[1,2] = 2*e3 - e4 + 1/2*e1\n"
    f = parse_algebra_text(text)
    assert f.brackets == [(1, 2, (QQ(1, 2), QQ(0), QQ(2), QQ(-1)))]
    # zero entries are expressed by omission, not a literal
    with pytest.raises(ParseError):
        parse_algebra_text("algebra z\ndim 2\n[1,2] = 0\n")
    empty = parse_algebra_text("algebra z\ndim 2\n")
    assert empty.to_lie().bracket_basis(0, 1) == {}


def test_algebra_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\ndim 2\n[1,3] = e1\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\ndim 2\n[1,2] = e9\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\ndim 2\n[1,2] = 1/0*e1\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\ndim 2\nbogus line\n")
    assert err.value.line == 3
    assert err.value.column == 1

    # entries before the dim line have nowhere to validate against
    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\n[1,2] = e1\ndim 2\n")
    assert err.value.line == 2

    with pytest.raises(ParseError):
        parse_algebra_text("algebra x\n# nothing else\n")

    # the name line is optional; products are not, for to_lr
    f = parse_algebra_text("dim 2\n[1,2] = e1\n")
    assert f.name == "unnamed"
    with pytest.raises(MissingSection):
        f.to_lr()


def test_duplicate_and_conflicting_entries():
    from lralg.fileformat import AlgebraFile
    from lralg.lie import AntisymmetryConflict

    # the implied half may be given explicitly when consistent
    ok = parse_algebra_text("algebra x\ndim 2\n[1,2] = e1\n[2,1] = -e1\n")
    assert ok.to_lie().bracket_basis(0, 1) == {0: QQ(1)}
    # inconsistent orientation or repetition is caught while parsing
    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\ndim 2\n[1,2] = e1\n[2,1] = e1\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_algebra_text("algebra x\ndim 2\n[1,2] = e1\n[1,2] = 2*e1\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_algebra_text("algebra x\ndim 2\n[1,1] = e1\n")
    with pytest.raises(ParseError) as err:
        parse_algebra_text(
            "algebra x\ndim 2\nproduct\n(1,2) = e1\n(1,2) = e2\n"
        )
    assert err.value.line == 5
    # hand-built files still get the check from the Lie constructor
    raw = AlgebraFile("x", 2, [(1, 2, (QQ(1), QQ(0))), (2, 1, (QQ(1), QQ(0)))], None)
    with pytest.raises(AntisymmetryConflict):
        raw.to_lie()


def test_system_round_trip():
    s = generate_lr_system(lie_n3())
    text = format_system(3, s.polys)
    lines = text.splitlines()
    assert lines[0] == "dim 3"
    assert len(lines) == 1 + len(s.polys)
    back = parse_system_text(text)
    assert back.dim == 3
    assert back.polys == s.polys
    assert format_system(back.dim, back.polys) == text


def test_system_poly_syntax():
    f = parse_system_text("dim 2\nx[1][2][1]^2 - 3 * x[2][1][2] + 1/2\n")
    (p,) = f.polys
    assert p.degree() == 2
    # evaluate at a point to check the parse: x[1][2][1] is var (0*2+1)*2+0 = 2
    v1 = (0 * 2 + 1) * 2 + 0
    v2 = (1 * 2 + 0) * 2 + 1
    assert p.evaluate({v1: QQ(2), v2: QQ(1)}) == QQ(4) - 3 + QQ(1, 2)


def test_system_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_system_text("x[1][1][1]\n")  # missing dim header
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_system_text("dim 2\nx[3][1][1]\n")  # index beyond dim
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_system_text("dim 2\nx[1][1]\n")
    assert err.value.line == 2

    with pytest.raises(ParseError):
        parse_system_text("dim 2\nx[1][1][1] +\n")


EXTENSION_TEXT = """extension sample
kernel 2
base 2
[1,2] = e1
phi 1 = [0, 1; 0, 0]
phi 2 = [1, 0; 0, 1]
omega (1,2) = a1 - 1/2*a2
"""


def test_extension_round_trip():
    name, d = parse_extension_text(EXTENSION_TEXT)
    assert name == "sample"
    assert d.a_dim == 2
    assert d.b.bracket_basis(0, 1) == {0: QQ(1)}
    assert d.phi[0] == Matrix([[0, 1], [0, 0]])
    assert d.omega[0][1] == (QQ(1), QQ(-1, 2))
    assert d.omega[1][0] == (QQ(-1), QQ(1, 2))  # implied by antisymmetry
    text = format_extension(name, d)
    name2, d2 = parse_extension_text(text)
    assert (name2, d2) == (name, d)
    assert format_extension(name2, d2) == text


def test_extension_round_trip_randomized():
    rng = random.Random(77)
    for _ in range(10):
        d, _ = random_abelian_extension(rng, rng.randint(1, 3), rng.randint(1, 3))
        text = format_extension("r", d)
        _, back = parse_extension_text(text)
        assert back == d
        assert format_extension("r", back) == text


def test_extension_defaults_and_conflicts():
    # missing phis default to zero matrices
    name, d = parse_extension_text("extension e\nkernel 1\nbase 2\n")
    assert d.phi == (Matrix.zero(1, 1), Matrix.zero(1, 1))
    # inconsistent omega orientation is a parse error
    with pytest.raises(ParseError):
        parse_extension_text(
            "extension e\nkernel 1\nbase 2\n"
            "omega (1,2) = a1\nomega (2,1) = a1\n"
        )
    with pytest.raises(ParseError):
        parse_extension_text("extension e\nbase 2\n")  # kernel line required


def test_extension_matrix_shape_errors():
    with pytest.raises(ParseError):
        parse_extension_text(
            "extension e\nkernel 2\nbase 1\nphi 1 = [1, 0; 0]\n"
        )
    with pytest.raises(ParseError):
        parse_extension_text(
            "extension e\nkernel 1\nbase 2\nphi 3 = [1]\n"
        )


# ---------------------------------------------------------------------------
# one grammar for the three formats


# The three parsers once wrote their own size, range and conflict rules,
# and each case below was accepted, or rejected without a position, by
# one of them while another format rejected it at a line and column.
GRAMMAR_CASES = [
    # (format, text, line, column, message)
    ("algebra", "algebra x\ndim 3\n[1,2] = e3\ndim 2\n", 4, 1, "duplicate dim line"),
    ("system", "dim 2 junk\nx[1][1][1]\n", 1, 7, "unexpected text after dimension"),
    (
        "extension",
        "extension e\nkernel 2\nbase 1\nphi 1 = [1, 0; 0, 1]\nkernel 1\n",
        5,
        1,
        "duplicate kernel line",
    ),
    (
        "extension",
        "extension e\nkernel 1\nbase 2\n[1,2] = e1\n[2,1] = e1\n",
        5,
        1,
        "[2,1] contradicts [1,2] under antisymmetry",
    ),
    (
        "extension",
        "extension e\nkernel 1\nbase 2\n[1,1] = e1\n",
        4,
        1,
        "[1,1] must be zero by antisymmetry",
    ),
]

# parser and the command that reads the format
READERS = {
    "algebra": (parse_algebra_text, ["series"]),
    "system": (parse_system_text, ["solve"]),
    "extension": (parse_extension_text, ["construct", "extension"]),
}


@pytest.mark.parametrize("fmt, text, line, column, message", GRAMMAR_CASES)
def test_shared_grammar_rejects_with_position(
    tmp_path, capsys, fmt, text, line, column, message
):
    parse, command = READERS[fmt]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).endswith(message)
    path = tmp_path / f"input.{fmt}"
    path.write_text(text, encoding="utf-8")
    assert main([*command, str(path)]) == 2
    assert f"line {line}, column {column}: {message}" in capsys.readouterr().err


def test_system_dim_is_capped_at_64(tmp_path, capsys):
    f = parse_system_text("dim 64\nx[64][64][64] - 1\n")
    assert f.dim == 64
    assert f.polys == [Polynomial.variable(64**3 - 1) - Polynomial.constant(1)]
    with pytest.raises(ParseError) as err:
        parse_system_text("dim 65\nx[1][1][1]\n")
    assert (err.value.line, err.value.column) == (1, 5)
    assert "above the cap of 64" in str(err.value)
    path = tmp_path / "big.sys"
    path.write_text("dim 65\nx[1][1][1]\n", encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    capsys.readouterr()


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
CATALOG_INSTANCES = [
    (key, params)
    for key in catalog_list()
    for params in sample_params(catalog_entry(key))
]


@st.composite
def algebras(draw):
    """(name, Lie algebra, LR-structure or None) from the catalog, a
    seeded filiform spec, or the Lie algebra of a random extension."""
    kind = draw(st.sampled_from(["catalog", "filiform", "extension"]))
    if kind == "catalog":
        key, params = draw(st.sampled_from(CATALOG_INSTANCES))
        a = catalog_get(key, params)
        return key.replace("/", "_"), a.g, a
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "filiform":
        n = draw(st.integers(4, 8))
        row = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 4)]
        a = filiform_lr(FiliformSpec.from_free_row(n, row))
        return f"filiform{n}", a.g, a
    d, _ = random_abelian_extension(rng, rng.randint(1, 3), rng.randint(1, 3))
    return "extension", extension_lie_algebra(d), None


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_algebra_files_round_trip(case):
    name, g, a = case
    text = format_algebra(name, g, a)
    f = parse_algebra_text(text)
    assert (f.name, f.dim, f.to_lie()) == (name, g.dim, g)
    if a is None:
        assert f.products is None
    else:
        assert f.to_lr() == a
    assert format_algebra(f.name, f.to_lie(), None if a is None else f.to_lr()) == text


@st.composite
def systems(draw):
    """Random polynomials over x[i][j][k], dim <= 4, exponents <= 3."""
    n = draw(st.integers(1, 4))
    var = st.integers(0, n**3 - 1)
    mono = st.dictionaries(var, st.integers(1, 3), max_size=3)
    mono = mono.map(lambda m: tuple(sorted(m.items())))
    terms = st.dictionaries(mono, RATIONALS, max_size=5)
    return n, draw(st.lists(terms.map(Polynomial), max_size=6))


@settings(max_examples=80, deadline=None)
@given(systems())
def test_system_files_round_trip(case):
    n, polys = case
    text = format_system(n, polys)
    back = parse_system_text(text)
    assert (back.dim, back.polys) == (n, polys)
    assert format_system(back.dim, back.polys) == text


@st.composite
def extensions(draw):
    """A random abelian extension, or a datum with arbitrary phi and
    antisymmetric omega over a non-abelian base."""
    a_dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        return random_abelian_extension(rng, a_dim, draw(st.integers(1, 3)))[0]
    b = draw(st.sampled_from([lie_r2(), lie_n3(), lie_n4(), lie_n3_plus_line()]))
    m = b.dim
    vec = st.tuples(*[RATIONALS] * a_dim)
    phi = tuple(Matrix([list(draw(vec)) for _ in range(a_dim)]) for _ in range(m))
    omega = [[(QQ(0),) * a_dim] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            omega[i][j] = draw(vec)
            omega[j][i] = tuple(-c for c in omega[i][j])
    return ExtensionData(a_dim, b, phi, omega)


@settings(max_examples=40, deadline=None)
@given(extensions())
def test_extension_files_round_trip(d):
    text = format_extension("x", d)
    name, back = parse_extension_text(text)
    assert (name, back) == ("x", d)
    assert format_extension(name, back) == text
