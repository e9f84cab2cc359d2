"""Text formats: algebra tables, polynomial systems, extension data.

Formatting then parsing must reproduce the object, and parsing then
formatting must reproduce the text byte for byte; error positions are
pinned down to line and column.
"""

import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as QQ
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lralg import fileformat
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
from lralg.constraints import generate_lr_system, structural_reduce, x_index, x_name
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
    parse_system_file,
    parse_system_text,
)
from lralg.lie import lie_from_table
from lralg.linalg import Matrix
from lralg.poly import Polynomial, mono_key


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


# The three parsers once wrote their own size, range, conflict, digit
# and header rules, and each case below was accepted, or rejected without
# a position, by one of them while another format rejected it at a line
# and column.  A digit is what int() accepts, so a superscript is none,
# and a header line is dispatched on its whole first word.  A number with
# more digits than int() converts (LONG) is an error at its position.
LONG = "7" * 5000
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
    ("algebra", "algebra x\ndim \u00b2\n", 2, 5, "expected a number"),
    ("algebra", "algebra x\ndim 65\n", 2, 5, "dimension 65 is above the cap of 64"),
    ("algebra", "algebra x\ndim 3\n[1,2] = \u00b2*e3\n", 3, 9, "expected basis symbol 'e'"),
    ("system", "dim 2\nx[1][1][1]^\u00b2\n", 2, 12, "expected a number"),
    ("algebra", "algebra x\ndim5\n", 2, 1, "unrecognized line: 'dim5'"),
    ("algebra", "algebrafoo\ndim 2\n", 1, 1, "unrecognized line: 'algebrafoo'"),
    ("system", "dim5\nx[1][1][1]\n", 1, 1, "dim must come before polynomials"),
    ("extension", "extension e\nkernel2\nbase 1\n", 2, 1, "unrecognized line: 'kernel2'"),
    ("extension", "extension e\nkernel 65\nbase 1\n", 2, 8, "kernel size 65 is above the cap of 64"),
    ("extension", "extension e\nkernel 1\nbase 65\n", 3, 6, "base size 65 is above the cap of 64"),
    ("extension", "extension\nkernel 1\nbase 1\n", 1, 10, "missing extension name"),
    ("algebra", "algebra a\nalgebra b\ndim 2\n", 2, 1, "duplicate algebra line"),
    ("system", f"dim 1\nx[1][1][1] + {LONG}\n", 2, 14, "number has too many digits"),
    (
        "system",
        f"dim 1\nx[1][1][1]*x[1][1][1] - {LONG}*x[1][1][1]\n",
        2,
        25,
        "number has too many digits",
    ),
    ("system", f"dim 1\nx[1][1][1]^{LONG}\n", 2, 12, "number has too many digits"),
    ("algebra", f"algebra x\ndim 2\n[1,2] = {LONG}*e1\n", 3, 9, "number has too many digits"),
    ("algebra", f"algebra x\ndim {LONG}\n", 2, 5, "number has too many digits"),
    ("system", f"dim 2\nx[1][{LONG}][1] + 1\n", 2, 6, "number has too many digits"),
    ("algebra", f"algebra x\ndim 2\n[ 2, {LONG}] = e1\n", 3, 6, "number has too many digits"),
    ("extension", f"extension e\nkernel 1\nbase 1\nphi {LONG} = [1]\n", 4, 5, "number has too many digits"),
    (
        "extension",
        f"extension e\nkernel 1\nbase 1\nphi 1 = [-{LONG}]\n",
        4,
        11,
        "number has too many digits",
    ),
    (
        "extension",
        "extension e\nkernel 1\nbase 1\nextension f\n",
        4,
        1,
        "duplicate extension line",
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


def run_python(*args, timeout: float = 5) -> subprocess.CompletedProcess:
    """A fresh interpreter with the source tree on its path, failing the
    test after timeout seconds."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def run_lralg_briefly(*args) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, failing the test after 5 s."""
    return run_python("-m", "lralg", *args)


def test_import_compiles_no_system_line_pattern():
    """The system-line patterns (the walk's variable, the canonical
    reader's coefficient and factor) are compiled on the first system
    parse, so importing lralg stays cheap for runs that read no system
    file."""
    code = (
        "import lralg\n"
        "ff = lralg.fileformat\n"
        "assert ff._term_patterns.cache_info().currsize == 0\n"
        "lralg.parse_system_text('dim 1\\nx[1][1][1]\\n')\n"
        "assert ff._term_patterns.cache_info().currsize == 1\n"
        "var, coeff, factor = ff._term_patterns()\n"
        "assert var.match('x[ 1 ][2][3]').groups() == ('1', '2', '3')\n"
        "assert coeff.fullmatch('3/4') and coeff.fullmatch('12')\n"
        "assert not any(map(coeff.fullmatch, ['1e3', '1.5', '3_0', ' 3', '\\u0663']))\n"
        "assert factor.fullmatch('x[1][2][3]^2').groups() == ('1', '2', '3', '2')\n"
        "assert not factor.fullmatch('x[ 1 ][2][3]')\n"
    )
    done = run_python("-c", code, timeout=30)
    assert done.returncode == 0, done.stderr


def test_huge_algebra_dim_exits_2_at_once(tmp_path):
    """A two-line file declaring dim 3000 is refused at its size line,
    not handed to a series computation that runs for minutes."""
    path = tmp_path / "big.alg"
    path.write_text("algebra big\ndim 3000\n", encoding="utf-8")
    done = run_lralg_briefly("series", str(path))
    assert done.returncode == 2
    assert "line 2, column 5: dimension 3000 is above the cap of 64" in done.stderr


@pytest.mark.parametrize(
    "text, where",
    [
        ("extension big\nkernel 3000\nbase 1\n", "line 2, column 8: kernel size"),
        ("extension big\nkernel 1\nbase 3000\n", "line 3, column 6: base size"),
    ],
    ids=["kernel", "base"],
)
def test_huge_extension_sizes_exit_2_at_once(tmp_path, text, where):
    """A three-line extension file declaring a kernel or base of size
    3000 is refused at its size line, not validated densely for minutes."""
    path = tmp_path / "big.ext"
    path.write_text(text, encoding="utf-8")
    done = run_lralg_briefly("construct", "extension", str(path))
    assert done.returncode == 2
    assert f"{where} 3000 is above the cap of 64" in done.stderr


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


@pytest.mark.parametrize("lie", [lie_r2, lie_n3, lie_n4, lie_n3_plus_line])
def test_raw_systems_parse_back(lie):
    g = lie()
    raw = generate_lr_system(g).polys
    assert parse_system_text(format_system(g.dim, raw)).polys == raw


def test_written_systems_take_the_canonical_reader(monkeypatch):
    """Every line format_system writes for the raw and reduced systems of
    r2, n3, n4 and n3+line, and for the reduced g13 system, is read by
    the canonical reader, as written and with every ' * ' closed up to
    '*': with the scanner walk made to fail, each system still parses
    back.  A writer change that sent lines to the walk would slow the
    raw g13 read without changing any result."""
    systems = []
    for lie in (lie_r2, lie_n3, lie_n4, lie_n3_plus_line):
        g = lie()
        raw = generate_lr_system(g)
        systems += [(g.dim, raw.polys), (g.dim, structural_reduce(raw).residual)]
    g13 = counterexample_g13()
    systems.append((g13.dim, structural_reduce(generate_lr_system(g13)).residual))

    def walk(body, line_no, *args):
        raise AssertionError(f"line {line_no} left the canonical reader: {body!r}")

    monkeypatch.setattr(fileformat, "_parse_poly_line", walk)
    for dim, polys in systems:
        text = format_system(dim, polys)
        assert parse_system_text(text).polys == polys
        # the closed-up factor form is read by the same reader
        assert parse_system_text(text.replace(" * ", "*")).polys == polys


def oracle_to_string(p: Polynomial, namer) -> str:
    """The line writer's oracle: a mono_key sort of every polynomial, a
    piece per term, and the pieces joined by their own signs."""
    if not p.terms:
        return "0"
    parts = []
    for m, c in sorted(p.terms.items(), key=lambda t: mono_key(t[0]), reverse=True):
        body = " * ".join([namer(v) if e == 1 else f"{namer(v)}^{e}" for v, e in m])
        if not body:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        else:
            piece = f"{c} * {body}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece[0] == "-" else f" + {piece}"
    return out


def oracle_format_system(dim: int, polys) -> str:
    lines = [oracle_to_string(p, lambda v: x_name(dim, v)) for p in polys]
    return "\n".join([f"dim {dim}", *lines]) + "\n"


COEFFS = st.one_of(st.sampled_from([QQ(1), QQ(-1)]), RATIONALS)


@st.composite
def written_systems(draw):
    """Polynomials over x[i][j][k] at dims 2 to 13: the zero polynomial,
    constants, degrees up to 9, coefficients 1, -1 and rationals; about
    half of them may have squares, the rest are squarefree."""
    n = draw(st.integers(2, 13))
    var = st.integers(0, n**3 - 1)
    polys = []
    for _ in range(draw(st.integers(0, 6))):
        exps = st.integers(1, 3) if draw(st.booleans()) else st.just(1)
        mono = st.dictionaries(var, exps, max_size=3)
        mono = mono.map(lambda m: tuple(sorted(m.items())))
        polys.append(Polynomial(draw(st.dictionaries(mono, COEFFS, max_size=6))))
    return n, polys


X0, X1 = x_index(2, 0, 0, 0), x_index(2, 0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(written_systems())
@example((2, [Polynomial({((X0, 1), (X1, 1)): QQ(1), ((X0, 1),): QQ(-1), (): QQ(2)})]))
@example((2, [Polynomial({((X0, 2),): QQ(1), ((X0, 1), (X1, 1)): QQ(1, 2)})]))
@example((2, [Polynomial()]))
def test_format_system_matches_the_mono_key_writer(case):
    n, polys = case
    text = format_system(n, polys)
    assert text == oracle_format_system(n, polys)
    assert parse_system_text(text).polys == polys
    # polynomials made one at a time, with fresh coefficients that die
    # with them, so a coefficient's id is free for the next one's
    fresh = (Polynomial({m: QQ(str(c)) for m, c in p.terms.items()}) for p in polys)
    assert format_system(n, fresh) == text
    for p in polys:
        assert p.to_string() == oracle_to_string(p, "x{}".format)


@pytest.mark.parametrize(
    "data",
    [
        b"dim 2\r\nx[1][1][1] - 1\r\n# note\r\n\r\nx[2][2][2]^2 + 1/2\n",
        b"dim 2\rx[1][1][1]\x0cx[1][2][1]\n\nx[2][2][2]",
        b"dim 2\n\n\x0bx[3][1][1]\n",
        b"",
        # a parse error on line 2 and a byte that is not UTF-8 past the
        # first block the file is read in
        b"dim 2\nx[1][1]\n" + b"x[1][1][1]\n" * 5000 + b"\xff\n",
        b"dim 2\n" + b"x[1][1][1]\n" * 5000 + b"x[1][1][1] - \xe2\x82\n",
    ],
    ids=["crlf", "cr-formfeed", "vtab-error", "empty", "parse-then-bad-byte", "bad-byte"],
)
def test_system_file_reads_like_its_text(tmp_path, data):
    """parse_system_file reads line by line, yet line breaks, comments,
    parse errors and decoding errors come out as from the whole text."""
    path = tmp_path / "s.sys"
    path.write_bytes(data)

    def outcome(parse):
        try:
            f = parse()
        except ValueError as exc:
            return type(exc), str(exc)
        return f.dim, f.polys

    whole = outcome(lambda: parse_system_text(path.read_text(encoding="utf-8")))
    assert outcome(lambda: parse_system_file(path)) == whole


# The character scanner that first read polynomial lines, kept as the
# oracle for the parser: the canonical reader and the walk on
# fileformat's _Scanner that reads every other line.  Its digit test was
# str.isdigit, so a superscript digit reached int() and crashed it.


class _OracleScanner:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def fail(self, message: str, at: int | None = None):
        col = (self.pos if at is None else at) + 1
        raise ParseError(self.line_no, col, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number", start)
        return int(self.text[start : self.pos])

    def rational(self) -> QQ:
        self.skip_ws()
        start = self.pos
        sign = 1
        if self.take("-"):
            sign = -1
        elif self.take("+"):
            pass
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                self.fail("zero denominator", start)
            return QQ(sign * num, den)
        return QQ(sign * num)


_ORACLE_XVAR_RE = re.compile(r"x\[\s*(\d+)\s*\]\[\s*(\d+)\s*\]\[\s*(\d+)\s*\]")


def oracle_poly_line(body: str, line_no: int, dim: int) -> Polynomial:
    sc = _OracleScanner(body, line_no)

    def factor(factors: dict[int, int]):
        at = sc.pos
        m = _ORACLE_XVAR_RE.match(sc.text, sc.pos)
        if not m:
            sc.fail("malformed variable, expected x[i][j][k]", at)
        i, j, k = (int(m.group(t)) for t in (1, 2, 3))
        for idx in (i, j, k):
            if not (1 <= idx <= dim):
                sc.fail(f"variable index {idx} out of range 1..{dim}", at)
        sc.pos = m.end()
        var = x_index(dim, i - 1, j - 1, k - 1)
        exp = 1
        if sc.take("^"):
            exp = sc.integer()
            if exp <= 0:
                sc.fail("exponent must be positive", at)
        factors[var] = factors.get(var, 0) + exp

    terms: dict = {}
    first = True
    while not sc.done():
        sign = QQ(1)
        if sc.take("-"):
            sign = QQ(-1)
        elif sc.take("+"):
            pass
        elif not first:
            sc.fail("expected '+' or '-' between terms")
        first = False
        sc.skip_ws()
        coeff = QQ(1)
        factors: dict[int, int] = {}
        if sc.peek().isdigit():
            coeff = sc.rational()
        elif sc.peek() == "x":
            factor(factors)
        else:
            sc.fail("expected a coefficient or a variable")
        while True:
            sc.skip_ws()
            if sc.take("*"):
                sc.skip_ws()
                factor(factors)
            elif sc.peek() == "x":
                factor(factors)
            else:
                break
        mono = tuple(sorted(factors.items()))
        val = terms.get(mono, QQ(0)) + sign * coeff
        if val:
            terms[mono] = val
        else:
            terms.pop(mono, None)
    return Polynomial(terms)


# Valid lines in every shape the grammar allows: coefficients p and p/q,
# '*' or juxtaposition, exponents, factors out of order, repeated
# variables, three factors, spaces and tabs, a leading '+', and the raw
# r2 and n3 systems as written.
MUTATION_BASES = [
    "x[1][1][2] * x[2][1][1] - x[1][2][1]^2 + 1/2",
    "x[2][2][1] * x[1][1][2] - 5 x[2][1][2]x[1][2][2]",
    "-3/4 * x[2][2][2]x[1][1][1]^3 * x[1][2][1] - 7",
    "+2 x[1][2][2] + x[2][1][2] * x[2][1][2]^ 2\t- 0/5*x[1][1][1]",
    "x[ 1 ][2 ][1] ^3 *x[2][2][1] * x[1][2][1] - 1 / 3 - x[2][1][1]",
    *format_system(2, generate_lr_system(lie_r2()).polys).splitlines()[1:8],
    *format_system(3, generate_lr_system(lie_n3()).polys).splitlines()[-4:],
    # g13 as format_system writes it: the first left commute row and a
    # compatibility row of the raw system, then two reduced residuals,
    # one with a rational coefficient and one with a square
    "x[1][1][2] * x[2][2][1] + x[1][1][3] * x[2][3][1] + x[1][1][4] * x[2][4][1]"
    " + x[1][1][5] * x[2][5][1] + x[1][1][6] * x[2][6][1] + x[1][1][7] * x[2][7][1]"
    " + x[1][1][8] * x[2][8][1] + x[1][1][9] * x[2][9][1] + x[1][1][10] * x[2][10][1]"
    " + x[1][1][11] * x[2][11][1] + x[1][1][12] * x[2][12][1]"
    " + x[1][1][13] * x[2][13][1] - x[1][2][1] * x[2][1][2] - x[1][3][1] * x[2][1][3]"
    " - x[1][4][1] * x[2][1][4] - x[1][5][1] * x[2][1][5] - x[1][6][1] * x[2][1][6]"
    " - x[1][7][1] * x[2][1][7] - x[1][8][1] * x[2][1][8] - x[1][9][1] * x[2][1][9]"
    " - x[1][10][1] * x[2][1][10] - x[1][11][1] * x[2][1][11]"
    " - x[1][12][1] * x[2][1][12] - x[1][13][1] * x[2][1][13]",
    "x[1][5][2] - x[2][5][1] - 1",
    "-x[1][6][4] * x[4][7][4] + 1/2 * x[4][7][4]",
    "-x[1][6][1] * x[4][6][4] + x[1][6][4]^2 - x[1][6][4]",
]
MUTATION_CHARS = "x[]0123456789^*/+- \t\u00b2\u0663"


@st.composite
def mutated_lines(draw):
    """A valid line after up to four single-character insertions,
    deletions and replacements."""
    line = draw(st.sampled_from(MUTATION_BASES))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        i = draw(st.integers(0, len(line)))
        ch = draw(st.sampled_from(MUTATION_CHARS))
        if op == "insert":
            line = line[:i] + ch + line[i:]
        else:
            line = line[:i] + (ch if op == "replace" else "") + line[i + 1 :]
    return line


def outcome(parse):
    """What parse() returns, or the line, column and message it raises."""
    try:
        return parse()
    except ParseError as err:
        return (err.line, err.column, str(err))


@settings(max_examples=1500, deadline=None)
@given(mutated_lines(), st.sampled_from([2, 3, 13]))
@example("x[1][1][1] - 3 / 0 * x[1][2][1]", 2)
@example("x[1][1][1] - 3 /", 2)
@example("x[1][1][1]^ * x[1][2][1]", 2)
@example("x[1][1][1]^0", 2)
@example("2 x[1][1][1] *  ", 2)
@example("-* x[1][1][1]", 2)
@example("x[1][1][1] x[1][1", 2)
@example("x[1][2][1]^2^3", 2)
@example("1/2/3", 2)
@example("x[1][1][1]^\u0663 + \u0663/\u0662", 2)
@example("x[1][1][1]^\u00b2", 2)
@example("1" + " " * 20000 + "+ 1", 2)
@example("x[1][1][1]" + " \t" * 10000 + "* x[1][2][1]^" + " " * 20000 + "- 2 /", 2)
@example("+" + " " * 20000 + "x[1][1][1]" + " " * 20000 + "*", 2)
# canonical lines that the fast read hands back to the walk
@example("x[14][1][1]", 13)
@example("1/0 * x[1][1][1]", 2)
@example("x[1][1][1] * x[1][1][1]", 2)
@example("x[1][1][1] - x[1][1][1]", 2)
@example("x[1][1][1] - 0 * x[1][2][1]", 2)
# lines whose tokens split like a canonical line's, read otherwise by the walk
@example("*x[2][7][4] - x[4][7][2]", 13)
@example("x[1][2][3] -  * x[3][2][1]", 13)
@example("x[2][12][3]  - - x[3][12][2]", 13)
# coefficient texts that QQ() reads and the walk does not
@example("1e3 * x[1][1][1]", 2)
@example("1.5", 2)
@example("3_0 * x[1][1][1]", 2)
@example(" 3", 2)
def test_term_pattern_agrees_with_the_scanner(line, dim):
    got = outcome(lambda: parse_system_text(f"dim {dim}\n{line}\n").polys)
    try:
        want = outcome(lambda: [oracle_poly_line(line, 2, dim)] if line.strip() else [])
    except ValueError:
        # the oracle's int() crash on a superscript digit; the parser's
        # digit test is int()'s, so it reads no digit there and reports
        # a position instead
        assert "\u00b2" in line and isinstance(got, tuple)
        return
    assert got == want


# What a mutation of a written line inserts or deletes: the blanks, the
# signs and operators, the ASCII digits, and a digit that int() reads.
SYSTEM_MUTATION_CHARS = " \t+-*^0123456789\u0663"


@st.composite
def mutated_systems(draw):
    """(dim, lines) of a system file: a nonempty written_systems() case
    (coefficients 1, -1 and p/q, up to three factors with exponents,
    constants) as format_system writes it, with ' * ' closed up or not,
    after one to three insertions or deletions of SYSTEM_MUTATION_CHARS
    on one polynomial line."""
    n, polys = draw(written_systems().filter(lambda case: case[1]))
    text = format_system(n, polys)
    if draw(st.booleans()):
        text = text.replace(" * ", "*")
    lines = text.splitlines()
    at = draw(st.integers(1, len(lines) - 1))
    line = lines[at]
    for _ in range(draw(st.integers(1, 3))):
        ours = [i for i, ch in enumerate(line) if ch in SYSTEM_MUTATION_CHARS]
        if ours and draw(st.booleans()):
            i = draw(st.sampled_from(ours))
            line = line[:i] + line[i + 1 :]
        else:
            i = draw(st.integers(0, len(line)))
            line = line[:i] + draw(st.sampled_from(SYSTEM_MUTATION_CHARS)) + line[i:]
    lines[at] = line
    return n, lines


@settings(max_examples=600, deadline=None)
@given(mutated_systems())
def test_mutated_written_systems_read_as_the_walk_does(case):
    """The canonical reader returns a polynomial only where the walk
    returns the same one; on any other line the walk's polynomial or its
    error comes out."""
    dim, lines = case
    got = outcome(lambda: parse_system_text("\n".join(lines) + "\n").polys)
    want = outcome(
        lambda: [
            oracle_poly_line(line, line_no, dim)
            for line_no, line in enumerate(lines[1:], start=2)
            if line.strip()
        ]
    )
    assert got == want


# Long blank runs where a factor, a number or a sign may follow.  A
# reader that gives such a run back one blank at a time, with two runs
# able to split the same blanks, is quadratic there: 20,000 blanks take
# seconds.
BLANK_RUN_LINES = [
    "1" + " " * 20000 + "+ 1",
    "2 *" + " " * 20000 + "x[1][1][1] - 1",
    "x[1][1][1]^" + " " * 20000 + "2",
    "-" + " " * 20000 + "x[1][1][1]" + " " * 20000 + "/",
    " " * 20000 + "/",
]


def test_long_blank_runs_read_in_linear_time():
    start = time.perf_counter()
    for line in BLANK_RUN_LINES:
        try:
            parse_system_text(f"dim 2\n{line}\n")
        except ParseError:
            pass
    assert time.perf_counter() - start < 2.0


# Lines outside the canonical spacing, which the scanner walk reads: the
# terms closed up, and hand-spaced with runs of blanks and tabs.  40,000
# terms in all take a fraction of a second.
OPEN_TERMS = "x[1][1][1]*x[1][2][1]-2*x[2][1][1]^2+1/2*x[2][2][1]-"
SPACED_TERMS = "x[1][1][1]  *\tx[1][2][1]   -  2 *  x[2][1][1] ^ 2  +\t1/2 * x[2][2][1] - "
HAND_SPACED_LINES = [OPEN_TERMS * 5000 + "1", SPACED_TERMS * 5000 + "1"]


def test_closed_up_and_hand_spaced_lines_read_in_linear_time():
    start = time.perf_counter()
    for line in HAND_SPACED_LINES:
        assert parse_system_text(f"dim 2\n{line}\n").polys[0].terms
    assert time.perf_counter() - start < 2.0


def test_the_walk_passes_the_blanks_after_each_token_once(monkeypatch):
    # a token is a variable, a number or one of - + * / ^; the scanner
    # skips the blanks after it as it passes it, and once at the start
    token = re.compile(r"x\[\d+\]\[\d+\]\[\d+\]|\d+|[-+*/^]")
    skips = []
    skip = fileformat._Scanner.skip

    def counted(self, pos):
        skips.append(pos)
        skip(self, pos)

    monkeypatch.setattr(fileformat._Scanner, "skip", counted)
    var_re = fileformat._term_patterns()[0]
    raw = format_system(3, generate_lr_system(lie_n3()).polys).splitlines()[1:]
    lines = [OPEN_TERMS * 3 + "1", SPACED_TERMS * 3 + "1"]
    lines += [line.replace(" * ", "*").replace(" - ", "-") for line in raw]
    lines += [line.replace(" * ", " \t* ").replace(" - ", "  -  ") for line in raw]
    for line in lines:
        skips.clear()
        fileformat._parse_poly_line(line, 1, 3, var_re, {})
        assert len(skips) == 1 + len(token.findall(line)), line


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
