"""Plain-text formats for algebras, polynomial systems, and extension data.

Algebra files:

    # comments run to end of line
    algebra heisenberg
    dim 3
    [1,2] = e3
    product
    (1,2) = 1/2*e3
    (2,1) = -1/2*e3

Bracket lines give [e_i, e_j]; the other orientation is implied.  The
optional product section lists e_i . e_j for an LR-structure; unlisted
pairs multiply to zero.  Vector expressions are sums of terms, each an
optional rational coefficient times a basis symbol e<k>.

Polynomial system files:

    dim 3
    x[1][1][2]^2 - x[2][1][1] + 1/2

One polynomial per line over the product unknowns x[i][j][k] (the
coefficient of e_j in e_i . e_k, all indices 1-based), written largest
term first in the graded order.  The dimension is at most 64.  Files
are written in one canonical spacing, which is read fastest: the line
is split into tokens, and each distinct sign, coefficient and factor
is checked once per file, as it is first seen.  Any other line is read
by the same scanner as algebra and extension entries, so every spacing
the grammar allows is read, with the same errors.

Extension files:

    extension radical
    kernel 2
    base 2
    [1,2] = e1
    phi 1 = [0, 1; 0, 0]
    phi 2 = [1, 0; 0, 1]
    omega (1,2) = a1 - 1/2*a2

phi matrices act on the kernel (rows separated by semicolons); omega
values are kernel vectors over the symbols a<k>.  Omitted omega pairs
are zero and the (j,i) value is implied by antisymmetry.

The three formats share one grammar.  Comments are cut and blank lines
skipped.  A header line is known by its whole first word: a name line
(algebra, extension) needs a name after it, a size line (dim, kernel,
base) holds a positive integer, at most MAX_SYSTEM_DIM, and nothing
else, and each header line comes at most once per file.  A number is a run of decimal digits as
int() reads them, so a superscript digit is not one.  An entry line
([i,j], (i,j), omega (i,j)) has its indices checked against the size
before its vector is read, and a pair given twice must agree; in the
antisymmetric sections (brackets, omega) the diagonal is zero and (j,i)
must be the negative of (i,j).  All parse failures raise ParseError
carrying 1-based line and column.
"""

import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable, Sequence

from .constraints import _gc_paused, x_index, x_name
from .extensions import ExtensionData
from .lie import LieAlgebra, SparseVec, _sparsify, lie_from_table
from .linalg import QQ, Matrix, Vector
from .lr import LRAlgebra, lr_from_table
from .poly import MONO_ONE, Polynomial, _Cache, line_writer

# Largest dimension of an algebra or system file, and largest kernel or
# base size of an extension file.  A system keeps a bit per unknown
# x[i][j][k] in its variable masks, so dim^3 bits each; an extension's
# validation is dense in its sizes.
MAX_SYSTEM_DIM = 64


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class MissingSection(ValueError):
    pass


# The one digit rule: a number is a run of what int() accepts.
_DIGITS = re.compile(r"\d+")


def _number(m: re.Match, group: int, line_no: int) -> int:
    """The digits of group `group` of m as an int, or a ParseError at the
    first of them when there are more than int() converts."""
    try:
        return int(m.group(group))
    except ValueError:
        raise ParseError(line_no, m.start(group) + 1, "number has too many digits") from None


def _content_lines(chunks: Iterable[str]):
    """(line number, body) of each line with content left once its
    comment is cut.  A chunk is a whole text or one line of an open
    file; either ends where a line does, so lines are numbered alike."""
    lines = (raw for chunk in chunks for raw in chunk.splitlines())
    for line_no, raw in enumerate(lines, start=1):
        cut = raw.find("#")
        body = raw if cut < 0 else raw[:cut]
        if body.strip():
            yield line_no, body


def _first_word(body: str) -> str:
    """The word a header line is dispatched on."""
    return body.split(None, 1)[0]


def _name_line(body: str, line_no: int, keyword: str, earlier: str | None) -> str:
    """`<keyword> NAME`: the rest of the line, which must not be empty.
    earlier is the name of a previous line with this keyword."""
    if earlier is not None:
        raise ParseError(line_no, 1, f"duplicate {keyword} line")
    name = body.strip()[len(keyword) :].strip()
    if not name:
        raise ParseError(line_no, len(body) + 1, f"missing {keyword} name")
    return name


class _Scanner:
    """Character scanner over one line from pos on, reporting 1-based
    columns.  The blanks after a token are skipped once, as the token is
    passed, so that pos is always at the next token or the end."""

    def __init__(self, text: str, line_no: int, pos: int = 0):
        self.text = text
        self.line_no = line_no
        self.skip(pos)

    def fail(self, message: str, at: int | None = None):
        col = (self.pos if at is None else at) + 1
        raise ParseError(self.line_no, col, message)

    def skip(self, pos: int):
        """Move to pos, then past the blanks there."""
        text, end = self.text, len(self.text)
        while pos < end and text[pos] in " \t":
            pos += 1
        self.pos = pos

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def take(self, ch: str) -> bool:
        if self.text.startswith(ch, self.pos):
            self.skip(self.pos + len(ch))
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.fail(f"expected {ch!r}")

    def integer(self) -> int:
        m = _DIGITS.match(self.text, self.pos)
        if m is None:
            self.fail("expected a number")
        value = _number(m, 0, self.line_no)
        self.skip(m.end())
        return value

    def rational(self) -> QQ:
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


_SIZE_NOUNS = {"dim": "dimension", "kernel": "kernel size", "base": "base size"}


def _size_line(
    body: str, line_no: int, keyword: str, earlier: int | None, cap: int | None = None
) -> int:
    """`<keyword> N`: a positive integer (at most cap) with nothing after
    it.  earlier is the value of a previous line with this keyword."""
    if earlier is not None:
        raise ParseError(line_no, 1, f"duplicate {keyword} line")
    noun = _SIZE_NOUNS[keyword]
    sc = _Scanner(body, line_no, body.index(keyword) + len(keyword))
    at = sc.pos
    n = sc.integer()
    if n <= 0:
        sc.fail(f"{noun} must be positive", _DIGITS.match(body, at).end())
    if cap is not None and n > cap:
        sc.fail(f"{noun} {n} is above the cap of {cap}", at)
    if not sc.done():
        sc.fail(f"unexpected text after {noun}")
    return n


def _parse_vector(sc: _Scanner, dim: int, prefix: str) -> Vector:
    """Sum of terms: [sign] [rational [*]] <prefix><index>."""
    out = [QQ(0)] * dim
    first = True
    while True:
        if sc.done():
            if first:
                sc.fail("expected a vector expression")
            break
        sign = QQ(1)
        if sc.take("-"):
            sign = QQ(-1)
        elif sc.take("+"):
            pass
        elif not first:
            sc.fail("expected '+' or '-' between terms")
        coeff = QQ(1)
        if _DIGITS.match(sc.text, sc.pos):
            coeff = sc.rational()
            sc.take("*")
        at = sc.pos
        if not sc.take(prefix):
            sc.fail(f"expected basis symbol {prefix!r}", at)
        idx = sc.integer()
        if not (1 <= idx <= dim):
            sc.fail(f"basis index {idx} out of range 1..{dim}", at)
        out[idx - 1] += sign * coeff
        first = False
    return tuple(out)


def _signed_sum(parts: list[str]) -> str:
    """Nonempty terms, each written with its own sign, as `a + b - c`."""
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece[0] == "-" else f" + {piece}"
    return out


def _format_vector(v: SparseVec, prefix: str = "e") -> str:
    parts = []
    for idx in sorted(v):
        c, sym = v[idx], f"{prefix}{idx + 1}"
        if c == 1:
            parts.append(sym)
        elif c == -1:
            parts.append(f"-{sym}")
        elif c:
            parts.append(f"{c}*{sym}")
    return _signed_sum(parts) if parts else "0"


@dataclass(frozen=True)
class _Section:
    """One kind of indexed entry line, `<label> = <vector>`."""

    label: str  # the pair (i, j) written out, through str.format
    pattern: re.Pattern
    antisymmetric: bool
    prefix: str = "e"


_BRACKETS = _Section("[{},{}]", re.compile(r"^\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*="), True)
_PRODUCTS = _Section("({},{})", re.compile(r"^\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*="), False)
_OMEGA = _Section(
    "omega ({},{})", re.compile(r"^\s*omega\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*="), True, "a"
)


class _Table:
    """The entries of one section as they are read, checked for conflicts."""

    def __init__(self, section: _Section):
        self.section = section
        self.values: dict[tuple[int, int], Vector] = {}
        self.entries: list[tuple[int, int, Vector]] = []

    def read(self, m: re.Match, body: str, line_no: int, size: int, vec_size: int):
        """Add the entry line matched by m: indices in 1..size, pointing
        at the first index when one is not, then the vector."""
        i, j = _number(m, 1, line_no), _number(m, 2, line_no)
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(line_no, m.start(1) + 1, f"index out of range 1..{size}")
        sc = _Scanner(body, line_no, m.end())
        self.add(line_no, i, j, _parse_vector(sc, vec_size, self.section.prefix))

    def add(self, line_no: int, i: int, j: int, v: Vector):
        """A pair given twice must agree; an antisymmetric section also
        has a zero diagonal and (j,i) = -(i,j)."""
        label = self.section.label
        name = label.format(i, j)
        if self.section.antisymmetric and i == j and any(v):
            raise ParseError(line_no, 1, f"{name} must be zero by antisymmetry")
        if self.values.get((i, j), v) != v:
            raise ParseError(line_no, 1, f"conflicting value for {name}")
        if self.section.antisymmetric:
            neg, other = tuple(-c for c in v), label.format(j, i)
            if self.values.get((j, i), neg) != neg:
                raise ParseError(line_no, 1, f"{name} contradicts {other} under antisymmetry")
        self.values[(i, j)] = v
        self.entries.append((i, j, v))


def _entry_lines(section: _Section, n: int, value) -> list[str]:
    """One line per pair with a nonzero value(i, j) (0-based, sparse), in
    index order; an antisymmetric section lists i < j only."""
    return [
        f"{section.label.format(i + 1, j + 1)} = {_format_vector(v, section.prefix)}"
        for i in range(n)
        for j in range(i + 1 if section.antisymmetric else 0, n)
        if (v := value(i, j))
    ]


@dataclass
class AlgebraFile:
    name: str
    dim: int
    brackets: list[tuple[int, int, Vector]]
    products: list[tuple[int, int, Vector]] | None

    def to_lie(self) -> LieAlgebra:
        return lie_from_table(self.dim, self.brackets)

    def to_lr(self, validate: bool = True) -> LRAlgebra:
        if self.products is None:
            raise MissingSection(
                "the file has no product section, so there is no LR-structure"
            )
        return lr_from_table(self.to_lie(), self.products, validate=validate)


def parse_algebra_text(text: str) -> AlgebraFile:
    name: str | None = None
    dim: int | None = None
    brackets = _Table(_BRACKETS)
    products: _Table | None = None
    for line_no, body in _content_lines((text,)):
        stripped, word = body.strip(), _first_word(body)
        if word == "algebra":
            name = _name_line(body, line_no, word, name)
        elif word == "dim":
            dim = _size_line(body, line_no, word, dim, MAX_SYSTEM_DIM)
        elif stripped == "product":
            if products is not None:
                raise ParseError(line_no, 1, "duplicate product section")
            products = _Table(_PRODUCTS)
        elif m := (_BRACKETS.pattern.match(body) or _PRODUCTS.pattern.match(body)):
            if dim is None:
                raise ParseError(line_no, 1, "dim must come before entries")
            bracket = m.re is _BRACKETS.pattern
            if bracket and products is not None:
                raise ParseError(
                    line_no, 1, "bracket entries must precede the product section"
                )
            if not bracket and products is None:
                raise ParseError(line_no, 1, "product entries require a product section")
            (brackets if bracket else products).read(m, body, line_no, dim, dim)
        else:
            raise ParseError(line_no, 1, f"unrecognized line: {stripped!r}")
    if dim is None:
        raise ParseError(1, 1, "missing dim line")
    products = None if products is None else products.entries
    return AlgebraFile(name or "unnamed", dim, brackets.entries, products)


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def format_algebra(
    name: str,
    g: LieAlgebra,
    a: LRAlgebra | None = None,
) -> str:
    """Canonical text: brackets for i < j only, then the product section
    when an LR-structure is supplied, all in index order."""
    lines = [f"algebra {name}", f"dim {g.dim}"]
    lines += _entry_lines(_BRACKETS, g.dim, g.bracket_basis)
    if a is not None:
        lines.append("product")
        lines += _entry_lines(_PRODUCTS, g.dim, a.product_basis)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# polynomial system files


@cache
def _term_patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The walk's variable pattern x[i][j][k], and the canonical reader's
    coefficient p or p/q and factor x[i][j][k]^e in ASCII digits,
    compiled on the first system parse, so that importing lralg compiles
    none of them."""
    return (
        re.compile(r"x\[\s*(\d+)\s*\]\[\s*(\d+)\s*\]\[\s*(\d+)\s*\]"),
        re.compile(r"[0-9]+(?:/[0-9]+)?"),
        re.compile(r"x\[([0-9]+)\]\[([0-9]+)\]\[([0-9]+)\](?:\^([0-9]+))?"),
    )


_ONE = QQ(1)


def _parse_poly_line(
    body: str, line_no: int, dim: int, var_re: re.Pattern, cache: dict
) -> Polynomial:
    """Sum of terms [sign] (rational | factor) ([*] factor)..., read by
    the scanner of algebra and extension entries.  A factor is x[i][j][k]
    with indices in 1..dim and an optional positive exponent ^e.  cache
    maps each variable text read to its (variable, 1) pair, so that a
    text repeated over the file is checked once."""
    sc = _Scanner(body, line_no)

    def factor(exps: dict[int, int]):
        at = sc.pos
        m = var_re.match(body, at)
        if m is None:
            sc.fail("malformed variable, expected x[i][j][k]")
        pair = cache.get(m.group())
        if pair is None:
            i, j, k = (_number(m, g, line_no) for g in (1, 2, 3))
            for idx in (i, j, k):
                if not 1 <= idx <= dim:
                    sc.fail(f"variable index {idx} out of range 1..{dim}")
            pair = cache[m.group()] = (x_index(dim, i - 1, j - 1, k - 1), 1)
        sc.skip(m.end())
        exp = sc.integer() if sc.take("^") else 1
        if exp <= 0:
            sc.fail("exponent must be positive", at)
        v = pair[0]
        exps[v] = exps.get(v, 0) + exp

    terms: dict = {}
    first = True
    while not sc.done():
        neg = sc.take("-")
        if not (neg or sc.take("+") or first):
            sc.fail("expected '+' or '-' between terms")
        first = False
        coeff, exps = _ONE, {}
        if sc.peek() == "x":
            factor(exps)
        elif _DIGITS.match(body, sc.pos):
            coeff = sc.rational()
        else:
            sc.fail("expected a coefficient or a variable")
        while sc.take("*") or sc.peek() == "x":
            factor(exps)
        mono = tuple(sorted(exps.items()))
        val = -coeff if neg else coeff
        if mono in terms:
            val += terms[mono]
        if val:
            terms[mono] = val
        else:
            terms.pop(mono, None)
    return Polynomial.wrap(terms)


class _Unread(Exception):
    """A token of a line that the canonical reader leaves to the walk."""


def _head_value(head: str | tuple[str, str]) -> QQ:
    """The coefficient of a canonical term from its sign token alone or
    with its written coefficient: '-' is -1, ('+', '3/4') is 3/4.  The
    sign is checked to be '+' or '-' and the coefficient to be p or p/q,
    since QQ() reads more ('1e3', ' 3', '3_0').  A zero coefficient or
    denominator is left to the walk, which drops the term or reports
    the error."""
    sign, text = (head, "1") if isinstance(head, str) else head
    if sign not in ("+", "-") or _term_patterns()[1].fullmatch(text) is None:
        raise _Unread
    try:
        value = QQ(sign + text)
    except ZeroDivisionError:
        raise _Unread from None
    if not value:
        raise _Unread
    return value


def _read_factor(dim: int, text: str) -> tuple[int, int]:
    """The (variable, exponent) pair of a factor text, from the groups of
    the canonical factor pattern; _Unread when the text does not match
    it, an index is outside 1..dim or the exponent is zero."""
    m = _term_patterns()[2].fullmatch(text)
    if m is None:
        raise _Unread
    i, j, k, exp = (int(g or 1) for g in m.groups())
    if not (0 < i <= dim and 0 < j <= dim and 0 < k <= dim and exp > 0):
        raise _Unread
    return x_index(dim, i - 1, j - 1, k - 1), exp


def _read_canonical(body: str, factors: _Cache, heads: _Cache) -> Polynomial | None:
    """The polynomial of a line in the canonical spacing, with ' * ' or
    '*' between the parts of a term, read by splitting it into tokens
    that alternate sign and term; None when that is not its shape (an
    empty token, a sign with no term after it, more than two factors), a
    check fails, a number has more digits than int() converts, a
    variable repeats in a term or a monomial repeats in the line.  The
    walk then reads it, so the language and every error stay the walk's.
    Each distinct token is checked once, as it enters its cache: heads
    maps a sign, or a sign and written coefficient, to its value (a
    _Cache of _head_value), and factors a factor text to its pair (a
    _Cache of _read_factor)."""
    tokens = body.replace(" * ", "*").split(" ")
    first = tokens[0]
    tokens[:1] = ("-", first[1:]) if first[:1] == "-" else ("+", first)
    if "" in tokens:
        return None
    terms: dict = {}
    pairs = iter(tokens)
    try:
        for sign, term in zip(pairs, pairs):
            parts = term.split("*")
            if term[0] == "x":
                coeff = heads[sign]
            else:
                # only the first part may be a coefficient: a later
                # one fails the factor check
                coeff = heads[sign, parts.pop(0)]
                if not parts:
                    terms[MONO_ONE] = coeff
                    continue
            if len(parts) == 2:
                a, b = factors[parts[0]], factors[parts[1]]
                if a[0] == b[0]:
                    return None
                terms[(a, b) if a[0] < b[0] else (b, a)] = coeff
            elif len(parts) == 1:
                terms[(factors[parts[0]],)] = coeff
            else:
                return None
    except (_Unread, ValueError):
        return None
    return Polynomial.wrap(terms) if 2 * len(terms) == len(tokens) else None


@dataclass
class SystemFile:
    dim: int
    polys: list[Polynomial]

    def var_name(self, v: int) -> str:
        return x_name(self.dim, v)


def parse_system_text(text: str) -> SystemFile:
    return _parse_system_lines((text,))


@_gc_paused()
def _parse_system_lines(chunks: Iterable[str]) -> SystemFile:
    dim: int | None = None
    polys: list[Polynomial] = []
    # the walk keeps its variable texts apart: they may hold blanks and
    # non-ASCII digits, which the canonical reader checks for itself
    cache: dict = {}
    heads = _Cache(_head_value)
    var_re = _term_patterns()[0]
    for line_no, body in _content_lines(chunks):
        if _first_word(body) == "dim":
            dim = _size_line(body, line_no, "dim", dim, MAX_SYSTEM_DIM)
            factors = _Cache(partial(_read_factor, dim))
        elif dim is None:
            raise ParseError(line_no, 1, "dim must come before polynomials")
        else:
            p = _read_canonical(body, factors, heads)
            if p is None:
                p = _parse_poly_line(body, line_no, dim, var_re, cache)
            polys.append(p)
    if dim is None:
        raise ParseError(1, 1, "missing dim line")
    return SystemFile(dim, polys)


def parse_system_file(path) -> SystemFile:
    """Reads the file a line at a time, so neither its whole text nor a
    list of its lines is held beside the polynomials, with the cyclic
    collector paused.  A line in the canonical spacing is split into its
    tokens, each distinct token checked once over the file; any other
    line, and any line on which a check fails, is read by the scanner
    walk, which gives every error its line and column.  A file that
    fails is read again whole, so it fails as its text does: a decoding
    error anywhere in it comes before a parse error, at its byte
    offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse_system_lines(fh)
        except (ParseError, UnicodeDecodeError):
            fh.seek(0)
            return parse_system_text(fh.read())


def format_system(dim: int, polys: Sequence[Polynomial]) -> str:
    """The `dim` line, then one line per polynomial as
    Polynomial.to_string writes it with x[i][j][k] names.  Every line is
    in the canonical spacing that the parser reads fastest, and the text
    is joined once, final line break included."""
    line = line_writer(partial(x_name, dim))
    return "\n".join([f"dim {dim}", *map(line, polys), ""])


# ---------------------------------------------------------------------------
# extension data files


_PHI_RE = re.compile(r"^\s*phi\s+(\d+)\s*=\s*\[")


def _parse_matrix(sc: _Scanner, size: int) -> Matrix:
    """[a, b; c, d] with rational entries; must be size x size."""
    rows: list[list[QQ]] = [[]]
    while True:
        rows[-1].append(sc.rational())
        if sc.take(","):
            continue
        if sc.take(";"):
            rows.append([])
            continue
        close = sc.pos
        sc.expect("]")
        break
    if len(rows) != size or any(len(r) != size for r in rows):
        sc.fail(f"matrix must be {size}x{size}", close + 1)
    return Matrix(rows)


def parse_extension_text(text: str):
    """Returns (name, ExtensionData)."""
    name: str | None = None
    a_dim: int | None = None
    b_dim: int | None = None
    brackets = _Table(_BRACKETS)
    omegas = _Table(_OMEGA)
    phis: dict[int, Matrix] = {}
    for line_no, body in _content_lines((text,)):
        stripped, word = body.strip(), _first_word(body)
        if word == "extension":
            name = _name_line(body, line_no, word, name)
        elif word == "kernel":
            a_dim = _size_line(body, line_no, word, a_dim, MAX_SYSTEM_DIM)
        elif word == "base":
            b_dim = _size_line(body, line_no, word, b_dim, MAX_SYSTEM_DIM)
        elif m := _BRACKETS.pattern.match(body):
            if b_dim is None:
                raise ParseError(line_no, 1, "base size must come before brackets")
            brackets.read(m, body, line_no, b_dim, b_dim)
        elif m := _PHI_RE.match(body):
            if a_dim is None or b_dim is None:
                raise ParseError(
                    line_no, 1, "kernel and base sizes must come before phi"
                )
            i = _number(m, 1, line_no)
            if not (1 <= i <= b_dim):
                at = m.start(1) + 1
                raise ParseError(line_no, at, f"phi index out of range 1..{b_dim}")
            if i in phis:
                raise ParseError(line_no, 1, f"duplicate phi {i}")
            sc = _Scanner(body, line_no, m.end())
            phis[i] = _parse_matrix(sc, a_dim)
            if not sc.done():
                sc.fail("unexpected text after matrix")
        elif m := _OMEGA.pattern.match(body):
            if a_dim is None or b_dim is None:
                raise ParseError(
                    line_no, 1, "kernel and base sizes must come before omega"
                )
            omegas.read(m, body, line_no, b_dim, a_dim)
        else:
            raise ParseError(line_no, 1, f"unrecognized line: {stripped!r}")
    if a_dim is None:
        raise ParseError(1, 1, "missing kernel line")
    if b_dim is None:
        raise ParseError(1, 1, "missing base line")
    zero = (QQ(0),) * a_dim
    # with no omega line, None: ExtensionData's zero cochain, built without qq
    omega = [[zero] * b_dim for _ in range(b_dim)] if omegas.entries else None
    for i, j, v in omegas.entries:
        omega[i - 1][j - 1] = v
        omega[j - 1][i - 1] = tuple(-c for c in v)
    zero_phi = Matrix.zero(a_dim, a_dim)
    phi = tuple(phis.get(i, zero_phi) for i in range(1, b_dim + 1))
    b = lie_from_table(b_dim, brackets.entries)
    return name or "unnamed", ExtensionData(a_dim, b, phi, omega)


def parse_extension_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_extension_text(fh.read())


def format_extension(name: str, d: ExtensionData) -> str:
    m = d.b.dim
    lines = [f"extension {name}", f"kernel {d.a_dim}", f"base {m}"]
    lines += _entry_lines(_BRACKETS, m, d.b.bracket_basis)
    for i in range(m):
        if not d.phi[i].is_zero():
            rows = "; ".join(
                ", ".join(str(c) for c in row) for row in d.phi[i].entries
            )
            lines.append(f"phi {i + 1} = [{rows}]")
    lines += _entry_lines(_OMEGA, m, lambda i, j: _sparsify(d.omega[i][j]))
    return "\n".join(lines) + "\n"
