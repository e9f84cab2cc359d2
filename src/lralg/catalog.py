"""Catalog of LR-structures on low-dimensional solvable Lie algebras.

Four base algebras are covered: the nonabelian two-dimensional algebra
(r2), the Heisenberg algebra (n3), the standard filiform algebra of
dimension four (n4), and the Heisenberg algebra with a central line
added (n3_r).  For each one the catalog stores the complete list of
LR-structure families up to the natural equivalence, with their exact
parameter domains and a completeness flag.

The catalog also carries a thirteen-dimensional two-step solvable
nilpotent Lie algebra that admits no LR-structure at all; it is the
standard stress input for the constraint-system tools.

Entry names look like "n4/A3".  Families with parameters are built at
specific rational parameter values through catalog_get; each family
carries a small sample set of in-domain values used by catalog_verify
and the randomized tests.
"""

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .linalg import QQ, qq
from .lie import LieAlgebra, lie_from_table
from .lr import LRAlgebra, lr_from_table


class UnknownName(KeyError):
    def __str__(self):
        # KeyError's own str() is the quoted key alone
        return f"unknown catalog key {self.args[0]!r}"


class ParamOutOfDomain(ValueError):
    pass


def lie_r2() -> LieAlgebra:
    """Two-dimensional algebra with [e1, e2] = e1."""
    return lie_from_table(2, [(1, 2, (1, 0))])


def lie_n3() -> LieAlgebra:
    """Heisenberg algebra: [e1, e2] = e3."""
    return lie_from_table(3, [(1, 2, (0, 0, 1))])


def lie_n4() -> LieAlgebra:
    """Standard filiform algebra of dimension 4: [e1, e2] = e3, [e1, e3] = e4."""
    return lie_from_table(4, [(1, 2, (0, 0, 1, 0)), (1, 3, (0, 0, 0, 1))])


def lie_n3_plus_line() -> LieAlgebra:
    """Heisenberg algebra plus a central line: [e1, e2] = e3, e4 central."""
    return lie_from_table(4, [(1, 2, (0, 0, 1, 0))])


def _any_rational(v: QQ) -> bool:
    return True


def _binary(v: QQ) -> bool:
    return v == 0 or v == 1


@dataclass(frozen=True)
class Param:
    name: str
    domain: str
    check: Callable[[QQ], bool]
    samples: tuple[QQ, ...]


_REAL_SAMPLES = (QQ(-2), QQ(-1, 2), QQ(0), QQ(1, 2), QQ(3))

REAL = lambda name: Param(name, "any rational", _any_rational, _REAL_SAMPLES)
BINARY = lambda name: Param(name, "0 or 1", _binary, (QQ(0), QQ(1)))


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    base: Callable[[], LieAlgebra]
    params: tuple[Param, ...]
    complete: bool
    entries: Callable[..., list]


def _r2_a1():
    return [(1, 1, (1, 0)), (2, 1, (-1, 0))]


def _r2_a2():
    return [(1, 2, (1, 0))]


def _r2_a3():
    return [(2, 1, (-1, 0))]


def _n3_a1(alpha):
    return [
        (1, 1, (0, 0, 1)),
        (1, 2, (0, 0, 1)),
        (2, 2, (0, 0, alpha)),
    ]


def _n3_a2(beta):
    return [
        (1, 2, (0, 0, beta)),
        (2, 1, (0, 0, beta - 1)),
        (2, 2, (1, 0, 0)),
    ]


def _n3_a3():
    return [
        (1, 2, (0, 0, QQ(1, 2))),
        (2, 1, (0, 0, QQ(-1, 2))),
    ]


def _n3_a4():
    return [
        (2, 1, (0, 0, -1)),
        (2, 2, (0, 1, 0)),
        (2, 3, (0, 0, 1)),
        (3, 2, (0, 0, 1)),
    ]


def _n4_a1(alpha):
    return [
        (1, 1, (0, alpha * (alpha - 1), 0, 0)),
        (1, 2, (0, 0, alpha, 0)),
        (1, 3, (0, 0, 0, alpha)),
        (2, 1, (0, 0, alpha - 1, 0)),
        (2, 2, (0, 0, 0, 1)),
        (3, 1, (0, 0, 0, alpha - 1)),
    ]


def _n4_a2():
    return [
        (1, 1, (0, 0, 1, 0)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, 0, 1)),
        (3, 1, (0, 0, 0, -1)),
    ]


def _n4_a3():
    return [
        (1, 1, (0, 0, 1, 0)),
        (1, 2, (0, 0, 1, 0)),
        (1, 3, (0, 0, 0, 1)),
        (2, 2, (0, 0, 0, 1)),
    ]


def _n4_a4(alpha, beta, gamma):
    return [
        (1, 1, (0, alpha, 0, 0)),
        (1, 2, (0, 0, beta, gamma)),
        (1, 3, (0, 0, 0, beta)),
        (2, 1, (0, 0, beta - 1, gamma)),
        (3, 1, (0, 0, 0, beta - 1)),
    ]


def _n4_a5(alpha):
    return [
        (1, 1, (0, 0, 0, alpha)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, 1, 0)),
        (2, 3, (0, 0, 0, 1)),
        (3, 1, (0, 0, 0, -1)),
        (3, 2, (0, 0, 0, 1)),
    ]


def _n4_a6():
    return [
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 1, 0, 0)),
        (2, 3, (0, 0, 1, 0)),
        (2, 4, (0, 0, 0, 1)),
        (3, 1, (0, 0, 0, -1)),
        (3, 2, (0, 0, 1, 0)),
        (3, 3, (0, 0, 0, 1)),
        (4, 2, (0, 0, 0, 1)),
    ]


def _n3r_a1(alpha):
    return [
        (1, 2, (0, 0, alpha, 0)),
        (2, 1, (0, 0, alpha - 1, 0)),
        (2, 2, (1, 0, 0, 0)),
        (4, 4, (0, 0, 1, 0)),
    ]


def _n3r_a2(alpha):
    return [
        (1, 1, (0, 0, alpha, 0)),
        (1, 2, (0, 0, 0, 1)),
        (2, 1, (0, 0, -1, 1)),
        (2, 2, (1, 0, 0, 0)),
        (2, 4, (0, 0, alpha, 0)),
        (4, 2, (0, 0, alpha, 0)),
    ]


def _n3r_a3(alpha, beta):
    return [
        (1, 2, (0, 0, alpha, 0)),
        (2, 1, (0, 0, alpha - 1, 0)),
        (2, 2, (1, 0, 0, 0)),
        (2, 4, (0, 0, beta, 0)),
        (4, 2, (0, 0, beta, 0)),
    ]


def _n3r_a4(alpha):
    return [
        (1, 1, (0, 0, 0, 1)),
        (1, 4, (0, 0, 1, 0)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, alpha, 0)),
        (4, 1, (0, 0, 1, 0)),
    ]


def _n3r_a5(alpha):
    return [
        (1, 4, (0, 0, 1, 0)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, alpha, 0)),
        (4, 1, (0, 0, 1, 0)),
    ]


def _n3r_a6(alpha):
    return [
        (1, 1, (0, 0, alpha, 0)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, 1, 0)),
        (4, 4, (0, 0, 1, 0)),
    ]


def _n3r_a7(alpha):
    return [
        (1, 1, (0, 0, alpha, 0)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, -1, 0)),
        (4, 4, (0, 0, 1, 0)),
    ]


def _n3r_a8():
    return [
        (1, 2, (0, 0, QQ(1, 2), 0)),
        (2, 1, (0, 0, QQ(-1, 2), 0)),
        (4, 4, (0, 0, 1, 0)),
    ]


def _n3r_a9(alpha):
    return [
        (1, 1, (0, 0, 0, 1)),
        (1, 2, (0, 0, alpha, 0)),
        (2, 1, (0, 0, alpha - 1, 0)),
        (2, 2, (0, 0, 0, 1)),
    ]


def _n3r_a10(alpha):
    return [
        (1, 1, (0, 0, 0, 1)),
        (1, 2, (0, 0, alpha, 0)),
        (2, 1, (0, 0, alpha - 1, 0)),
        (2, 2, (0, 0, 0, -1)),
    ]


def _n3r_a11(alpha):
    return [
        (1, 1, (0, 0, 0, 1)),
        (1, 2, (0, 0, alpha, 0)),
        (2, 1, (0, 0, alpha - 1, 0)),
    ]


def _n3r_a12():
    return [
        (1, 1, (0, 0, 0, 1)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, 1, 0)),
    ]


def _n3r_a13(alpha):
    return [
        (1, 1, (0, 0, 1, 0)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, alpha, 0)),
    ]


def _n3r_a14():
    return [
        (1, 2, (0, 0, QQ(1, 2), 0)),
        (2, 1, (0, 0, QQ(-1, 2), 0)),
    ]


def _n3r_a15(alpha):
    return [
        (1, 1, (0, 0, 0, 1)),
        (2, 1, (0, 0, -1, 0)),
        (2, 2, (0, 0, alpha, -1)),
    ]


_AT_MOST_3_4 = Param(
    "alpha",
    "alpha <= 3/4",
    lambda v: v <= QQ(3, 4),
    (QQ(-2), QQ(-1, 2), QQ(0), QQ(1, 2), QQ(3, 4)),
)
_AT_LEAST_1_2 = Param(
    "alpha",
    "alpha >= 1/2",
    lambda v: v >= QQ(1, 2),
    (QQ(1, 2), QQ(1), QQ(3)),
)
_AT_LEAST_1 = Param(
    "alpha",
    "alpha >= 1",
    lambda v: v >= QQ(1),
    (QQ(1), QQ(2), QQ(3)),
)


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(key, base, params, complete, entries):
    _ENTRIES[key] = CatalogEntry(key, base, tuple(params), complete, entries)


_register("r2/A1", lie_r2, (), False, _r2_a1)
_register("r2/A2", lie_r2, (), True, _r2_a2)
_register("r2/A3", lie_r2, (), False, _r2_a3)

_register("n3/A1", lie_n3, (REAL("alpha"),), True, _n3_a1)
_register("n3/A2", lie_n3, (REAL("beta"),), True, _n3_a2)
_register("n3/A3", lie_n3, (), True, _n3_a3)
_register("n3/A4", lie_n3, (), False, _n3_a4)

_register("n4/A1", lie_n4, (REAL("alpha"),), True, _n4_a1)
_register("n4/A2", lie_n4, (), True, _n4_a2)
_register("n4/A3", lie_n4, (), True, _n4_a3)
_register(
    "n4/A4",
    lie_n4,
    (BINARY("alpha"), BINARY("beta"), BINARY("gamma")),
    True,
    _n4_a4,
)
_register("n4/A5", lie_n4, (BINARY("alpha"),), True, _n4_a5)
_register("n4/A6", lie_n4, (), False, _n4_a6)

_register("n3_r/A1", lie_n3_plus_line, (REAL("alpha"),), True, _n3r_a1)
_register("n3_r/A2", lie_n3_plus_line, (BINARY("alpha"),), True, _n3r_a2)
_register(
    "n3_r/A3", lie_n3_plus_line, (REAL("alpha"), BINARY("beta")), True, _n3r_a3
)
_register("n3_r/A4", lie_n3_plus_line, (BINARY("alpha"),), True, _n3r_a4)
_register("n3_r/A5", lie_n3_plus_line, (BINARY("alpha"),), True, _n3r_a5)
_register("n3_r/A6", lie_n3_plus_line, (REAL("alpha"),), True, _n3r_a6)
_register("n3_r/A7", lie_n3_plus_line, (_AT_MOST_3_4,), True, _n3r_a7)
_register("n3_r/A8", lie_n3_plus_line, (), True, _n3r_a8)
_register("n3_r/A9", lie_n3_plus_line, (_AT_LEAST_1_2,), True, _n3r_a9)
_register("n3_r/A10", lie_n3_plus_line, (_AT_LEAST_1_2,), True, _n3r_a10)
_register("n3_r/A11", lie_n3_plus_line, (REAL("alpha"),), True, _n3r_a11)
_register("n3_r/A12", lie_n3_plus_line, (), True, _n3r_a12)
_register("n3_r/A13", lie_n3_plus_line, (REAL("alpha"),), True, _n3r_a13)
_register("n3_r/A14", lie_n3_plus_line, (), True, _n3r_a14)
_register("n3_r/A15", lie_n3_plus_line, (_AT_LEAST_1,), True, _n3r_a15)


def catalog_list() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def catalog_entry(key: str) -> CatalogEntry:
    try:
        return _ENTRIES[key]
    except KeyError:
        raise UnknownName(key) from None


def catalog_get(key: str, params: Mapping[str, object] | None = None) -> LRAlgebra:
    """Instantiate a catalog family at exact parameter values.

    Raises UnknownName for a missing key; ParamOutOfDomain when a required
    parameter is missing, an unexpected one is supplied, or a value falls
    outside the family's stated domain.
    """
    entry = catalog_entry(key)
    supplied = dict(params or {})
    values = []
    for p in entry.params:
        if p.name not in supplied:
            raise ParamOutOfDomain(f"{key}: missing parameter {p.name!r}")
        v = qq(supplied.pop(p.name))
        if not p.check(v):
            raise ParamOutOfDomain(
                f"{key}: parameter {p.name} = {v} outside domain ({p.domain})"
            )
        values.append(v)
    if supplied:
        extra = ", ".join(sorted(supplied))
        raise ParamOutOfDomain(f"{key}: unexpected parameter(s) {extra}")
    return lr_from_table(entry.base(), entry.entries(*values))


def sample_params(entry: CatalogEntry) -> list[dict[str, QQ]]:
    """All combinations of the per-parameter sample values."""
    combos: list[dict[str, QQ]] = [{}]
    for p in entry.params:
        combos = [dict(c, **{p.name: v}) for c in combos for v in p.samples]
    return combos


def expand_keys(keys: Sequence[str]) -> tuple[str, ...]:
    """Resolve each token to full family keys: an exact key matches itself,
    a group prefix such as "r2" matches every family under it.  Unmatched
    tokens raise UnknownName.  Order follows the catalog listing."""
    all_keys = catalog_list()
    chosen: list[str] = []
    for token in keys:
        matches = [k for k in all_keys if k == token or k.startswith(token + "/")]
        if not matches:
            raise UnknownName(token)
        for k in matches:
            if k not in chosen:
                chosen.append(k)
    return tuple(sorted(chosen, key=all_keys.index))


def catalog_verify(keys: Sequence[str] | None = None) -> dict[str, dict]:
    """Instantiate every listed family at all sample parameter values and
    check the axioms plus the recorded completeness flag.

    Keys may be full family names or group prefixes; omitted means all.
    Returns per-key dicts {"instances": int, "ok": bool, "failures": [...]}.
    The axioms themselves are enforced by the validating constructor; a
    failure entry records the parameter point and the reason.
    """
    out: dict[str, dict] = {}
    for key in expand_keys(keys) if keys is not None else catalog_list():
        entry = catalog_entry(key)
        failures = []
        count = 0
        for params in sample_params(entry):
            count += 1
            try:
                a = catalog_get(key, params)
            except Exception as exc:  # validating constructor failed
                failures.append((params, f"build failed: {exc}"))
                continue
            if a.complete != entry.complete:
                failures.append(
                    (params, f"completeness {a.complete}, recorded {entry.complete}")
                )
        out[key] = {"instances": count, "ok": not failures, "failures": failures}
    return out


def counterexample_g13() -> LieAlgebra:
    """Thirteen-dimensional two-step solvable nilpotent Lie algebra that
    admits no LR-structure."""
    z = [0] * 13

    def u(k, c=1):
        v = list(z)
        v[k - 1] = c
        return v

    def u2(k1, k2):
        v = list(z)
        v[k1 - 1] = 1
        v[k2 - 1] = 1
        return v

    return lie_from_table(
        13,
        [
            (1, 2, u(5)),
            (1, 4, u(6)),
            (1, 6, u(10)),
            (1, 7, u(11)),
            (1, 8, u(12)),
            (2, 3, u(7)),
            (2, 4, u(8)),
            (2, 5, u(13)),
            (2, 7, u(13)),
            (3, 4, u(5, -1)),
            (3, 5, u(11, -1)),
            (3, 8, u(9)),
            (4, 5, u(12, -1)),
            (4, 6, u(9)),
            (4, 7, u2(9, 13)),
        ],
    )
