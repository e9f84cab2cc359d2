"""Verification reports are pinned whole.

Each verifier's report on broken input is hashed in full: ok, every
violation's check, place and residual in run order, and the counts.  A
change of bookkeeping, loop order or residual sign shows up here even
when ok alone would not move.  The inputs are catalog instances and two
constructed algebras with one product entry bumped, broken extension
data, and valid lifts with one field corrupted.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as QQ

import pytest

from lralg.catalog import (
    catalog_entry,
    catalog_get,
    catalog_list,
    lie_n3,
    lie_n4,
    lie_r2,
    sample_params,
)
from lralg.constructions import free3_lr, free4_two_gen_lr
from lralg.extensions import (
    ExtensionData,
    LiftData,
    random_abelian_extension,
    validate_extension,
    verify_lift_conditions,
)
from lralg.lie import abelian_lie
from lralg.linalg import Matrix
from lralg.lr import LRError, lemma_suite, lr_from_table, verify_axioms


def report_text(report) -> str:
    violations = [(v.check, v.where, v.residual) for v in report.violations]
    return repr((report.ok, violations, sorted(report.counts.items()))) + "\n"


def perturbed_tables():
    """(Lie algebra, 1-based entries) of every catalog sample instance,
    free3_lr(3), free4_two_gen_lr and a 1-dimensional algebra, where no
    basis tuple is checked, each with one entry bumped by 1."""
    algebras = [
        catalog_get(key, params)
        for key in catalog_list()
        for params in sample_params(catalog_entry(key))
    ]
    algebras += [free3_lr(3), free4_two_gen_lr(), lr_from_table(abelian_lie(1), [])]
    for seed, a in enumerate(algebras):
        rng = random.Random(seed)
        n = a.dim
        bump = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        tensor = a.product_tensor()
        entries = []
        for i in range(n):
            for j in range(n):
                vals = list(tensor[i][j])
                if (i, j) == bump[:2]:
                    vals[bump[2]] += 1
                entries.append((i + 1, j + 1, tuple(vals)))
        yield a.g, entries


def reports_verify_axioms():
    for g, entries in perturbed_tables():
        yield report_text(verify_axioms(lr_from_table(g, entries, validate=False)))


def reports_lemma_suite():
    for g, entries in perturbed_tables():
        yield report_text(lemma_suite(lr_from_table(g, entries, validate=False)))


def reports_lr_from_table():
    for g, entries in perturbed_tables():
        try:
            lr_from_table(g, entries)
        except LRError as exc:
            yield f"{type(exc).__name__}: {exc}\n"
        else:
            yield "valid\n"


def _random_matrix(rng, p):
    return Matrix([[rng.randint(-1, 1) for _ in range(p)] for _ in range(p)])


def broken_extensions():
    z1, i1 = Matrix.zero(1, 1), Matrix.identity(1)
    zeros2 = tuple(tuple((QQ(0), QQ(0)) for _ in range(2)) for _ in range(2))
    yield ExtensionData(
        2, abelian_lie(2), (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])), zeros2
    )
    yield ExtensionData(
        1, abelian_lie(2), (z1, z1), (((QQ(1),), (QQ(0),)), ((QQ(0),), (QQ(0),)))
    )
    cocycle = tuple(
        tuple((QQ(s),) for s in row) for row in ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
    )
    yield ExtensionData(1, abelian_lie(3), (z1, i1, z1), cocycle)
    yield ExtensionData(1, abelian_lie(1), (i1,), (((QQ(1),),),))
    bases = (lie_r2, lie_n3, lie_n4, lambda: abelian_lie(3))
    for seed in range(16):
        rng = random.Random(seed)
        b = bases[seed % len(bases)]()
        p, m = rng.randint(1, 2), b.dim
        phi = tuple(_random_matrix(rng, p) for _ in range(m))
        raw = [[[rng.randint(-1, 1) for _ in range(p)] for _ in range(m)] for _ in range(m)]
        skew = seed % 2 == 0
        omega = tuple(
            tuple(
                tuple(QQ(x - y if skew else x) for x, y in zip(raw[i][j], raw[j][i]))
                for j in range(m)
            )
            for i in range(m)
        )
        yield ExtensionData(p, b, phi, omega)


def reports_validate_extension():
    for d in broken_extensions():
        yield report_text(validate_extension(d))


def _bumped_table(rng, table, length):
    rows = [list(row) for row in table]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    k = rng.randrange(length)
    rows[i][j] = tuple(x + (t == k) for t, x in enumerate(rows[i][j]))
    return tuple(map(tuple, rows))


def _bumped_phi(rng, phis):
    return tuple(mat + _random_matrix(rng, mat.rows) for mat in phis)


def reports_verify_lift_conditions():
    """Valid invertible-generator lifts, then each LiftData field
    corrupted alone, then all of them together."""
    for seed in range(12):
        rng = random.Random(seed)
        d, e = random_abelian_extension(rng, rng.randint(1, 3), rng.randint(2, 3))
        p, m = d.a_dim, d.b.dim
        phie_inv = d.phi_of(e).inverse()
        w = [d.omega_of(e, tuple(QQ(t == j) for t in range(m))) for j in range(m)]
        omega = [[phie_inv.apply(d.phi[i].apply(w[j])) for j in range(m)] for i in range(m)]
        l = LiftData.build(d, phi2=d.phi, omega=omega)
        yield report_text(verify_lift_conditions(d, l))
        fields = {
            "phi1": _bumped_phi(rng, l.phi1),
            "phi2": _bumped_phi(rng, l.phi2),
            "omega": _bumped_table(rng, l.omega, p),
            "a_product": _bumped_table(rng, l.a_product, p),
            "b_product": _bumped_table(rng, l.b_product, m),
        }
        for name, value in fields.items():
            yield report_text(verify_lift_conditions(d, replace(l, **{name: value})))
        yield report_text(verify_lift_conditions(d, replace(l, **fields)))


# sha256 of the concatenated report texts (or raised exceptions),
# computed before the verifiers shared one check recorder.
REPORT_SHA256 = {
    "verify_axioms": (
        reports_verify_axioms,
        "b901612251d565762b5ac845f1fdb9a166bb707708319b30c9edf2d249426eac",
    ),
    "lemma_suite": (
        reports_lemma_suite,
        "a30ef8754fcc1352138e31b8aec504c8952accd25b93c015372a8f30b94650c8",
    ),
    "lr_from_table": (
        reports_lr_from_table,
        "b27738cfdb41813d2c47c2e9a3484b4c76e3e3c25564c1fe7aaffa53e519a8f5",
    ),
    "validate_extension": (
        reports_validate_extension,
        "989899870bde8f980927d7c35941d4b536d7bb65436e33d7d606496742a4b78a",
    ),
    "verify_lift_conditions": (
        reports_verify_lift_conditions,
        "be923d76f1996943bd5c581ec5537985499a4ff7fd9ad1df029103620939edd6",
    ),
}


@pytest.mark.parametrize("verifier", sorted(REPORT_SHA256))
def test_verification_reports_are_pinned(verifier):
    reports, digest = REPORT_SHA256[verifier]
    text = "".join(reports())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
