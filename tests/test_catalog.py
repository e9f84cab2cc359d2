"""The classification catalog: 28 families over four base algebras.

catalog_verify re-derives, for every family at every sampled parameter
point, the full axiom check plus the stated completeness flag, so these
tests mostly pin counts and error behavior around that machinery.
"""

from fractions import Fraction as QQ

import pytest

from lralg.catalog import (
    ParamOutOfDomain,
    UnknownName,
    catalog_entry,
    catalog_get,
    catalog_list,
    catalog_verify,
    counterexample_g13,
    lie_n3,
    lie_n3_plus_line,
    lie_n4,
    lie_r2,
    sample_params,
)
from lralg.lie import classify_solvability
from lralg.lr import is_complete, lemma_suite, verify_axioms

INCOMPLETE = {"r2/A1", "r2/A3", "n3/A4", "n4/A6"}


def test_base_algebra_brackets():
    assert lie_r2().bracket_basis(0, 1) == {0: QQ(1)}
    assert lie_n3().bracket_basis(0, 1) == {2: QQ(1)}
    n4 = lie_n4()
    assert n4.bracket_basis(0, 1) == {2: QQ(1)}
    assert n4.bracket_basis(0, 2) == {3: QQ(1)}
    n3r = lie_n3_plus_line()
    assert n3r.bracket_basis(0, 1) == {2: QQ(1)}
    assert all(n3r.bracket_basis(i, 3) == {} for i in range(3))


def test_catalog_has_28_families():
    keys = catalog_list()
    assert len(keys) == 28
    groups = {}
    for k in keys:
        groups.setdefault(k.split("/")[0], []).append(k)
    assert len(groups["r2"]) == 3
    assert len(groups["n3"]) == 4
    assert len(groups["n4"]) == 6
    assert len(groups["n3_r"]) == 15


def test_unknown_key_raises():
    with pytest.raises(UnknownName) as info:
        catalog_entry("n5/A1")
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "unknown catalog key 'n5/A1'"
    with pytest.raises(UnknownName):
        catalog_get("r2/A9")


def test_param_validation():
    with pytest.raises(ParamOutOfDomain):
        catalog_get("n3/A1")  # missing alpha
    with pytest.raises(ParamOutOfDomain):
        catalog_get("n3/A1", {"alpha": 1, "beta": 2})  # extra
    with pytest.raises(ParamOutOfDomain):
        catalog_get("r2/A1", {"alpha": 1})  # family takes no parameters
    with pytest.raises(ParamOutOfDomain):
        catalog_get("n4/A5", {"alpha": QQ(1, 2)})  # binary domain
    with pytest.raises(ParamOutOfDomain):
        catalog_get("n3_r/A7", {"alpha": 1})  # needs alpha <= 3/4
    with pytest.raises(ParamOutOfDomain):
        catalog_get("n3_r/A9", {"alpha": 0})  # needs alpha >= 1/2
    with pytest.raises(ParamOutOfDomain):
        catalog_get("n3_r/A15", {"alpha": QQ(1, 2)})  # needs alpha >= 1


def test_parameters_accept_boundary_values():
    assert verify_axioms(catalog_get("n3_r/A7", {"alpha": QQ(3, 4)})).ok
    assert verify_axioms(catalog_get("n3_r/A9", {"alpha": QQ(1, 2)})).ok
    assert verify_axioms(catalog_get("n3_r/A15", {"alpha": 1})).ok


def test_sample_params_counts():
    assert len(sample_params(catalog_entry("r2/A1"))) == 1
    assert len(sample_params(catalog_entry("n3/A1"))) == 5
    assert len(sample_params(catalog_entry("n4/A4"))) == 8  # 2^3 members
    assert len(sample_params(catalog_entry("n3_r/A3"))) == 10


def test_catalog_verify_all_green():
    result = catalog_verify()
    assert set(result) == set(catalog_list())
    total = 0
    for key, row in result.items():
        assert row["ok"], (key, row["failures"])
        assert not row["failures"]
        total += row["instances"]
    assert total == 86


def test_catalog_verify_subset():
    result = catalog_verify(["r2/A2", "n3/A3"])
    assert set(result) == {"r2/A2", "n3/A3"}


def test_completeness_flags_match_reality():
    for key in catalog_list():
        entry = catalog_entry(key)
        assert entry.complete == (key not in INCOMPLETE), key
        for params in sample_params(entry):
            inst = catalog_get(key, params)
            assert is_complete(inst) == entry.complete, (key, params)


def test_every_family_passes_the_lemma_suite_once():
    for key in catalog_list():
        entry = catalog_entry(key)
        params = sample_params(entry)[0]
        inst = catalog_get(key, params)
        assert lemma_suite(inst).ok, key


def test_distinct_families_have_distinct_tensors():
    """At default samples, no two families over the same base coincide."""
    by_base = {}
    for key in catalog_list():
        entry = catalog_entry(key)
        inst = catalog_get(key, sample_params(entry)[0])
        by_base.setdefault(key.split("/")[0], []).append((key, inst))
    for base, items in by_base.items():
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                k1, a1 = items[i]
                k2, a2 = items[j]
                assert a1.product_tensor() != a2.product_tensor(), (k1, k2)


def test_g13_structure():
    g = counterexample_g13()
    assert g.dim == 13
    rep = classify_solvability(g)
    assert rep.nilpotency_class == 3
    assert rep.is_two_step_solvable
