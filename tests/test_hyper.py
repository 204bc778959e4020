"""Triple classification, identity suites, and decomposition/reconstruction."""

import pytest

from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import export_bundle
from hyperops.hyper import (
    ClassificationError,
    classify_hyper,
    decompose_hyper,
    derived_structures_report,
    product_one_suite,
    reconstruct_hyper,
    verify_composition_table,
    verify_hflat_identities,
)
from hyperops.linalg import Matrix
from hyperops.operators import ALGEBRA, MODULE, LinMap
from hyperops.reporting import PreconditionError

TRIPLED = {
    "lie.L4sym": ("omega", (1, 1, -1)),
    "prelie.rot4": ("B", (-1, -1, 1)),
    "abelian.quat": ("quat", (-1, -1, -1)),
    "abelian.para": ("para", (1, 1, 1)),
}


def _triples():
    for name, (tname, eps) in TRIPLED.items():
        b = parse_bundle(export_bundle(name))
        yield name, classify_triple(b, tname), eps


def test_classification_signatures():
    for name, t, eps in _triples():
        assert t.eps == eps, name
        assert t.eps_product == eps[0] * eps[1] * eps[2]


def test_signature_is_computed_not_supplied():
    # scaling one operator by 2 breaks the square condition and classification fails
    b = parse_bundle(export_bundle("abelian.quat"))
    rho = b.rep("triv")
    with pytest.raises(ClassificationError):
        classify_hyper(rho, b.map("mi").scale(2), b.map("mj"), b.map("mk"))


def test_noninvertible_rejected():
    b = parse_bundle(export_bundle("abelian.quat"))
    rho = b.rep("triv")
    z = LinMap(Matrix.zero(4, 4), ALGEBRA, MODULE)
    with pytest.raises(ClassificationError) as exc:
        classify_hyper(rho, z, b.map("mj"), b.map("mk"))
    assert "d1" in str(exc.value)


def test_hflat_identities_all_triples():
    for name, t, _ in _triples():
        rep = verify_hflat_identities(t)
        assert rep.passed, f"{name}: {rep.violations[:3]}"


def test_composition_table_all_triples():
    for name, t, _ in _triples():
        rep = verify_composition_table(t)
        assert rep.passed, f"{name}: {rep.violations[:3]}"


def test_derived_structures_all_triples():
    for name, t, _ in _triples():
        rep = derived_structures_report(t)
        assert rep.passed, f"{name}: {rep.violations[:3]}"


def test_product_one_suite_on_plus_one_triples():
    for name, t, _ in _triples():
        if t.eps_product == 1:
            rep = product_one_suite(t)
            assert rep.passed, f"{name}: {rep.violations[:3]}"
        else:
            with pytest.raises(PreconditionError):
                product_one_suite(t)


def test_k_maps_are_o_operators_in_plus_one_regime():
    from hyperops.operators import is_o_operator
    for name, t, _ in _triples():
        if t.eps_product == 1:
            for i in range(3):
                assert is_o_operator(t.rho, t.k(i)).passed


def test_decompose_reconstruct_round_trip():
    for name, t, _ in _triples():
        if t.eps_product != -1:
            continue
        dec = decompose_hyper(t)
        # defining property: d_i = hflat ∘ I_i
        for idx, ii in enumerate((dec.i1, dec.i2, dec.i3)):
            assert dec.hflat.compose(ii).matrix == t.d[dec.permutation[idx]].matrix
        rebuilt = reconstruct_hyper(t.rho, dec.hflat, dec.i1, dec.i2)
        for k in range(3):
            assert rebuilt.d[k].matrix == t.d[dec.permutation[k]].matrix
        assert rebuilt.eps == tuple(t.eps[p] for p in dec.permutation)


def test_decompose_requires_minus_one_product():
    for name, t, _ in _triples():
        if t.eps_product == 1:
            with pytest.raises(PreconditionError):
                decompose_hyper(t)


def test_para_input_is_cyclically_renumbered():
    # feed the L4sym triple in the order (w2, w3, w1): eps (1,-1,1) -> shifted to (1,1,-1)
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_triple(b, "omega")
    perm_in = classify_hyper(t.rho, t.d[1], t.d[2], t.d[0])
    assert perm_in.eps != (1, 1, -1) and perm_in.eps_product == -1
    dec = decompose_hyper(perm_in)
    assert dec.permutation != (0, 1, 2)
    normalized = tuple(perm_in.eps[p] for p in dec.permutation)
    assert normalized == (1, 1, -1)
    for idx, ii in enumerate((dec.i1, dec.i2, dec.i3)):
        assert dec.hflat.compose(ii).matrix == perm_in.d[dec.permutation[idx]].matrix


def test_reconstruct_rejects_non_anticommuting():
    b = parse_bundle(export_bundle("abelian.quat"))
    rho = b.rep("triv")
    mi = LinMap(b.map("mi").matrix, ALGEBRA, ALGEBRA)
    hflat = LinMap(Matrix.identity(4), ALGEBRA, MODULE)
    with pytest.raises(PreconditionError) as exc:
        reconstruct_hyper(rho, hflat, mi, mi)
    failing = [r.claim for r in exc.value.report.violations]
    assert "I1∘I2=-I2∘I1" in failing


def test_reconstruct_rejects_singular_hflat():
    b = parse_bundle(export_bundle("abelian.quat"))
    rho = b.rep("triv")
    mi = LinMap(b.map("mi").matrix, ALGEBRA, ALGEBRA)
    mj = LinMap(b.map("mj").matrix, ALGEBRA, ALGEBRA)
    hflat = LinMap(Matrix.zero(4, 4), ALGEBRA, MODULE)
    with pytest.raises(PreconditionError):
        reconstruct_hyper(rho, hflat, mi, mj)


def test_reports_are_byte_stable():
    import json
    for _ in range(2):
        runs = []
        for name, t, _ in _triples():
            runs.append(json.dumps(verify_composition_table(t).to_json(), sort_keys=True))
    again = []
    for name, t, _ in _triples():
        again.append(json.dumps(verify_composition_table(t).to_json(), sort_keys=True))
    assert runs == again
