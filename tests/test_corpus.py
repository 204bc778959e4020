"""Built-in example registry: loading, running, exporting, broken variants."""

import json

import pytest

from hyperops.bundle import MAX_DIM, BundleError, parse_bundle
from hyperops.corpus import (
    broken_variant,
    broken_variants,
    export_bundle,
    list_examples,
    load_example,
    run_example,
)


def test_registry_is_deterministic_and_complete():
    ids = [eid for eid, _, _ in list_examples()]
    assert ids == [eid for eid, _, _ in list_examples()]
    assert len(ids) == len(set(ids)) == 8
    assert "lie.L4sym" in ids and "abelian.para" in ids


def test_every_example_runs_clean():
    for eid, _, _ in list_examples():
        rep = run_example(eid)
        assert rep.passed, (eid, rep.violations[:3])


def test_export_round_trips_through_parser():
    for eid, _, _ in list_examples():
        doc = export_bundle(eid)
        bundle = parse_bundle(doc)
        # exported copies are independent of the registry
        doc2 = export_bundle(eid)
        assert doc == doc2 and doc is not doc2
        assert json.dumps(doc, sort_keys=True, default=str)
        for name in doc.get("algebras", {}):
            bundle.algebra(name)


def test_load_example_pairs_entry_and_bundle():
    entry, bundle = load_example("prelie.rot4")
    assert entry.id == "prelie.rot4"
    assert bundle.form("B1") is not None


def test_unknown_example_id():
    with pytest.raises(KeyError):
        load_example("no.such.example")
    with pytest.raises(KeyError):
        broken_variant("no-such-variant")


def test_broken_variants_fail_for_documented_reasons():
    from hyperops.algebra import check_lie
    from hyperops.geometry import LIE_B, endo_triple_correspondence
    from hyperops.hyper import reconstruct_hyper
    from hyperops.linalg import Matrix
    from hyperops.operators import ALGEBRA, MODULE, LinMap
    from hyperops.reporting import PreconditionError

    names = set(broken_variants())
    assert names == {"non-jacobi", "non-anticommuting", "non-derivation"}

    b = parse_bundle(broken_variant("non-jacobi"))
    rep = check_lie(b.algebra("broken"))
    assert not rep.passed
    assert any(r.claim == "jacobi" and r.indices == (1, 2, 3) for r in rep.violations)

    b = parse_bundle(broken_variant("non-anticommuting"))
    ctx = b.context("triv")
    hflat = LinMap(Matrix.identity(4), ALGEBRA, MODULE)
    i1 = LinMap(b.map("i1").matrix, ALGEBRA, ALGEBRA)
    i2 = LinMap(b.map("i2").matrix, ALGEBRA, ALGEBRA)
    with pytest.raises(PreconditionError):
        reconstruct_hyper(ctx, hflat, i1, i2)

    b = parse_bundle(broken_variant("non-derivation"))
    with pytest.raises(PreconditionError) as exc:
        endo_triple_correspondence(b.algebra("g"), b.form("B"), b.map("d1"),
                                   b.map("d2"), b.map("d3"), LIE_B)
    assert all(r.indices for r in exc.value.report.violations)


def test_parse_rejects_malformed_documents():
    with pytest.raises(BundleError):
        parse_bundle({"field": "real"})
    doc = export_bundle("lie.L4sym")
    doc["forms"]["w1"]["terms"][0]["term"] = "garbage"
    with pytest.raises(BundleError):
        parse_bundle(doc)


@pytest.mark.parametrize("doc", [
    {"algebras": {"g": 5}},
    {"algebras": []},
    {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": 7}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": ["ijk"]}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2,
                        "constants": [{"i": 1.9, "j": 2.2, "k": True}]}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": [{"i": 1, "j": 2, "k": 1.0}]}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": [{"i": 1, "j": True, "k": 1}]}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": [{"i": "1", "j": 2, "k": 1}]}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": [{"i": 1, "j": 2}]}}},
    {"algebras": {"g": {"kind": "lie", "dim": True}}},
    {"algebras": {"g": {"kind": "lie", "dim": MAX_DIM + 1}}},
    {"algebras": {"g": {"kind": "lie", "dim": 1000000}}},
    {"maps": {"m": {"domain": "algebra", "codomain": "module", "matrix": [1, 2]}}},
    {"reps": {"r": {"algebra": ["g"], "constructor": "adjoint"}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2}},
     "forms": {"f": {"algebra": "g", "symmetry": "skew", "terms": 3}}},
    {"algebras": {"g": {"kind": "lie", "dim": 2}},
     "forms": {"f": {"algebra": "g", "symmetry": "skew", "terms": ["e1^*∧e2^*"]}}},
])
def test_parse_rejects_malformed_shapes(doc):
    with pytest.raises(BundleError):
        parse_bundle(doc)
