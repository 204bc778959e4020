"""Claim sequences pinned as (claim, indices, pass, counterexample), one report
per recording style: per basis tuple, two claims interleaved per tuple,
failures only followed by a summary claim, and first failure only.  Indices
and counterexamples are 1-indexed basis tuples."""

import dataclasses

import pytest

from hyperops import hyper
from hyperops.algebra import LieAlgebra, check_lie, coadjoint_rep
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import broken_variant, export_bundle
from hyperops.geometry import SYMMETRIC, BilForm, form_to_map, is_invariant_form
from hyperops.linalg import Matrix
from hyperops.operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    brackets_coincide,
    is_kn,
    is_rdo,
    memo_scope,
)
from hyperops.reporting import ClaimResult, PreconditionError, Report


def _claims(rep):
    return [(r.claim, r.indices, r.passed, r.counterexample) for r in rep.results]


def _l4sym_triple():
    return classify_triple(parse_bundle(export_bundle("lie.L4sym")), "omega")


def test_per_tuple_rdo():
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    rows = [list(r) for r in (form_to_map(b.form("w1")).matrix.row(i) for i in range(4))]
    rows[3][3] = rows[3][3] + 1
    d = LinMap(Matrix.from_rows(rows), ALGEBRA, MODULE)
    assert _claims(is_rdo(coadjoint_rep(g), d)) == [
        ("rdo", (1, 2), True, None),
        ("rdo", (1, 3), True, None),
        ("rdo", (1, 4), False, (1, 4)),
        ("rdo", (2, 3), True, None),
        ("rdo", (2, 4), True, None),
        ("rdo", (3, 4), True, None),
    ]


_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_interleaved_bracket_claims_through_kn():
    t = _l4sym_triple()
    brackets = []
    for p in _PAIRS:
        brackets += [("bracket-NoT-vs-S-deformed", p, True, None),
                     ("bracket-NoT-vs-varrho", p, True, None)]
    assert _claims(is_kn(t.rho, t.t[0], t.s[1], t.n[1])) == (
        [("N∘T=T∘S", (), True, None)] + brackets
        + [("T O-operator on deformed algebra", (), True, None),
           ("N∘T O-operator", (), True, None)])


def test_interleaved_bracket_claims_on_failure():
    # N_1∘T = T∘S_1 holds for this T, but T is no O-operator
    t = _l4sym_triple()
    bad_t = LinMap(Matrix.from_rows([[1, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 0]]),
                   MODULE, ALGEBRA)
    expected = []
    for p in _PAIRS:
        ok = p == (1, 3)
        expected += [("bracket-NoT-vs-S-deformed", p, ok, None if ok else p),
                     ("bracket-NoT-vs-varrho", p, ok, None if ok else p)]
    assert _claims(brackets_coincide(t.rho, bad_t, t.s[0], t.n[0])) == expected


def test_failures_then_summary():
    broken = parse_bundle(broken_variant("non-jacobi")).algebra("broken")
    assert _claims(check_lie(broken)) == [("jacobi", (1, 2, 3), False, (1, 2, 3))]
    sl2 = LieAlgebra.from_constants(3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)])
    assert _claims(check_lie(sl2)) == [("lie-axioms", (), True, None)]
    bad = BilForm(Matrix.from_rows([[2, 0, 0], [0, 1, 1], [0, 1, 0]]), SYMMETRIC)
    assert _claims(is_invariant_form(sl2, bad)) == [
        ("nondegenerate", (), True, None),
        ("ad-invariance", (1, 2, 2), False, (1, 2, 2)),
        ("ad-invariance", (2, 1, 2), False, (2, 1, 2)),
        ("ad-invariance", (2, 2, 1), False, (2, 2, 1)),
        ("conjugation identity (cross-check)", (), False, None),
        ("routes agree", (), True, None),
    ]
    good = BilForm(Matrix.from_rows([[2, 0, 0], [0, 0, 1], [0, 1, 0]]), SYMMETRIC)
    assert _claims(is_invariant_form(sl2, good)) == [
        ("nondegenerate", (), True, None),
        ("ad-invariance", (), True, None),
        ("conjugation identity (cross-check)", (), True, None),
        ("routes agree", (), True, None),
    ]


def test_first_failure_key_identity(monkeypatch):
    # a perturbed S_1 breaks the key identity; the operator predicates around
    # it are stubbed out so that only the key identity is exercised
    t = classify_triple(parse_bundle(export_bundle("prelie.rot4")), "B")
    for name in ("is_dn", "is_kd", "is_kn", "are_compatible", "is_rdo"):
        monkeypatch.setattr(hyper, name, lambda *args: Report())
    s1 = LinMap(Matrix.from_rows([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                MODULE, MODULE)
    rep = hyper.product_one_suite(dataclasses.replace(t, s=(s1,) + t.s[1:]))
    assert [c for c in _claims(rep) if c[0] == "key identity"] == [
        ("key identity", (1,), False, (1, 4)),
        ("key identity", (2,), True, None),
        ("key identity", (3,), True, None),
    ]
    assert [c for c in _claims(hyper.product_one_suite(t)) if c[0] == "key identity"] == [
        ("key identity", (i,), True, None) for i in (1, 2, 3)]


def test_require_returns_the_report_or_raises_with_it():
    rep = Report("pre")
    rep.record("a", (1,), True)
    assert rep.require("unused") is rep
    rep.record("b", (2,), False, (2,))
    with pytest.raises(PreconditionError) as exc:
        rep.require("pre failed")
    assert str(exc.value) == "pre failed"
    assert exc.value.report is rep


def test_key_identity_records_its_first_failing_pair(monkeypatch):
    # identity_test stubbed to hand back failing sets: an empty one is one
    # pass at (i,), two failing pairs one failure at the first of them
    t = classify_triple(parse_bundle(export_bundle("prelie.rot4")), "B")
    for name in ("is_dn", "is_kd", "is_kn", "are_compatible", "is_rdo"):
        monkeypatch.setattr(hyper, name, lambda *args: Report())
    sets = iter([set(), {(1, 3), (0, 2)}, set()])
    monkeypatch.setattr(hyper, "identity_test", lambda *a, **k: (iter(()), (next(sets),)))
    rep = hyper.product_one_suite(t)
    assert [c for c in _claims(rep) if c[0] == "key identity"] == [
        ("key identity", (1,), True, None),
        ("key identity", (2,), False, (1, 3)),
        ("key identity", (3,), True, None),
    ]


def test_merge_keeps_every_field_and_prefixes_names():
    sub = Report("sub", notes=["n"])
    sub.record("a", (1, 2), False, (1, 2), "why")
    sub.record("b", (), True)
    for prefix in ("", "T1:"):
        rep = Report()
        rep.record("first", (3,), True)
        rep.merge(sub, prefix)
        assert rep.results[1:] == [
            ClaimResult(prefix + "a", (1, 2), False, (1, 2), "why"),
            ClaimResult(prefix + "b", (), True, None, "")]
        assert rep.notes == ["n"] and not rep.passed
    assert [r.claim for r in sub.results] == ["a", "b"]


def test_claims_of_a_memoized_report_cannot_be_changed():
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    rho = coadjoint_rep(g)
    d = LinMap(form_to_map(b.form("w1")).matrix, ALGEBRA, MODULE)
    with memo_scope():
        first = is_rdo(rho, d)
        with pytest.raises(AttributeError):
            first.results[0].passed = False
        first.results.clear()  # the list is the caller's own copy
        assert is_rdo(rho, d).passed and len(is_rdo(rho, d).results) == 6


def test_claim_json_is_unchanged():
    assert ClaimResult("rdo", (1, 4), False, (1, 4), "d e_4").to_json() == {
        "claim": "rdo", "indices": [1, 4], "pass": False, "counterexample": [1, 4],
        "detail": "d e_4"}
    assert ClaimResult("lie-axioms", (), True).to_json() == {
        "claim": "lie-axioms", "indices": [], "pass": True}
    rep = Report("t", [ClaimResult("a", (2,), True)], ["note"])
    assert rep.to_json() == {"title": "t", "pass": True, "notes": ["note"], "claims": [
        {"claim": "a", "indices": [2], "pass": True}]}
