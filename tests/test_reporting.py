"""Claim sequences pinned as (claim, indices, pass, counterexample), one report
per recording style: per basis tuple, two claims interleaved per tuple,
failures only followed by a summary claim, and first failure only.  Indices
and counterexamples are 1-indexed basis tuples."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from hyperops import cli, hyper
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
from test_linalg import ref_record


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
    rep = hyper.product_one_suite(t._replace(s=(s1,) + t.s[1:]))
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


# -- claims kept as recorded, built on first read ------------------------------


class _Eager:
    """The reference report: each claim a ClaimResult when it is recorded,
    and merge copying every claim under its prefix."""

    def __init__(self, title="", results=(), notes=()):
        self.title, self.results, self.notes = title, list(results), list(notes)

    def record(self, claim, indices, passed, counterexample=None, detail=""):
        self.results.append(ClaimResult(claim, tuple(indices), passed, counterexample, detail))

    def merge(self, other, prefix=""):
        self.results += [r._replace(claim=prefix + r.claim) for r in other.results]
        self.notes += other.notes

    def to_json(self):
        out = {"title": self.title, "pass": all(r.passed for r in self.results),
               "claims": [r.to_json() for r in self.results]}
        if self.notes:
            out["notes"] = self.notes
        return out


@st.composite
def _tuple_record(draw):
    """A record_tuples call: one name, or two or three recorded interleaved;
    member tuples of one or two indices; each name's failing set among them;
    and the mode."""
    size, width = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    tuples = list(itertools.product(range(size), repeat=width))
    names = draw(st.sampled_from(["a", ("a", "b"), ("c", "a", "b")]))
    failing = tuple(set(draw(st.lists(st.sampled_from(tuples), max_size=3)))
                    for _ in ((names,) if isinstance(names, str) else names))
    return names, tuples, failing, draw(st.booleans())


_STEPS = st.one_of(
    st.tuples(st.just("record"), st.integers(0, 9), st.sampled_from("ab"),
              st.lists(st.integers(1, 3), max_size=2), st.booleans(), st.sampled_from(["", "d"])),
    st.tuples(st.just("tuples"), st.integers(0, 9), _tuple_record()),
    st.tuples(st.just("merge"), st.integers(0, 9), st.integers(0, 9), st.sampled_from(["", "P:"])),
    st.tuples(st.just("copy"), st.integers(0, 9)),
    st.tuples(st.just("note"), st.integers(0, 9), st.sampled_from(["n", "m"])),
    st.tuples(st.just("read"), st.integers(0, 9)))


def _assert_same(rep, ref):
    assert rep.to_json() == ref.to_json()
    assert rep.passed is all(r.passed for r in ref.results)
    assert rep.violations == [r for r in ref.results if not r.passed]
    assert rep.results == ref.results


@given(st.lists(_STEPS, max_size=14))
@settings(max_examples=300, deadline=None)
def test_reports_read_as_the_eager_reference(steps):
    """Random sequences of record, record_tuples (members a one-shot
    iterator, both modes), merge with and without a prefix, memo copies and
    reads read back as the eager reference does, every report at every read
    and at the end."""
    pool = [(Report(title), _Eager(title)) for title in ("r0", "r1")]
    for kind, at, *args in steps:
        rep, ref = pool[at % len(pool)]
        if kind == "record":
            name, indices, ok, detail = args
            for r in (rep, ref):
                r.record(name, indices, ok, None if ok else tuple(indices), detail)
        elif kind == "tuples":
            names, tuples, failing, failures_only = args[0]

            def holds(*t, failing=failing, single=isinstance(names, str)):
                flags = tuple(t not in keys for keys in failing)
                return flags[0] if single else flags

            got = rep.record_tuples(names, (iter(tuples), failing), failures_only)
            assert got == ref_record(ref, names, tuples, holds, failures_only)
        elif kind == "merge":
            other, prefix = pool[args[0] % len(pool)], args[1]
            rep.merge(other[0], prefix)
            ref.merge(other[1], prefix)
        elif kind == "copy":
            pool.append((rep.copy(), _Eager(ref.title, ref.results, ref.notes)))
        elif kind == "note":
            rep.note(args[0])
            ref.notes.append(args[0])
        else:
            _assert_same(rep, ref)
    for rep, ref in pool:
        _assert_same(rep, ref)


@pytest.fixture()
def built(monkeypatch):
    """A one-item list counting the ClaimResults built from here on, each
    construction and each _replace copy."""
    count, new, make = [0], ClaimResult.__new__, ClaimResult._make

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    def counted_make(cls, iterable):
        count[0] += 1
        return make(iterable)

    monkeypatch.setattr(ClaimResult, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(ClaimResult, "_make", classmethod(counted_make))
    return count


def test_a_suite_builds_only_the_claims_it_prints(tmp_path, built):
    """The derived suite on lie.L4sym prints 24 claims and builds 51
    ClaimResults: those 24 and the 27 plain claims its predicates record,
    none per basis tuple (708 when every tuple was built); a passing
    classification builds none (18 before)."""
    paths = {}
    for eid in ("lie.L4sym", "abelian.quat"):
        paths[eid] = tmp_path / (eid + ".json")
        paths[eid].write_text(json.dumps(export_bundle(eid)))
    built[0] = 0
    code, payload = cli.run(["suite", str(paths["lie.L4sym"]), "--triple", "omega",
                             "--which", "derived"])
    assert code == cli.EXIT_PASS and len(payload["report"]["claims"]) == 24
    assert built[0] <= 51, built[0]
    built[0] = 0
    code, payload = cli.run(["classify-hyper", str(paths["abelian.quat"]), "--triple", "quat"])
    assert code == cli.EXIT_PASS and payload["eps"] == [-1, -1, -1]
    assert built[0] == 0
