"""Built-in example registry: loading, running, exporting, broken variants."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperops.algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    coregular_rep,
    regular_rep,
)
import hyperops.bundle
from hyperops.bundle import MAX_DIM, BundleError, parse_bundle
from hyperops.corpus import (
    broken_variant,
    broken_variants,
    export_bundle,
    list_examples,
    load_example,
    run_example,
)
from hyperops.geometry import BilForm
from hyperops.linalg import Matrix
from hyperops.operators import LinMap
from hyperops.scalars import ZERO, Scalar, parse_scalar


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
    rho = b.rep("triv")
    hflat = LinMap(Matrix.identity(4), ALGEBRA, MODULE)
    i1 = LinMap(b.map("i1").matrix, ALGEBRA, ALGEBRA)
    i2 = LinMap(b.map("i2").matrix, ALGEBRA, ALGEBRA)
    with pytest.raises(PreconditionError):
        reconstruct_hyper(rho, hflat, i1, i2)

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
    {"algebras": {"g": {"kind": "lie", "dim": 2}},
     "forms": {"f": {"algebra": "g", "symmetry": "skew", "terms": [{"term": "e1^*∧e2^*\n"}]}}},
])
def test_parse_rejects_malformed_shapes(doc):
    with pytest.raises(BundleError):
        parse_bundle(doc)


# -- the integer bundle parser against the Scalar constructors ---------
#
# ref_sections builds a valid bundle's algebras, representations, maps and
# forms by summing parse_scalar values with Scalar arithmetic, entry by entry,
# and then passing the finished entries to Matrix.from_rows.  It does not call
# from_constants or BilForm.from_terms, whose sums are under test here.

_REF_CONSTRUCTORS = {"adjoint": adjoint_rep, "coadjoint": coadjoint_rep,
                     "regular": regular_rep, "coregular": coregular_rep}
_REF_TERM = re.compile(r"^e(\d+)\^?\*([∧⊗])e(\d+)\^?\*$")


def _ref_rows(rows):
    return Matrix.from_rows([[parse_scalar(str(v)) for v in row] for row in rows])


def ref_sections(doc):
    algebras, reps, maps, forms = {}, {}, {}, {}
    for name, rec in doc.get("algebras", {}).items():
        n = rec["dim"]
        t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        given_pairs = set()
        for c in rec.get("constants", []):
            i, j, k = c["i"] - 1, c["j"] - 1, c["k"] - 1
            t[i][j][k] = t[i][j][k] + parse_scalar(str(c.get("coeff", "1")))
            given_pairs.add((i, j))
        if rec["kind"] == "lie":
            for i, j in given_pairs:
                if (j, i) not in given_pairs:
                    t[j][i] = [-v for v in t[i][j]]
        left = [Matrix.from_rows([[t[i][j][k] for j in range(n)] for k in range(n)])
                for i in range(n)]
        algebras[name] = (LieAlgebra if rec["kind"] == "lie" else PreLieAlgebra)(n, left)
    for name, rec in doc.get("reps", {}).items():
        g = algebras[rec["algebra"]]
        if "constructor" in rec:
            reps[name] = _REF_CONSTRUCTORS[rec["constructor"]](g)
        else:
            reps[name] = Representation(g, rec["module_dim"],
                                        tuple(_ref_rows(m) for m in rec["matrices"]))
    for name, rec in doc.get("maps", {}).items():
        maps[name] = LinMap(_ref_rows(rec["matrix"]), rec["domain"], rec["codomain"])
    for name, rec in doc.get("forms", {}).items():
        dim = algebras[rec["algebra"]].dim
        m = [[ZERO] * dim for _ in range(dim)]
        for t in rec.get("terms", []):
            i, op, j = _REF_TERM.match(t["term"].replace(" ", "")).groups()
            i, j, co = int(i) - 1, int(j) - 1, parse_scalar(str(t.get("coeff", "1")))
            m[i][j] = m[i][j] + co
            if op == "∧":
                m[j][i] = m[j][i] - co
        try:
            forms[name] = BilForm(Matrix.from_rows(m), rec["symmetry"])
        except ValueError as exc:
            forms[name] = f"form {name!r}: {exc}"
    return algebras, reps, maps, forms


def assert_parses_like_reference(doc):
    algebras, reps, maps, forms = ref_sections(doc)
    errors = [v for v in forms.values() if isinstance(v, str)]
    if errors:
        with pytest.raises(BundleError) as exc:
            parse_bundle(doc)
        assert str(exc.value) == errors[0]
        return
    b = parse_bundle(doc)
    assert (b.algebras, b.reps, b.maps, b.forms) == (algebras, reps, maps, forms)


@pytest.mark.parametrize("doc", [export_bundle(eid) for eid, _, _ in list_examples()]
                         + [broken_variant(name) for name in broken_variants()])
def test_corpus_bundles_parse_like_scalar_reference(doc):
    assert_parses_like_reference(doc)


def _coeff(a, da, b, db, style):
    """One value written three ways: numerators over mixed denominators
    (not reduced), the canonical rendering, or a JSON integer."""
    if style == 2 and b == 0 and da == 1:
        return a
    if style == 1:
        return Scalar(Fraction(a, da), Fraction(b, db)).render()
    return f"{a}/{da}{b:+d}/{db}i"


@st.composite
def coefficients(draw):
    """A coefficient's written value and that of its negative."""
    a, b = draw(st.integers(-6, 6)), draw(st.sampled_from([0, 0, 1, -2, 3]))
    da, db = draw(st.sampled_from([1, 1, 2, 3, 4, 6])), draw(st.sampled_from([1, 2, 5]))
    style = draw(st.integers(0, 2))
    return _coeff(a, da, b, db, style), _coeff(-a, da, -b, db, style)


# zero written five ways, which a sparse grid mostly holds
_ZEROS = ("0", "-0", "0/3", "0i", "0/2+0/5i")


@st.composite
def entries(draw, sparse):
    """A map or representation matrix entry; on a sparse grid most often zero."""
    if sparse and draw(st.integers(0, 4)):
        return draw(st.sampled_from(_ZEROS))
    return draw(coefficients())[0]


@st.composite
def bundles(draw, sparse=False):
    kind = draw(st.sampled_from(["lie", "prelie"]))
    n = draw(st.integers(1, 4))
    index = st.integers(1, n)
    # few distinct (i, j) pairs, so records repeat and Lie pairs come mirrored
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=3))
    constants = [{"i": i, "j": j, "k": draw(index), "coeff": draw(coefficients())[0]}
                 for i, j in draw(st.lists(st.sampled_from(pairs), max_size=8))]
    skew, symmetric = [], []
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=5)):
        skew.append({"term": f"e{i}^*∧e{j}^*", "coeff": draw(coefficients())[0]})
        if i != j:  # a tensor pair on the same entries
            c, neg_c = draw(coefficients())
            skew += [{"term": f"e{i}^*⊗e{j}^*", "coeff": c},
                     {"term": f"e{j}^* ⊗ e{i}^*", "coeff": neg_c}]
        c = draw(coefficients())[0]
        symmetric += [{"term": f"e{i}*⊗e{j}*", "coeff": c}, {"term": f"e{j}*⊗e{i}*", "coeff": c}]
    if draw(st.booleans()):  # most likely breaks the symmetry
        i, j = draw(index), draw(index)
        skew.append({"term": f"e{i}^*⊗e{j}^*", "coeff": draw(coefficients())[0]})
    doc = {"algebras": {"g": {"kind": kind, "dim": n, "constants": constants}},
           "maps": {"m": {"domain": "algebra", "codomain": "algebra",
                          "matrix": [[draw(entries(sparse)) for _ in range(n)]
                                     for _ in range(n)]}},
           "forms": {"w": {"algebra": "g", "symmetry": "skew", "terms": skew},
                     "s": {"algebra": "g", "symmetry": "symmetric", "terms": symmetric}}}
    if kind == "lie":
        m = draw(st.integers(1, 3))
        doc["reps"] = {"r": {"algebra": "g", "module_dim": m, "matrices": [
            [[draw(entries(sparse)) for _ in range(m)] for _ in range(m)] for _ in range(n)]}}
    return doc


@given(bundles())
@settings(max_examples=150, deadline=None)
def test_generated_bundles_parse_like_scalar_reference(doc):
    assert_parses_like_reference(doc)


@given(bundles(sparse=True))
@settings(max_examples=100, deadline=None)
def test_generated_sparse_bundles_parse_like_scalar_reference(doc):
    assert_parses_like_reference(doc)


@pytest.mark.parametrize("section,where", [("reps", "rep 'r'"), ("maps", "map 'm'")])
def test_zero_denominator_in_any_matrix_slot_is_a_bundle_error(section, where):
    """Each literal is parsed, a zero one among them, before only the nonzero
    ones are summed."""
    zeros = [["0", "-0", "0/3"], ["0i", "0/2+0/5i", "0"], ["0", "0", "0"]]
    bad = [row[:] for row in zeros]
    bad[2][1] = "0/0"
    doc = {"algebras": {"g": {"kind": "lie", "dim": 3, "constants": []}},
           "reps": {"r": {"algebra": "g", "module_dim": 3,
                          "matrices": [bad if section == "reps" else zeros] + [zeros] * 2}},
           "maps": {"m": {"domain": "algebra", "codomain": "algebra",
                          "matrix": bad if section == "maps" else zeros}}}
    with pytest.raises(BundleError) as exc:
        parse_bundle(doc)
    assert str(exc.value) == f"{where}: zero denominator in '0/0'"


# -- each literal parsed once per bundle -------------------------------

REPEATED = ["1/2+i", "0", "-3", "1/2+i", "2/4", "0", "7i", "-3"]


def repeated_literals_bundle():
    """A bundle whose constants, representation matrices, maps and form
    terms all draw on the few literals of REPEATED."""
    lit = iter(REPEATED * 8).__next__
    return {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": [
                {"i": 1, "j": 2, "k": k, "coeff": lit()} for k in (1, 2)]}},
            "reps": {"r": {"algebra": "g", "module_dim": 2, "matrices": [
                [[lit(), lit()], [lit(), lit()]] for _ in range(2)]}},
            "maps": {m: {"domain": "algebra", "codomain": "module",
                         "matrix": [[lit(), lit()], [lit(), lit()]]} for m in ("a", "b")},
            "forms": {"w": {"algebra": "g", "symmetry": "skew", "terms": [
                {"term": "e1^*∧e2^*", "coeff": lit()}, {"term": "e2^*∧e1^*", "coeff": lit()}]}}}


def test_repeated_literals_parse_like_one_literal_at_a_time(monkeypatch):
    """Every use of a repeated literal gets its value, the value the public
    constructors give when each reads its literals one by one with
    as_gaussian; each parse of the bundle parses each distinct text once,
    the second as much as the first, so no parse inherits another's."""
    doc = repeated_literals_bundle()
    rec = doc["algebras"]["g"]
    g = LieAlgebra.from_constants(2, [(c["i"], c["j"], c["k"], c["coeff"])
                                      for c in rec["constants"]])
    rows = Matrix.from_rows
    want = {"r": Representation(g, 2, tuple(rows(m) for m in doc["reps"]["r"]["matrices"])),
            "a": LinMap(rows(doc["maps"]["a"]["matrix"]), "algebra", "module"),
            "b": LinMap(rows(doc["maps"]["b"]["matrix"]), "algebra", "module"),
            "w": BilForm.from_terms(2, [("wedge", int(t["term"][1]), int(t["term"][6]), t["coeff"])
                                        for t in doc["forms"]["w"]["terms"]], "skew")}
    parsed = []
    parse = hyperops.bundle.parse_gaussian
    monkeypatch.setattr(hyperops.bundle, "parse_gaussian",
                        lambda text: parsed.append(text) or parse(text))
    for _ in range(2):
        parsed.clear()
        b = parse_bundle(doc)
        assert sorted(parsed) == sorted(set(REPEATED))
        assert b.algebra("g") == g
        assert (b.rep("r"), b.map("a"), b.map("b"), b.form("w")) == tuple(want.values())
