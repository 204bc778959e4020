"""End-to-end acceptance checks.

Each test is one headline capability of the package, run against the built-in
example corpus with exact arithmetic throughout: any violation is a hard
failure, never a tolerance question.
"""

import json
import time

import pytest

from hyperops import cli
from hyperops.algebra import coadjoint_rep
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import broken_variant, export_bundle, list_examples
from hyperops.geometry import (
    ANTI_HERMITIAN,
    HYPER_KAHLER,
    LIE_B,
    PARA_HYPER_KAHLER,
    PRELIE_OMEGA,
    SYMMETRIC,
    BilForm,
    KahlerQuad,
    check_hermitian_variant,
    check_kahler_quad,
    endo_triple_correspondence,
    form_to_map,
    is_hessian,
    is_rdo,
    is_symplectic,
)
from hyperops.hyper import (
    decompose_hyper,
    derived_structures_report,
    product_one_suite,
    reconstruct_hyper,
    verify_composition_table,
    verify_hflat_identities,
)
from hyperops.linalg import Matrix
from hyperops.operators import (
    ALGEBRA,
    LinMap,
    dn_powers,
    is_o_operator,
    kn_hierarchy,
)
from hyperops.reporting import PreconditionError

TRIPLES = {
    "lie.L4sym": ("omega", (1, 1, -1)),
    "prelie.rot4": ("B", (-1, -1, 1)),
    "abelian.quat": ("quat", (-1, -1, -1)),
    "abelian.para": ("para", (1, 1, 1)),
}


def _triple(name):
    tname, eps = TRIPLES[name]
    b = parse_bundle(export_bundle(name))
    t = classify_triple(b, tname)
    assert t.eps == eps
    return b, t


def test_symplectic_triple_classification_and_operator_duality():
    b, t = _triple("lie.L4sym")
    g = b.algebra("g")
    rho = coadjoint_rep(g)
    for name in ("w1", "w2", "w3"):
        w = b.form(name)
        assert is_symplectic(g, w).passed
        assert is_rdo(rho, form_to_map(w)).passed


def test_hessian_triple_classification():
    b, t = _triple("prelie.rot4")
    g = b.algebra("g")
    for name in ("B1", "B2", "B3"):
        assert is_hessian(g, b.form(name)).passed


def test_hessian_existence_decided_exactly():
    from hyperops.search import HESSIAN, solve_forms
    for name, expect in (("prelie.I4", True), ("prelie.A4", True), ("prelie.B4", False)):
        b = parse_bundle(export_bundle(name))
        res = solve_forms(b.algebra("g"), HESSIAN)
        assert res.exists_nondegenerate is expect, name
        if expect:
            assert res.contains(b.form("B"))


def test_identity_suites_clean_on_all_triples():
    start = time.monotonic()
    for name in TRIPLES:
        _, t = _triple(name)
        for fn in (verify_hflat_identities, verify_composition_table,
                   derived_structures_report):
            rep = fn(t)
            assert rep.passed, (name, fn.__name__, rep.violations[:3])
            assert not rep.violations
    assert time.monotonic() - start < 5.0


def test_signature_product_regimes():
    # product +1: the inverse maps are O-operators and the dedicated suite passes
    for name in ("prelie.rot4", "abelian.para"):
        _, t = _triple(name)
        assert t.eps_product == 1
        assert product_one_suite(t).passed
        for i in range(3):
            assert is_o_operator(t.rho, t.k(i)).passed
    # product -1: decomposition into hflat and anticommuting structures, and back
    for name in ("lie.L4sym", "abelian.quat"):
        _, t = _triple(name)
        assert t.eps_product == -1
        dec = decompose_hyper(t)
        rebuilt = reconstruct_hyper(t.rho, dec.hflat, dec.i1, dec.i2)
        for k in range(3):
            assert rebuilt.d[k].matrix == t.d[dec.permutation[k]].matrix
        assert rebuilt.eps == tuple(t.eps[p] for p in dec.permutation)


def test_metric_correspondences_both_directions():
    # quadruple built from a decomposed triple passes the appropriate variant
    for name, variant, aname in (("lie.L4sym", PARA_HYPER_KAHLER, "g"),
                                 ("abelian.quat", HYPER_KAHLER, "a")):
        b, t = _triple(name)
        dec = decompose_hyper(t)
        h = BilForm(dec.hflat.matrix.transpose(), SYMMETRIC)
        quad = KahlerQuad(h, dec.i1, dec.i2, dec.i3, variant)
        assert check_kahler_quad(b.algebra(aname), quad).passed
    # endomorphism-triple correspondence in both settings
    b = parse_bundle(export_bundle("abelian.quat"))
    g = b.algebra("a")
    ds = [LinMap(b.map(n).matrix, ALGEBRA, ALGEBRA) for n in ("mi", "mj", "mk")]
    assert endo_triple_correspondence(g, b.form("B"), *ds, LIE_B).passed
    from hyperops.algebra import PreLieAlgebra
    g2 = PreLieAlgebra.from_constants(2, [])
    from hyperops.geometry import SKEW
    w = BilForm(Matrix.from_rows([[0, 1], [-1, 0]]), SKEW)
    p = LinMap(Matrix.diag([1, -1]), ALGEBRA, ALGEBRA)
    q = LinMap(Matrix.from_rows([[0, 1], [1, 0]]), ALGEBRA, ALGEBRA)
    qp = LinMap(Matrix.from_rows([[0, -1], [1, 0]]), ALGEBRA, ALGEBRA)
    assert endo_triple_correspondence(g2, w, p, q, qp, PRELIE_OMEGA).passed
    # compatible complex structure on the central extension witness
    b = parse_bundle(export_bundle("lie.heis4"))
    assert check_hermitian_variant(b.algebra("g"), b.form("w"), b.map("I"),
                                   ANTI_HERMITIAN).passed


def test_operator_hierarchies():
    # invertible differential operator <-> O-operator inverse, on every corpus triple
    for name in TRIPLES:
        _, t = _triple(name)
        for i in range(3):
            assert is_rdo(t.rho, t.d[i]).passed
            assert is_o_operator(t.rho, t.t[i]).passed
    _, t = _triple("lie.L4sym")
    assert kn_hierarchy(t.rho, t.t[0], t.s[1], t.n[1], kmax=3).passed
    assert dn_powers(t.rho, t.d[0], t.n[1], kmax=4).passed


def test_negative_paths_are_diagnosed_and_stable(tmp_path):
    # every broken variant fails with the documented exit code and a
    # basis-indexed counterexample, and repeated runs are byte-identical
    p = tmp_path / "nj.json"
    p.write_text(json.dumps(broken_variant("non-jacobi")))
    outs = []
    for _ in range(2):
        code, payload = cli.run(["check", str(p), "--what", "lie",
                                 "--args", "broken", "--format", "json"])
        assert code == cli.EXIT_FAIL
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]
    bad = [c for c in json.loads(outs[0])["report"]["claims"] if not c["pass"]]
    assert any(tuple(c["indices"]) == (1, 2, 3) for c in bad)

    p = tmp_path / "na.json"
    p.write_text(json.dumps(broken_variant("non-anticommuting")))
    code, payload = cli.run(["reconstruct", str(p), "--rep", "triv",
                             "--hflat", "hflat", "--i1", "i1", "--i2", "i2"])
    assert code == cli.EXIT_PRECONDITION

    b = parse_bundle(broken_variant("non-derivation"))
    with pytest.raises(PreconditionError) as exc:
        endo_triple_correspondence(b.algebra("g"), b.form("B"), b.map("d1"),
                                   b.map("d2"), b.map("d3"), LIE_B)
    assert all(r.indices for r in exc.value.report.violations)


def test_full_corpus_replays_clean():
    from hyperops.corpus import run_example
    for eid, _, _ in list_examples():
        assert run_example(eid).passed, eid
