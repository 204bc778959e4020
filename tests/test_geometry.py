"""Forms, flat maps, Hermitian variants, Kahler-type quadruples, invariant
forms, and the endomorphism-triple correspondence."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperops.algebra import LieAlgebra, PreLieAlgebra, abelian, coadjoint_rep, coregular_rep
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import broken_variant, export_bundle
from hyperops.geometry import (
    AD_INVARIANCE,
    ANTI_HERMITIAN,
    COCYCLE,
    HESSIAN_IDENTITY,
    HYPER_ANTI_KAHLER,
    HYPER_KAHLER,
    LIE_B,
    PARA_HYPER_KAHLER,
    PRELIE_INVARIANCE,
    PRELIE_OMEGA,
    SKEW,
    SYMMETRIC,
    BilForm,
    KahlerQuad,
    _flat_rep,
    check_hermitian_variant,
    check_kahler_quad,
    classify_hyper_hessian,
    classify_hyper_symplectic,
    endo_triple_correspondence,
    endomorphism_symmetry,
    form_to_map,
    induced_form,
    is_hessian,
    is_invariant_form,
    is_symplectic,
    kahler_suite,
)
from hyperops.hyper import decompose_hyper, reconstruct_hyper
from hyperops.linalg import Matrix
from hyperops.operators import ALGEBRA, LinMap, memo_scope
from hyperops.reporting import ClaimResult, PreconditionError, Report
from hyperops.scalars import ZERO, Scalar
from hyperops.search import instantiate, solve_forms


def test_symplectic_forms_on_corpus():
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    for name in ("w1", "w2", "w3"):
        rep = is_symplectic(g, b.form(name))
        assert rep.passed


def test_from_terms_names_a_term_out_of_range():
    # an index 0 would write entry (2, 1) of a 2-dimensional form
    for term, symmetry in ((("tensor", 0, 1, 1), SYMMETRIC), (("wedge", 1, 3, 1), SKEW)):
        with pytest.raises(ValueError, match=re.escape(repr(term))):
            BilForm.from_terms(2, [("tensor", 1, 1, 1), term], symmetry)


def test_bilform_rejects_an_unknown_symmetry():
    with pytest.raises(ValueError, match="unknown symmetry 'bogus'"):
        BilForm.from_terms(2, [("tensor", 1, 2, 1)], "bogus")
    # "none" declares no symmetry, so any matrix is accepted
    assert BilForm.from_terms(2, [("tensor", 1, 2, 1)], "none").matrix[0, 1] == Scalar(1)


_ENTRIES = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                     st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_bilform_is_skew_exactly_when_its_transpose_is_its_negative(rows, cols, data):
    """Against the definition mᵀ = -m: skew square matrices, some with one
    entry changed in its real or imaginary part, and matrices of any shape."""
    m = [[data.draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows == cols and data.draw(st.booleans()):
        m = [[m[i][j] if i < j else -m[j][i] if i > j else ZERO for j in range(cols)]
             for i in range(rows)]
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        m[i][j] = m[i][j] + data.draw(st.sampled_from([ZERO, Scalar(1), Scalar(0, 1)]))
    m = Matrix.from_rows(m)
    if m.transpose() == -m:
        assert BilForm(m, SKEW).matrix == m
    else:
        with pytest.raises(ValueError, match="matrix is not skew"):
            BilForm(m, SKEW)
    with pytest.raises(ValueError, match="matrix is not skew"):
        BilForm(Matrix.zero(rows, rows + 1), SKEW)


def test_flat_rep_is_built_once_per_request():
    for name, fresh in (("lie.L4sym", coadjoint_rep), ("prelie.rot4", coregular_rep)):
        g = parse_bundle(export_bundle(name)).algebra("g")
        again = parse_bundle(export_bundle(name)).algebra("g")
        with memo_scope():
            rho = _flat_rep(g)
            assert _flat_rep(g) is rho and _flat_rep(again) is rho  # keyed by value
            assert rho == fresh(g)
        # outside a scope every call builds, and nothing is kept on the algebra
        # beyond its dimension, its stack and the views cached from the stack
        assert _flat_rep(g) == rho and _flat_rep(g) is not rho
        assert set(g.__dict__) <= {"dim", "st", "unfolded", "c", "p"}
        assert g == again and hash(g) == hash(again)


def test_symplectic_routes_agree_on_failure_too():
    # a skew form that is not a cocycle fails both the direct route and the
    # flat-map route, and the agreement claim still passes
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    w = BilForm.from_terms(4, [("wedge", 1, 3, Scalar(1)), ("wedge", 2, 4, Scalar(1))], SKEW)
    rep = is_symplectic(g, w)
    assert not rep.passed
    agree = [r for r in rep.results if r.claim == "routes agree"]
    assert agree and agree[0].passed


def test_hessian_forms_on_corpus():
    for name, forms in (("prelie.I4", ["B"]), ("prelie.A4", ["B"]),
                        ("prelie.rot4", ["B1", "B2", "B3"])):
        b = parse_bundle(export_bundle(name))
        g = b.algebra("g")
        for f in forms:
            rep = is_hessian(g, b.form(f))
            assert rep.passed, (name, f)


def test_hessian_flags_non_real_form():
    b = parse_bundle(export_bundle("prelie.rot4"))
    rep = is_hessian(b.algebra("g"), b.form("B3"))
    assert rep.passed
    assert any("non-real" in n for n in rep.notes)


def test_form_to_map_convention():
    # form(x, y) must equal <map(x), y> with the dual pairing as a dot product
    b = parse_bundle(export_bundle("lie.L4sym"))
    w = b.form("w1")
    nat = form_to_map(w)
    for i in range(4):
        for j in range(4):
            ei = Matrix.column([Scalar(1) if t == i else Scalar(0) for t in range(4)])
            ej = Matrix.column([Scalar(1) if t == j else Scalar(0) for t in range(4)])
            assert w(ei, ej) == ((nat.matrix * ei).transpose() * ej)[0, 0]


def test_classify_hyper_symplectic_and_hessian():
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_hyper_symplectic(b.algebra("g"), b.form("w1"), b.form("w2"), b.form("w3"))
    assert t.eps == (1, 1, -1)
    b = parse_bundle(export_bundle("prelie.rot4"))
    t = classify_hyper_hessian(b.algebra("g"), b.form("B1"), b.form("B2"), b.form("B3"))
    assert t.eps == (-1, -1, 1)


def test_classify_rejects_non_symplectic_input():
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    bad = BilForm.from_terms(4, [("wedge", 1, 3, Scalar(1)), ("wedge", 2, 4, Scalar(1))], SKEW)
    with pytest.raises(PreconditionError):
        classify_hyper_symplectic(g, bad, b.form("w2"), b.form("w3"))


def test_anti_hermitian_on_heisenberg_extension():
    b = parse_bundle(export_bundle("lie.heis4"))
    g = b.algebra("g")
    rep = check_hermitian_variant(g, b.form("w"), b.map("I"), ANTI_HERMITIAN)
    assert rep.passed


def test_hermitian_variant_preconditions():
    b = parse_bundle(export_bundle("lie.heis4"))
    g = b.algebra("g")
    with pytest.raises(PreconditionError):
        # I^2 = -Id, so asking for the para variant fails the square sign check
        check_hermitian_variant(g, b.form("w"), b.map("I"), "para-anti-hermitian")
    with pytest.raises(ValueError):
        check_hermitian_variant(g, b.form("w"), b.map("I"), "no-such-variant")


def _decomposed(name, tname):
    b = parse_bundle(export_bundle(name))
    t = classify_triple(b, tname)
    return b, t, decompose_hyper(t)


def test_para_hyper_kahler_quad_from_l4sym():
    b, t, dec = _decomposed("lie.L4sym", "omega")
    g = b.algebra("g")
    h = BilForm(dec.hflat.matrix.transpose(), SYMMETRIC)
    quad = KahlerQuad(h, dec.i1, dec.i2, dec.i3, PARA_HYPER_KAHLER)
    rep = check_kahler_quad(g, quad)
    assert rep.passed
    sig = [r for r in rep.results if r.claim == "predicted signature"]
    assert sig and sig[0].indices == (1, 1, -1)


def test_kahler_quad_converse_direction():
    # rebuild the triple from the quad pieces and compare operator by operator
    b, t, dec = _decomposed("lie.L4sym", "omega")
    rebuilt = reconstruct_hyper(t.rho, dec.hflat, dec.i1, dec.i2)
    for k in range(3):
        assert rebuilt.d[k].matrix == t.d[dec.permutation[k]].matrix


def test_hyper_kahler_variant_on_quaternion_witness():
    b, t, dec = _decomposed("abelian.quat", "quat")
    g = b.algebra("a")
    h = BilForm(dec.hflat.matrix.transpose(), SYMMETRIC)
    quad = KahlerQuad(h, dec.i1, dec.i2, dec.i3, HYPER_KAHLER)
    rep = check_kahler_quad(g, quad)
    assert rep.passed


def test_kahler_quad_rejects_broken_anticommutation():
    b, t, dec = _decomposed("abelian.quat", "quat")
    g = b.algebra("a")
    h = BilForm(dec.hflat.matrix.transpose(), SYMMETRIC)
    quad = KahlerQuad(h, dec.i1, dec.i1, dec.i3, HYPER_KAHLER)
    with pytest.raises(PreconditionError):
        check_kahler_quad(g, quad)


def test_anti_kahler_needs_explicit_prelie():
    b, t, dec = _decomposed("abelian.quat", "quat")
    g = b.algebra("a")
    w = BilForm(Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, 1], [0, 0, -1, 0]]), SKEW)
    quad = KahlerQuad(w, dec.i1, dec.i2, dec.i3, HYPER_ANTI_KAHLER)
    with pytest.raises(ValueError):
        check_kahler_quad(g, quad)


def _rotations(triple_forms):
    return [triple_forms[s:] + triple_forms[:s] for s in range(3)]


@pytest.mark.parametrize("name,tname,aname,variant", [
    ("lie.L4sym", "omega", "g", PARA_HYPER_KAHLER),
    ("abelian.quat", "quat", "a", HYPER_KAHLER),
])
def test_kahler_suite_on_corpus_triples(name, tname, aname, variant):
    b, t, _ = _decomposed(name, tname)
    rep = kahler_suite(b.algebra(aname), t)
    assert rep.passed and rep.title == f"{variant} quad"
    assert [r.claim for r in rep.results][-1] == "round-trip rebuilds the triple"


def test_kahler_suite_normalizes_relabelled_triples():
    # every cyclic relabelling of a para-hyper triple has the same quad, and
    # the round trip undoes the relabelling
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    for forms in _rotations([b.form(n) for n in ("w1", "w2", "w3")]):
        t = classify_hyper_symplectic(g, *forms)
        rep = kahler_suite(g, t)
        assert rep.passed and rep.title == f"{PARA_HYPER_KAHLER} quad", t.eps


def test_kahler_suite_anti_variant_on_prelie():
    # the symmetric forms induced from a skew invariant form by a para-hyper
    # endomorphism triple on the 2-dim abelian pre-Lie algebra
    g = PreLieAlgebra.from_constants(2, [])
    w = BilForm(Matrix.from_rows([[0, 1], [-1, 0]]), SKEW)
    ds = [LinMap(m, ALGEBRA, ALGEBRA) for m in (
        Matrix.diag([1, -1]), Matrix.from_rows([[0, 1], [1, 0]]),
        Matrix.from_rows([[0, -1], [1, 0]]))]
    for forms in _rotations([induced_form(w, d, SYMMETRIC) for d in ds]):
        t = classify_hyper_hessian(g, *forms)
        rep = kahler_suite(g, t)
        assert rep.passed and rep.title == "para-hyper-anti-kahler quad", t.eps


def test_invariant_forms():
    # ad-invariant form on sl2 (the trace form, rescaled)
    sl2 = LieAlgebra.from_constants(3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)])
    f = BilForm(Matrix.from_rows([[2, 0, 0], [0, 0, 1], [0, 1, 0]]), SYMMETRIC)
    rep = is_invariant_form(sl2, f)
    assert rep.passed
    # breaking one entry destroys invariance, and both routes agree on that
    bad = BilForm(Matrix.from_rows([[2, 0, 0], [0, 1, 1], [0, 1, 0]]), SYMMETRIC)
    rep = is_invariant_form(sl2, bad)
    assert not rep.passed
    assert [r for r in rep.results if r.claim == "routes agree"][0].passed


def test_prelie_invariant_form():
    g = PreLieAlgebra.from_constants(2, [])
    w = BilForm(Matrix.from_rows([[0, 1], [-1, 0]]), SKEW)
    assert is_invariant_form(g, w).passed


def test_endomorphism_symmetry():
    f = BilForm(Matrix.identity(2), SYMMETRIC)
    rot = LinMap(Matrix.from_rows([[0, -1], [1, 0]]), ALGEBRA, ALGEBRA)
    assert endomorphism_symmetry(f, rot, SKEW)
    assert not endomorphism_symmetry(f, rot, SYMMETRIC)


def test_correspondence_lie_setting_quaternion():
    b = parse_bundle(export_bundle("abelian.quat"))
    g = b.algebra("a")
    f = b.form("B")
    ds = [LinMap(b.map(n).matrix, ALGEBRA, ALGEBRA) for n in ("mi", "mj", "mk")]
    rep = endo_triple_correspondence(g, f, *ds, LIE_B)
    assert rep.passed
    fac = [r for r in rep.results if r.claim.startswith("flat factorization")]
    assert fac and fac[0].passed


def test_correspondence_lie_setting_single_complex_structure():
    g = abelian(2)
    f = BilForm(Matrix.identity(2), SYMMETRIC)
    phi = LinMap(Matrix.from_rows([[0, -1], [1, 0]]), ALGEBRA, ALGEBRA)
    rep = endo_triple_correspondence(g, f, phi, phi, phi, LIE_B)
    assert rep.passed
    agree = [r for r in rep.results if r.claim == "directions agree"][0]
    assert "(1, 1, 1)" in agree.detail


def test_correspondence_prelie_setting():
    g = PreLieAlgebra.from_constants(2, [])
    w = BilForm(Matrix.from_rows([[0, 1], [-1, 0]]), SKEW)
    p = LinMap(Matrix.diag([1, -1]), ALGEBRA, ALGEBRA)
    q = LinMap(Matrix.from_rows([[0, 1], [1, 0]]), ALGEBRA, ALGEBRA)
    qp = LinMap(Matrix.from_rows([[0, -1], [1, 0]]), ALGEBRA, ALGEBRA)
    rep = endo_triple_correspondence(g, w, p, q, qp, PRELIE_OMEGA)
    assert rep.passed
    fac = [r for r in rep.results if r.claim.startswith("flat factorization")]
    assert fac and fac[0].passed


def test_correspondence_rejects_non_derivation():
    b = parse_bundle(broken_variant("non-derivation"))
    g = b.algebra("g")
    with pytest.raises(PreconditionError) as exc:
        endo_triple_correspondence(g, b.form("B"), b.map("d1"), b.map("d2"),
                                   b.map("d3"), LIE_B)
    claims = {(r.claim, r.indices) for r in exc.value.report.violations}
    assert ("d2:derivation", (1, 2)) in claims


def test_correspondence_records_singular_endomorphism():
    g = abelian(2)
    f = BilForm(Matrix.identity(2), SYMMETRIC)
    rot = LinMap(Matrix.from_rows([[0, -1], [1, 0]]), ALGEBRA, ALGEBRA)
    zero = LinMap(Matrix.zero(2, 2), ALGEBRA, ALGEBRA)
    with pytest.raises(PreconditionError) as exc:
        endo_triple_correspondence(g, f, zero, rot, rot, LIE_B)
    assert [(r.claim, r.indices) for r in exc.value.report.violations] == [("invertible", (1,))]


def test_correspondence_does_not_hide_errors_from_inverting(monkeypatch):
    # only a singular matrix counts as "not invertible"; any other error escapes
    def broken_inv(self):
        raise RuntimeError("broken inverse")

    monkeypatch.setattr(LinMap, "inv", broken_inv)
    rot = LinMap(Matrix.from_rows([[0, -1], [1, 0]]), ALGEBRA, ALGEBRA)
    with pytest.raises(RuntimeError, match="broken inverse"):
        endo_triple_correspondence(abelian(2), BilForm(Matrix.identity(2), SYMMETRIC),
                                   rot, rot, rot, LIE_B)


def test_form_checks_reject_the_wrong_algebra_kind():
    lie = parse_bundle(export_bundle("lie.L4sym"))
    prelie = parse_bundle(export_bundle("prelie.I4")).algebra("g")
    with pytest.raises(TypeError, match="^cocycle needs a Lie algebra$"):
        is_symplectic(prelie, lie.form("w1"))
    with pytest.raises(TypeError, match="^hessian-identity needs a pre-Lie algebra$"):
        is_hessian(lie.algebra("g"), BilForm(Matrix.identity(4), SYMMETRIC))
    with pytest.raises(TypeError, match="needs a Lie algebra"):
        COCYCLE.check(Report(), prelie, lie.form("w1"))


def test_induced_form_symmetry_enforced():
    f = BilForm(Matrix.identity(2), SYMMETRIC)
    p = LinMap(Matrix.diag([1, -1]), ALGEBRA, ALGEBRA)
    with pytest.raises(ValueError):
        induced_form(f, p, SKEW)
    assert induced_form(f, p, SYMMETRIC).matrix == Matrix.diag([1, -1])


# -- the form identities' row path against a direct evaluation ----------------

# Gaussian rationals with unequal denominators, drawn from a fixed pool: a
# 4-dimensional algebra takes 64 constants
_POOL = [ZERO] + [Scalar(Fraction(a, da), Fraction(b, db)) for a in range(-3, 4)
                  for da in (1, 2, 3) for b in (-2, 0, 1) for db in (1, 5)]
_gauss = st.sampled_from(_POOL)
# two zeros in three, so that some instances hold and some fail
_sparse = st.sampled_from([ZERO] * (2 * len(_POOL)) + _POOL)

_TARGET = {COCYCLE: "symplectic", HESSIAN_IDENTITY: "hessian",
           AD_INVARIANCE: "ad-invariant", PRELIE_INVARIANCE: "prelie-invariant"}


@st.composite
def _algebra_and_form(draw, identity):
    """A random 2-4 dimensional algebra of the identity's kind and a form of its
    symmetry: random entries, a combination of the solution basis, or such a
    combination with one entry pair changed."""
    n = draw(st.integers(2, 4))
    # every pair (i, j) gets a record, so the Lie constructor mirrors none
    g = identity.algebra.from_constants(n, [(i, j, k, draw(_sparse)) for i, j, k in
                                            itertools.product(range(1, n + 1), repeat=3)])
    skew = identity.symmetry == SKEW
    mode = draw(st.sampled_from(["random", "solution", "perturbed"]))
    if mode == "random":
        m = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + skew, n):
                m[i][j] = draw(_gauss)
                m[j][i] = -m[i][j] if skew else m[i][j]
        return g, BilForm(Matrix.from_rows(m), identity.symmetry), mode
    res = solve_forms(g, _TARGET[identity])
    f = instantiate(res, [draw(_gauss) for _ in range(res.dim)])
    if mode == "perturbed":
        i, j = draw(st.sampled_from(identity.coords(n)))
        v = draw(_gauss.filter(lambda v: not v.is_zero()))
        rows = [list(f.matrix.row(r)) for r in range(n)]
        rows[i][j] = rows[i][j] + v
        if i != j:
            rows[j][i] = rows[j][i] + (-v if skew else v)
        f = BilForm(Matrix.from_rows(rows), identity.symmetry)
    return g, f, mode


def _term_vectors(identity, g, t):
    """The instance's terms at basis tuple t as (sign, a, b) with coordinate
    columns: an index u is the unit column e_u, a pair (p, q) the bracket or
    product of unit columns."""
    n = g.dim
    e = [Matrix.column([1 if i == s else 0 for i in range(n)]) for s in range(n)]
    op = g.bracket if isinstance(g, LieAlgebra) else g.product

    def vector(a):
        return op(e[a[0]], e[a[1]]) if isinstance(a, tuple) else e[a]

    return [(sign, vector(a), vector(b)) for sign, a, b in identity.terms(*t)]


def _direct_claims(identity, g, f):
    """The claims FormIdentity.check should record, each instance evaluated
    as sum(sign * a^T M b) with matrix products."""
    claims = []
    for t in identity.tuples(g.dim):
        value = sum((sign * (a.transpose() * f.matrix * b)[0, 0]
                     for sign, a, b in _term_vectors(identity, g, t)), ZERO)
        idx = tuple(i + 1 for i in t)
        claims.append(ClaimResult(identity.claim, idx, value.is_zero(),
                                  None if value.is_zero() else idx))
    return claims


@pytest.mark.parametrize("identity", list(_TARGET), ids=lambda i: i.claim)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_form_identity_rows_match_direct_evaluation(identity, data):
    g, f, mode = data.draw(_algebra_and_form(identity))
    want = _direct_claims(identity, g, f)
    for failures_only in (False, True):
        rep = Report()
        held = identity.check(rep, g, f, failures_only)
        assert rep.results == [c for c in want if not (failures_only and c.passed)]
        assert held == all(c.passed for c in want)
    if mode == "solution":
        assert held


def _p_readout(identity, g, t):
    """The instance at t as coefficients on coords(n), read off
    P = sum(sign * a b^T): coordinate (i, j) gets P_ij -/+ P_ji (skew/symmetric)
    off the diagonal and P_ii on it."""
    n = g.dim
    p = Matrix.zero(n, n)
    for sign, a, b in _term_vectors(identity, g, t):
        p = p + (a * b.transpose()).scale(sign)
    flip = -1 if identity.symmetry == SKEW else 1
    return [p[i, j] + flip * p[j, i] if i != j else p[i, i] for i, j in identity.coords(n)]


@pytest.mark.parametrize("identity", list(_TARGET), ids=lambda i: i.claim)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_form_identity_rows_are_positive_multiples_of_the_p_readout(identity, data):
    # random sparse constants, not an algebra's: the rows are defined for any
    # tensor, and skew or symmetric slices would hide a swapped (p, q)
    n = data.draw(st.integers(2, 5))
    const = data.draw(st.lists(_sparse, min_size=n ** 3, max_size=n ** 3))
    g = identity.algebra.from_constants(n, [
        (i, j, k, v) for (i, j, k), v in zip(itertools.product(range(1, n + 1), repeat=3), const)])
    _assert_instances_match_the_p_readout(identity, g)


def _assert_instances_match_the_p_readout(identity, g):
    """Each instance is a positive multiple of the P readout at its tuple, and
    exactly the tuples whose readout is zero have none."""
    rows = identity.instances(g)
    nonzero = set()
    for t in identity.tuples(g.dim):
        want = _p_readout(identity, g, t)
        lead = next((m for m, w in enumerate(want) if not w.is_zero()), None)
        if lead is None:
            continue
        nonzero.add(t)
        got = [Scalar(*rows[t].get(m, (0, 0))) for m in range(len(want))]
        factor = got[lead] / want[lead]
        assert factor.is_real() and factor.re > 0, (t, factor)
        assert got == [w * factor for w in want], t
    assert set(rows) == nonzero
    assert all(any(v) for row in rows.values() for v in row.values())


@pytest.mark.parametrize("identity", list(_TARGET), ids=lambda i: i.claim)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_form_identity_instances_come_from_the_nonzero_columns(identity, data):
    # a few records at random places: most instances vanish, and the walk
    # over the nonzero columns must find exactly the others
    n = data.draw(st.integers(1, 5))
    index = st.integers(1, n)
    records = data.draw(st.lists(st.tuples(index, index, index, _gauss), max_size=2 * n))
    g = identity.algebra.from_constants(n, records)
    _assert_instances_match_the_p_readout(identity, g)
