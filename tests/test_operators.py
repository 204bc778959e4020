"""Operator predicates: differential operators, O-operators, Nijenhuis
operators, deformations, and the paired structures."""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperops import operators
from hyperops.algebra import (
    abelian,
    check_lie,
    coadjoint_rep,
    coregular_rep,
    trivial_rep,
)
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import export_bundle
from hyperops.geometry import form_to_map
from hyperops.linalg import DimensionError, Matrix
from hyperops.operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    are_compatible,
    bracket_T,
    brackets_coincide,
    deformed_bracket,
    deformed_representation,
    dn_powers,
    inner_rdo,
    is_dn,
    is_dual_nijenhuis_pair,
    is_kd,
    is_kn,
    is_nijenhuis,
    is_o_operator,
    is_rdo,
    kn_hierarchy,
    nijenhuis_square_sign,
)
from hyperops.reporting import PreconditionError
from hyperops.scalars import Scalar


def _reps():
    """Representations with at least one known invertible differential operator."""
    out = []
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    rho = coadjoint_rep(g)
    out.append((rho, [form_to_map(b.form(n)) for n in ("w1", "w2", "w3")]))
    b = parse_bundle(export_bundle("prelie.rot4"))
    p = b.algebra("g")
    rho = coregular_rep(p)
    out.append((rho, [form_to_map(b.form(n)) for n in ("B1", "B2", "B3")]))
    b = parse_bundle(export_bundle("abelian.quat"))
    rho = b.rep("triv")
    out.append((rho, [b.map(n) for n in ("mi", "mj", "mk")]))
    return out


def test_rdo_on_corpus_operators():
    for rho, ds in _reps():
        for d in ds:
            assert is_rdo(rho, d).passed


def test_rdo_rejects_wrong_tags():
    rho, _ = _reps()[0]
    with pytest.raises(Exception):
        is_rdo(rho, LinMap(Matrix.identity(4), MODULE, ALGEBRA))


def _identity(domain, codomain):
    return LinMap(Matrix.identity(4), domain, codomain)


_TAG_PAIRS = [(a, b) for a in (ALGEBRA, MODULE) for b in (ALGEBRA, MODULE)]


@pytest.mark.parametrize("call,domain,codomain,what", [
    (lambda rho, m: is_rdo(rho, m), ALGEBRA, MODULE, "relative differential operator"),
    (lambda rho, m: is_o_operator(rho, m), MODULE, ALGEBRA, "O-operator"),
    (lambda rho, m: is_dn(rho, _identity(ALGEBRA, MODULE), m),
     ALGEBRA, ALGEBRA, "Nijenhuis operator"),
    (lambda rho, m: is_dual_nijenhuis_pair(rho, m, _identity(MODULE, MODULE)),
     ALGEBRA, ALGEBRA, "Nijenhuis operator"),
    (lambda rho, m: is_dual_nijenhuis_pair(rho, _identity(ALGEBRA, ALGEBRA), m),
     MODULE, MODULE, "S of a dual-Nijenhuis pair"),
], ids=["rdo", "o-operator", "dn-N", "dual-nijenhuis-N", "dual-nijenhuis-S"])
def test_operator_tags_are_checked_with_one_message(call, domain, codomain, what):
    """Each predicate raises on every wrong tag pair of its map, with the
    message `LinMap.check_tags` writes, and accepts the right one."""
    rho, _ = _reps()[0]
    for tags in _TAG_PAIRS:
        if tags == (domain, codomain):  # may fail a precondition, never the tags
            with contextlib.suppress(PreconditionError):
                call(rho, _identity(*tags))
            continue
        with pytest.raises(DimensionError, match=rf"^{what} must map {domain} -> {codomain}$"):
            call(rho, _identity(*tags))
    with pytest.raises(DimensionError, match=r"^N must map algebra -> algebra$"):
        _identity(ALGEBRA, MODULE).check_tags(ALGEBRA, ALGEBRA, "N")
    right = _identity(domain, codomain)
    assert right.check_tags(domain, codomain, what) is right


def test_nijenhuis_predicate_takes_any_tags():
    """`is_nijenhuis` reads its map as an endomorphism of g whatever its tags,
    as a Hermitian check of an algebra -> module map needs."""
    rho, _ = _reps()[0]
    for tags in _TAG_PAIRS:
        assert is_nijenhuis(rho.algebra, _identity(*tags)).passed


def test_inverse_duality_both_directions():
    # an invertible map is a differential operator iff its inverse is an O-operator
    for rho, ds in _reps():
        for d in ds:
            assert is_rdo(rho, d).passed == is_o_operator(rho, d.inv()).passed
    # and a failing candidate fails on both sides
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    rho = coadjoint_rep(g)
    bad = LinMap(Matrix.diag([1, 2, 3, 4]), ALGEBRA, MODULE)
    assert not is_rdo(rho, bad).passed
    assert not is_o_operator(rho, bad.inv()).passed


def test_inner_rdo_is_always_rdo():
    rng = random.Random(7)
    for rho, _ in _reps():
        for _ in range(5):
            u = Matrix.column([Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
                               for _ in range(rho.module_dim)])
            d = inner_rdo(rho, u)
            assert is_rdo(rho, d).passed


def test_nijenhuis_from_corpus_triples():
    for name in ("lie.L4sym", "prelie.rot4", "abelian.quat", "abelian.para"):
        b = parse_bundle(export_bundle(name))
        t = classify_triple(b, next(iter(b.triples)))
        for i in range(3):
            rep = is_nijenhuis(t.rho.algebra, t.n[i])
            assert rep.passed
            assert nijenhuis_square_sign(t.rho.algebra, t.n[i]) == t.eps[i]


def test_deformed_bracket_is_lie_and_n_is_morphism():
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_triple(b, "omega")
    g = t.rho.algebra
    for i in range(3):
        gn = deformed_bracket(g, t.n[i])
        assert check_lie(gn).passed
        # N is a morphism from the deformed bracket to the original one
        nm = t.n[i].matrix
        for a in range(g.dim):
            for c in range(a + 1, g.dim):
                lhs = nm * gn.basis_bracket(a, c)
                rhs = g.bracket(_col(g.dim, a, nm), _col(g.dim, c, nm))
                assert lhs == rhs


def _col(n, j, m):
    basis = Matrix.column([Scalar(1) if t == j else Scalar(0) for t in range(n)])
    return m * basis


def test_deformed_bracket_requires_nijenhuis():
    g = parse_bundle(export_bundle("lie.L4sym")).algebra("g")
    bad = LinMap(Matrix.from_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]), ALGEBRA, ALGEBRA)
    assert not is_nijenhuis(g, bad).passed
    with pytest.raises(PreconditionError):
        deformed_bracket(g, bad)


def test_dual_nijenhuis_and_deformed_representation():
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_triple(b, "omega")
    for i in range(3):
        assert is_dual_nijenhuis_pair(t.rho, t.n[i], t.s[i]).passed
        varrho = deformed_representation(t.rho, t.n[i], t.s[i])
        assert varrho.check().passed


def test_bracket_T_builds_prelie_and_subadjacent():
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_triple(b, "omega")
    prelie, sub = bracket_T(t.rho, t.t[0])
    from hyperops.algebra import check_prelie
    assert check_prelie(prelie).passed
    assert check_lie(sub).passed


def test_brackets_coincide_on_kn_data():
    b = parse_bundle(export_bundle("prelie.rot4"))
    t = classify_triple(b, "B")
    # for i != k, (T_i, S_k, N_k) satisfies N∘T = T∘S
    rep = brackets_coincide(t.rho, t.t[0], t.s[1], t.n[1])
    assert rep.passed


def test_brackets_coincide_names_basis_vector_on_mismatch():
    b = parse_bundle(export_bundle("prelie.rot4"))
    t = classify_triple(b, "B")
    with pytest.raises(PreconditionError) as exc:
        brackets_coincide(t.rho, t.t[0], t.s[0].scale(Scalar(2)), t.n[0])
    assert "basis vector" in str(exc.value)


def test_kn_proves_nijenhuis_and_pair_once(monkeypatch):
    # the pair check inside is_kn proves N Nijenhuis; the deformation and the
    # coincidence claims are then built on that one proof
    calls = {"is_nijenhuis": 0, "is_dual_nijenhuis_pair": 0}
    for name in calls:
        fn = getattr(operators, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(operators, name, counted)
    t = classify_triple(parse_bundle(export_bundle("lie.L4sym")), "omega")
    assert operators.is_kn(t.rho, t.t[0], t.s[1], t.n[1]).passed
    assert calls == {"is_nijenhuis": 1, "is_dual_nijenhuis_pair": 1}


def test_failing_pair_is_a_precondition_with_its_claims():
    t = classify_triple(parse_bundle(export_bundle("lie.L4sym")), "omega")
    s2 = t.s[1].scale(Scalar(2))
    pair = is_dual_nijenhuis_pair(t.rho, t.n[1], s2)
    failing = [(r.claim, r.indices) for r in pair.violations]
    assert failing
    with pytest.raises(PreconditionError) as exc:
        deformed_representation(t.rho, t.n[1], s2)
    assert str(exc.value) == "(N,S) is not a dual-Nijenhuis pair"
    assert [(r.claim, r.indices) for r in exc.value.report.violations] == failing
    with pytest.raises(PreconditionError) as exc:
        is_kn(t.rho, t.t[0], s2, t.n[1])
    assert str(exc.value) == "KN preconditions failed"
    assert [(r.claim, r.indices) for r in exc.value.report.violations] == [
        ("(N,S):" + claim, idx) for claim, idx in failing]


def test_dn_kd_kn_on_derived_data():
    for name in ("lie.L4sym", "prelie.rot4"):
        b = parse_bundle(export_bundle(name))
        t = classify_triple(b, next(iter(b.triples)))
        for i in range(3):
            for k in range(3):
                if k == i:
                    continue
                assert is_kd(t.rho, t.t[i], t.d[k]).passed
                assert is_dn(t.rho, t.d[i], t.n[k]).passed
                assert is_kn(t.rho, t.t[i], t.s[k], t.n[k]).passed


def test_kd_implies_kn():
    # every KD pair yields the KN structure (T, d∘T, T∘d)
    for name in ("lie.L4sym", "prelie.rot4", "abelian.quat"):
        b = parse_bundle(export_bundle(name))
        t = classify_triple(b, next(iter(b.triples)))
        for i in range(3):
            for k in range(3):
                if k == i:
                    continue
                assert is_kd(t.rho, t.t[i], t.d[k]).passed
                s = t.d[k].compose(t.t[i])
                n = t.t[i].compose(t.d[k])
                assert is_kn(t.rho, t.t[i], s, n).passed


def test_compatibility_and_hierarchy():
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_triple(b, "omega")
    assert are_compatible(t.rho, t.t[0], t.t[1]).passed
    assert kn_hierarchy(t.rho, t.t[0], t.s[1], t.n[1], kmax=3).passed
    assert dn_powers(t.rho, t.d[0], t.n[1], kmax=4).passed


def _combination(mats, x):
    """sum_i x_i mats[i] for a column vector x."""
    out = Matrix.zero(mats[0].rows, mats[0].cols)
    for i, m in enumerate(mats):
        out = out + m.scale(x[i, 0])
    return out


def _coadjoint_l4sym():
    g = parse_bundle(export_bundle("lie.L4sym")).algebra("g")
    ad = list(g.c)  # column j of c[i] is [e_i, e_j], so c[i] is ad(e_i)
    rho = [-m.transpose() for m in ad]
    return coadjoint_rep(g), ad, rho


def _cross(ad, rho, a, b, u, v):
    """[Au,Bv] - A(rho(Bu)v - rho(Bv)u): the O-operator defect of T at (u, v)
    is _cross(T, T), and the mixed identity of T1, T2 is
    _cross(T1, T2) + _cross(T2, T1)."""
    return (_combination(ad, a * u) * (b * v)
            - a * (_combination(rho, b * u) * v - _combination(rho, b * v) * u))


_UNITS4 = [Matrix.column([1 if i == t else 0 for i in range(4)]) for t in range(4)]
_small = st.integers(-3, 3)


@given(st.lists(_small, min_size=16, max_size=16), st.lists(_small, min_size=16, max_size=16),
       st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=25, deadline=None)
def test_o_operator_defect_is_quadratic(e1, e2, k1, k2):
    # def(k1 T1 + k2 T2) = k1^2 def(T1) + k2^2 def(T2) + k1 k2 mixed(T1, T2),
    # which is why are_compatible checks the mixed identity alone
    action, ad, rho = _coadjoint_l4sym()
    t1, t2 = Matrix(4, 4, e1), Matrix(4, 4, e2)
    comb = t1.scale(k1) + t2.scale(k2)
    all_zero = True
    for a, b in itertools.combinations(range(4), 2):
        u, v = _UNITS4[a], _UNITS4[b]
        lhs = _cross(ad, rho, comb, comb, u, v)
        rhs = (_cross(ad, rho, t1, t1, u, v).scale(k1 * k1)
               + _cross(ad, rho, t2, t2, u, v).scale(k2 * k2)
               + (_cross(ad, rho, t1, t2, u, v) + _cross(ad, rho, t2, t1, u, v)).scale(k1 * k2))
        assert lhs == rhs
        all_zero = all_zero and lhs.is_zero()
    assert is_o_operator(action, LinMap(comb, MODULE, ALGEBRA)).passed == all_zero


def test_are_compatible_records_only_the_mixed_identity():
    t = classify_triple(parse_bundle(export_bundle("lie.L4sym")), "omega")
    rep = are_compatible(t.rho, t.t[0], t.t[1])
    assert [(r.claim, r.indices) for r in rep.results] == [
        ("mixed-identity", p) for p in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
    _, ad, rho = _coadjoint_l4sym()
    t1, t2 = t.t[0].matrix, t.t[1].matrix
    for a, b in itertools.combinations(range(4), 2):
        u, v = _UNITS4[a], _UNITS4[b]
        assert (_cross(ad, rho, t1, t2, u, v) + _cross(ad, rho, t2, t1, u, v)).is_zero()


def test_power_and_compose_shapes():
    b = parse_bundle(export_bundle("lie.L4sym"))
    t = classify_triple(b, "omega")
    with pytest.raises(Exception):
        t.d[0].power(2)  # algebra -> module is not an endomorphism
    assert t.n[0].power(0).matrix == Matrix.identity(4)


def test_linmap_rejects_one_bad_tag():
    for domain, codomain in ((ALGEBRA, "dual"), ("dual", MODULE)):
        with pytest.raises(ValueError, match="bad tags"):
            LinMap(Matrix.identity(2), domain, codomain)


def test_nijenhuis_notes_name_the_square_sign():
    # on an abelian algebra every endomorphism is Nijenhuis
    g = abelian(2)

    def notes(rows):
        return is_nijenhuis(g, LinMap(Matrix.from_rows(rows), ALGEBRA, ALGEBRA)).notes

    assert notes([[1, 0], [0, 1]]) == ["para-complex structure (N^2 = Id)"]
    assert notes([[0, -1], [1, 0]]) == ["complex structure (N^2 = -Id)"]
    assert notes([[1, 0], [0, 2]]) == []


def test_brackets_coincide_names_the_first_mismatching_vector():
    # N∘T = Id and T∘S = diag(1, 2) first differ on the second basis vector
    g = abelian(2)
    ident = Matrix.identity(2)
    with pytest.raises(PreconditionError, match="at module basis vector 2$"):
        brackets_coincide(trivial_rep(g, 2), LinMap(ident, MODULE, ALGEBRA),
                          LinMap(Matrix.diag([1, 2]), MODULE, MODULE),
                          LinMap(ident, ALGEBRA, ALGEBRA))


def test_memo_returns_copies_a_caller_cannot_spoil():
    b = parse_bundle(export_bundle("abelian.quat"))
    d = b.map("mi")
    want = is_rdo(b.rep("triv"), d).to_json()  # outside any scope: uncached
    assert operators._memo is None
    with operators.memo_scope():
        first = is_rdo(b.rep("triv"), d)
        first.record("spoiled", (), False)
        first.note("spoiled")
        second = is_rdo(b.rep("triv"), d)
        # an equal context, rebuilt, hits the one entry
        assert len(operators._memo) == 1
        assert second.to_json() == want
        second.results.clear()
        assert is_rdo(b.rep("triv"), d).to_json() == want
    assert operators._memo is None


def test_memo_raises_a_failing_precondition_again():
    t = classify_triple(parse_bundle(export_bundle("lie.L4sym")), "omega")
    s2 = t.s[1].scale(Scalar(2))

    def failure():
        with pytest.raises(PreconditionError) as exc:
            is_kn(t.rho, t.t[0], s2, t.n[1])
        return str(exc.value), exc.value.report.to_json()

    want = failure()  # outside any scope: uncached
    assert want[0] == "KN preconditions failed"
    with operators.memo_scope():
        assert failure() == want
        assert failure() == want
        assert ("is_kn", (t.rho, t.t[0], s2, t.n[1])) not in operators._memo
