"""Structure constants, axiom checks, and the standard representations."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperops.algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    abelian,
    adjoint_rep,
    check_lie,
    check_prelie,
    coadjoint_rep,
    coregular_rep,
    dual_rep,
    regular_rep,
    subadjacent,
    trivial_rep,
)
from hyperops.cli import _SUITES, InputError
from hyperops.corpus import broken_variant, broken_variants, export_bundle, list_examples
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.linalg import DimensionError, Matrix
from hyperops.operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    _deformed_bracket,
    bracket_T,
)
from hyperops.reporting import PreconditionError
from hyperops.scalars import ZERO, Scalar


def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra.from_constants(3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)])


def heis():
    return LieAlgebra.from_constants(3, [(1, 2, 3, 1)])


def test_from_constants_mirrors_only_pairs_not_given():
    """Repeated records sum; a Lie pair (i, j) fills (j, i) with its negation
    only when no record gives (j, i), so an (i, i) entry is kept as given; a
    pre-Lie algebra mirrors nothing."""
    g = LieAlgebra.from_constants(3, [(1, 2, 3, 1), (1, 2, 3, "1/2"), (1, 3, 1, 2),
                                      (3, 1, 2, 5), (2, 2, 1, "i")])
    assert g.c == (Matrix.from_rows([[0, 0, 2], [0, 0, 0], [0, Fraction(3, 2), 0]]),
                   Matrix.from_rows([[0, "i", 0], [0, 0, 0], [Fraction(-3, 2), 0, 0]]),
                   Matrix.from_rows([[0, 0, 0], [5, 0, 0], [0, 0, 0]]))
    p = PreLieAlgebra.from_constants(3, [(1, 2, 3, 1), (1, 2, 3, "1/2"), (2, 2, 1, "i")])
    assert p.p == (Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, Fraction(3, 2), 0]]),
                   Matrix.from_rows([[0, "i", 0], [0, 0, 0], [0, 0, 0]]),
                   Matrix.zero(3, 3))


def test_lie_from_constants_names_a_record_out_of_range():
    # [e1, e2] = e3 in a 2-dimensional algebra, and an index 0
    for record in ((1, 2, 3, 1), (0, 1, 2, 1)):
        with pytest.raises(ValueError, match=re.escape(repr(record))):
            LieAlgebra.from_constants(2, [(1, 2, 1, 1), record])


def test_prelie_from_constants_names_a_record_out_of_range():
    # j = 3 would wrap into the next column block, e1 . e1
    for record in ((1, 3, 1, 1), (2, 1, 0, 1)):
        with pytest.raises(ValueError, match=re.escape(repr(record))):
            PreLieAlgebra.from_constants(2, [(1, 1, 1, 1), record])


def test_lie_axioms_pass_on_known_algebras():
    assert check_lie(sl2()).passed
    assert check_lie(heis()).passed
    assert check_lie(abelian(4)).passed


def test_lie_axioms_fail_with_indexed_counterexample():
    bad = LieAlgebra.from_constants(3, [(1, 2, 3, 1), (1, 3, 1, 1), (2, 3, 2, 1)])
    rep = check_lie(bad)
    assert not rep.passed
    assert rep.violations[0].claim == "jacobi"
    assert rep.violations[0].counterexample == (1, 2, 3)


def test_prelie_axioms():
    b = parse_bundle(export_bundle("prelie.I4"))
    assert check_prelie(b.algebra("g")).passed
    # breaking one product violates left-symmetry
    bad = PreLieAlgebra.from_constants(2, [(1, 1, 2, 1), (2, 1, 1, 1)])
    rep = check_prelie(bad)
    assert not rep.passed
    assert rep.violations[0].counterexample is not None


def test_bracket_bilinear():
    g = sl2()
    h = Matrix.column([Scalar(1), Scalar(0), Scalar(0)])
    e = Matrix.column([Scalar(0), Scalar(1), Scalar(0)])
    assert g.bracket(h, e) == e.scale(Scalar(2))
    assert g.bracket(e, h) == e.scale(Scalar(-2))
    assert g.bracket(h + e, h + e).is_zero()


def test_adjoint_rep_is_a_representation():
    for g in (sl2(), heis()):
        assert adjoint_rep(g).check().passed
        assert coadjoint_rep(g).check().passed


def test_dual_rep_is_a_representation():
    r = adjoint_rep(sl2())
    d = dual_rep(r)
    assert d.check().passed
    assert d.mats[0] == -r.mats[0].transpose()


def test_regular_rep_of_prelie():
    for name in ("prelie.I4", "prelie.A4", "prelie.B4", "prelie.rot4"):
        g = parse_bundle(export_bundle(name)).algebra("g")
        assert regular_rep(g).check().passed
        assert coregular_rep(g).check().passed


def test_subadjacent_is_lie():
    for name in ("prelie.I4", "prelie.A4", "prelie.B4", "prelie.rot4"):
        g = parse_bundle(export_bundle(name)).algebra("g")
        assert check_lie(subadjacent(g)).passed


def test_subadjacent_of_commutative_prelie_is_abelian():
    # symmetric products commute, so the commutator bracket vanishes
    g = PreLieAlgebra.from_constants(2, [(1, 1, 1, 1)])
    assert all(m.is_zero() for m in subadjacent(g).c)


def test_trivial_rep():
    r = trivial_rep(abelian(3), 4)
    assert r.check().passed
    assert all(m.is_zero() for m in r.mats)


def test_representation_shape_validation():
    g = abelian(2)
    with pytest.raises(Exception):
        Representation(g, 2, (Matrix.identity(3), Matrix.identity(3)))


def _affine2():
    """[e1, e2] = e2."""
    return LieAlgebra.from_constants(2, [(1, 2, 2, 1)])


def test_act_rejects_a_longer_vector():
    with pytest.raises(DimensionError, match=r"act: argument is 3x1, not a 2x1 column"):
        adjoint_rep(_affine2()).act(Matrix.column([1, 0, 5]))


def test_act_rejects_a_matrix():
    with pytest.raises(DimensionError, match=r"act: argument is 2x2, not a 2x1 column"):
        adjoint_rep(_affine2()).act(Matrix.identity(2))


def test_bracket_rejects_a_shorter_vector():
    with pytest.raises(DimensionError, match=r"bracket: argument is 1x1, not a 2x1 column"):
        _affine2().bracket(Matrix.column([1]), Matrix.column([0, 1]))


def test_product_rejects_a_row_vector():
    g = PreLieAlgebra.from_constants(2, [(1, 1, 1, 1)])
    with pytest.raises(DimensionError, match=r"product: argument is 1x2, not a 2x1 column"):
        g.product(Matrix.column([1, 0]), Matrix.from_rows([[1, 0]]))


def test_rep_homomorphism_failure_detected():
    g = sl2()
    mats = list(adjoint_rep(g).mats)
    mats[0] = Matrix.identity(3)
    rep = Representation(g, 3, tuple(mats)).check()
    assert not rep.passed


# -- integer contraction against the Scalar structure constants -------

gauss = st.builds(
    lambda a, da, b, db: Scalar(Fraction(a, da), Fraction(b, db)),
    st.integers(-7, 7), st.sampled_from([1, 2, 3, 4]),
    st.integers(-3, 3), st.sampled_from([1, 1, 3]),
) | st.just(ZERO)


@st.composite
def tensor_and_vectors(draw):
    n = draw(st.integers(1, 4))
    t = [[[draw(gauss) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    x = [draw(gauss) for _ in range(n)]
    y = [draw(gauss) for _ in range(n)]
    return n, t, x, y


def left_mults(t):
    """The left multiplications of a tensor t[i][j][k], the k-th coordinate of
    e_i e_j, as explicit matrices: entry (k, j) of L_i is t[i][j][k]."""
    r = range(len(t))
    return tuple(Matrix(len(t), len(t), [t[i][j][k] for k in r for j in r]) for i in r)


def direct_sum(t, x, y):
    """sum_{i,j} x_i y_j t[i][j][k], computed entrywise with Scalars."""
    n = len(x)
    out = []
    for k in range(n):
        s = ZERO
        for i in range(n):
            for j in range(n):
                s = s + x[i] * y[j] * t[i][j][k]
        out.append(s)
    return out


@given(tensor_and_vectors())
@settings(max_examples=80, deadline=None)
def test_bracket_and_product_match_structure_constant_sum(data):
    n, t, x, y = data
    expect = Matrix.column(direct_sum(t, x, y))
    xs, ys = Matrix.column(x), Matrix.column(y)
    # bracket does not assume antisymmetry, so any tensor serves both; every
    # pair (i, j) is given, so the Lie constructor mirrors none
    records = [(i + 1, j + 1, k + 1, t[i][j][k])
               for i in range(n) for j in range(n) for k in range(n)]
    g, p = LieAlgebra.from_constants(n, records), PreLieAlgebra.from_constants(n, records)
    assert g.bracket(xs, ys) == expect
    assert p.product(xs, ys) == expect
    for i in range(n):
        for j in range(n):
            assert g.basis_bracket(i, j).entries() == tuple(t[i][j])
            assert p.basis_product(i, j).entries() == tuple(t[i][j])
            for k in range(n):
                assert g.c[i][k, j] == p.p[i][k, j] == t[i][j][k]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_act_matches_linear_combination(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    mats = tuple(Matrix(m, m, [data.draw(gauss) for _ in range(m * m)]) for _ in range(n))
    x = [data.draw(gauss) for _ in range(n)]
    expect = Matrix.zero(m, m)
    for xi, mi in zip(x, mats):
        expect = expect + mi.scale(xi)
    assert Representation(abelian(n), m, mats).act(Matrix.column(x)) == expect



@given(st.data())
@settings(max_examples=40, deadline=None)
def test_derived_structures_match_scalar_tensor_formulas(data):
    """subadjacent, adjoint_rep, regular_rep, the deformed bracket and bracket_T
    against their definitions, summed entry by entry over Scalar tensors."""
    n = data.draw(st.integers(1, 3))
    r = range(n)
    t = [[[data.draw(gauss) for _ in r] for _ in r] for _ in r]
    left = left_mults(t)
    g, p = LieAlgebra(n, left), PreLieAlgebra(n, left)
    assert adjoint_rep(g).mats == regular_rep(p).mats == left
    sub = LieAlgebra(n, left_mults([[[t[i][j][k] - t[j][i][k] for k in r] for j in r]
                                    for i in r]))
    assert subadjacent(p) == regular_rep(p).algebra == sub

    # [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] for any N (the Nijenhuis
    # precondition only makes the result a Lie bracket)
    nm = Matrix(n, n, [data.draw(gauss) for _ in range(n * n)])
    deformed = [[[sum((nm[a, i] * t[a][j][k] + nm[a, j] * t[i][a][k] - nm[k, a] * t[i][j][a]
                       for a in r), ZERO) for k in r] for j in r] for i in r]
    assert _deformed_bracket(g, nm) == LieAlgebra(n, left_mults(deformed))

    # rho(e_i) = s_i A on an abelian algebra, with A = e_m a^T, is a
    # representation; T e_m = 0 gives T A = 0, which makes T an O-operator
    m = data.draw(st.integers(1, 3))
    s = [data.draw(gauss) for _ in r]
    a = [data.draw(gauss) for _ in range(m)]
    am = Matrix(m, m, [a[j] if k == m - 1 else ZERO for k in range(m) for j in range(m)])
    tm = Matrix(n, m, [data.draw(gauss) if j < m - 1 else ZERO for _ in r for j in range(m)])
    rho = [am.scale(v) for v in s]
    prelie, lie = bracket_T(Representation(abelian(n), m, rho), LinMap(tm, MODULE, ALGEBRA))
    # e_b ._T e_j = rho(T e_b) e_j has k-th coordinate sum_i T[i, b] rho_i[k, j]
    q = [[[sum((tm[i, b] * rho[i][k, j] for i in r), ZERO) for k in range(m)]
          for j in range(m)] for b in range(m)]
    assert prelie == PreLieAlgebra(m, left_mults(q))
    assert lie == LieAlgebra(m, left_mults([[[q[b][j][k] - q[j][b][k] for k in range(m)]
                                             for j in range(m)] for b in range(m)]))


# -- the parse boundary -----------------------------------------------

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
               "__truediv__", "__rtruediv__", "__pow__", "conj", "inv")
_TRIPLES = (("lie.L4sym", "omega"), ("prelie.rot4", "B"), ("abelian.quat", "quat"),
            ("abelian.para", "para"))


def test_no_scalar_arithmetic_past_parse(monkeypatch):
    """parse_bundle builds no Scalar and makes no Scalar arithmetic on any
    corpus bundle or broken variant; classifying a corpus triple and running
    every identity suite on it then stays in integers too."""
    docs = {eid: export_bundle(eid) for eid, _, _ in list_examples()}
    docs.update((name, broken_variant(name)) for name in broken_variants())
    calls, built = [], []
    for name in _ARITHMETIC:
        method = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name,
                            lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args))
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda s, *a: built.append(s) or init(s, *a))
    bundles = {key: parse_bundle(doc) for key, doc in docs.items()}
    assert (calls, built) == ([], [])
    for eid, triple in _TRIPLES:
        classify_triple(bundles[eid], triple)
        for suite in _SUITES.values():
            try:
                suite(bundles[eid], triple)
            except (InputError, PreconditionError):
                pass  # the suite does not apply to this triple
    assert calls == []
