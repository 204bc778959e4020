"""Structure constants, axiom checks, and the standard representations."""

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
from hyperops.corpus import export_bundle
from hyperops.bundle import parse_bundle
from hyperops.linalg import Matrix
from hyperops.scalars import ZERO, Scalar


def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra.from_brackets(3, {
        (1, 2): {2: 2},
        (1, 3): {3: -2},
        (2, 3): {1: 1},
    })


def heis():
    return LieAlgebra.from_brackets(3, {(1, 2): {3: 1}})


def test_lie_axioms_pass_on_known_algebras():
    assert check_lie(sl2()).passed
    assert check_lie(heis()).passed
    assert check_lie(abelian(4)).passed


def test_lie_axioms_fail_with_indexed_counterexample():
    bad = LieAlgebra.from_brackets(3, {(1, 2): {3: 1}, (1, 3): {1: 1}, (2, 3): {2: 1}})
    rep = check_lie(bad)
    assert not rep.passed
    assert rep.violations[0].claim == "jacobi"
    assert rep.violations[0].counterexample == (1, 2, 3)


def test_prelie_axioms():
    b = parse_bundle(export_bundle("prelie.I4"))
    assert check_prelie(b.algebra("g")).passed
    # breaking one product violates left-symmetry
    bad = PreLieAlgebra.from_products(2, {(1, 1): {2: 1}, (2, 1): {1: 1}})
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
    g = PreLieAlgebra.from_products(2, {(1, 1): {1: 1}})
    assert all(v.is_zero() for plane in subadjacent(g).c for row in plane for v in row)


def test_trivial_rep():
    r = trivial_rep(abelian(3), 4)
    assert r.check().passed
    assert all(m.is_zero() for m in r.mats)


def test_representation_shape_validation():
    g = abelian(2)
    with pytest.raises(Exception):
        Representation(g, 2, (Matrix.identity(3), Matrix.identity(3)))


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
    # bracket does not assume antisymmetry, so any tensor serves both
    g, p = LieAlgebra(n, t), PreLieAlgebra(n, t)
    assert g.bracket(xs, ys) == expect
    assert p.product(xs, ys) == expect
    for i in range(n):
        for j in range(n):
            assert g.basis_bracket(i, j).entries() == tuple(t[i][j])
            assert p.basis_product(i, j).entries() == tuple(t[i][j])


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

