"""Exact linear algebra: elimination, inverses, kernels, affine solving, and
the sparse-polynomial generic determinant."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hyperops.linalg import (
    AffineSolutionSpace,
    DimensionError,
    Matrix,
    Poly,
    SingularMatrixError,
    generic_determinant,
    solve_affine,
)
from hyperops.scalars import ONE, ZERO, Scalar


def mat(rows):
    return Matrix.from_rows([[Scalar(Fraction(v)) for v in row] for row in rows])


small = st.integers(min_value=-6, max_value=6)

matrices3 = st.builds(
    lambda vals: Matrix(3, 3, [Scalar(Fraction(a), Fraction(b)) for a, b in vals]),
    st.lists(st.tuples(small, small), min_size=9, max_size=9),
)


def test_basic_shapes_and_errors():
    a = mat([[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        a + mat([[1, 2, 3]])
    with pytest.raises(DimensionError):
        a * mat([[1, 2, 3]])
    with pytest.raises(DimensionError):
        mat([[1, 2]]).det()


def test_inverse_exact():
    a = mat([[2, 1], [1, 1]])
    assert a.inv() * a == Matrix.identity(2)
    assert a * a.inv() == Matrix.identity(2)


def test_singular_inverse_reports_rank():
    a = mat([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as exc:
        a.inv()
    assert exc.value.rank == 1


@given(matrices3)
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip_when_nonsingular(a):
    if a.det().is_zero():
        assert a.rank() < 3
    else:
        assert a.inv() * a == Matrix.identity(3)


@given(matrices3, matrices3)
@settings(max_examples=40, deadline=None)
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(matrices3)
@settings(max_examples=40, deadline=None)
def test_det_matches_sympy(a):
    sm = sympy.Matrix(3, 3, [sympy.Rational(a[i, j].re) + sympy.I * sympy.Rational(a[i, j].im)
                             for i in range(3) for j in range(3)])
    d = a.det()
    expect = sympy.expand(sm.det())
    assert sympy.Rational(d.re) + sympy.I * sympy.Rational(d.im) == expect


@given(matrices3)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(a):
    assert a.rank() + len(a.kernel_basis()) == 3


@given(matrices3)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(a):
    for v in a.kernel_basis():
        assert (a * Matrix.column(v)).is_zero()


def test_kernel_basis_is_canonical():
    a = mat([[1, 2, 3], [2, 4, 6]])
    b1 = a.kernel_basis()
    b2 = mat([[2, 4, 6], [1, 2, 3]]).kernel_basis()
    assert b1 == b2
    assert len(b1) == 2


def test_solve_affine_unique():
    a = mat([[1, 1], [1, -1]])
    space = solve_affine(a, [Scalar(4), Scalar(2)])
    assert space.dim == 0
    assert space.particular == (Scalar(3), Scalar(1))


def test_solve_affine_underdetermined():
    a = mat([[1, 1, 1]])
    space = solve_affine(a, [Scalar(6)])
    assert space.dim == 2
    pt = space.point([Scalar(1), Scalar(2)])
    total = pt[0] + pt[1] + pt[2]
    assert total == Scalar(6)


def test_solve_affine_infeasible():
    a = mat([[1, 1], [1, 1]])
    assert solve_affine(a, [Scalar(1), Scalar(2)]) is None


def test_poly_arithmetic_and_evaluation():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x + y.__mul__(Poly.constant(2, Scalar(3)))  # x^2 + 3y
    assert p.evaluate([Scalar(2), Scalar(5)]) == Scalar(19)
    assert (p - p).is_zero()


def test_generic_determinant_matches_pointwise():
    # 2x2 space: particular = [[1,0],[0,0]], basis adds t at (1,1)
    space = AffineSolutionSpace(
        (ONE, ZERO, ZERO, ZERO),
        ((ZERO, ZERO, ZERO, ONE),),
    )
    det = generic_determinant(space, 2)
    assert not det.is_zero()
    for t in (Scalar(0), Scalar(1), Scalar(7), Scalar(0, 1)):
        pt = space.point([t])
        concrete = Matrix(2, 2, list(pt)).det()
        assert det.evaluate([t]) == concrete


def test_generic_determinant_zero_polynomial():
    # all matrices in this family are singular (rank <= 1)
    space = AffineSolutionSpace(
        (ZERO,) * 4,
        ((ONE, ZERO, ONE, ZERO),),
    )
    assert generic_determinant(space, 2).is_zero()


# -- the integer kernel against a Fraction-pair reference -------------
#
# The reference works on lists of rows of (re, im) Fraction pairs with
# textbook field arithmetic; det is a cofactor expansion, so it shares no
# elimination code with Matrix.

def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_neg(a):
    return (-a[0], -a[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


C0 = (Fraction(0), Fraction(0))
C1 = (Fraction(1), Fraction(0))


def ref_of(m):
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)] for i in range(m.rows)]


def ref_mul(a, b):
    return [[_c_sum(c_mul(a[i][k], b[k][j]) for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _c_sum(values):
    out = C0
    for v in values:
        out = c_add(out, v)
    return out


def ref_det(a):
    if not a:
        return C1
    out = C0
    for j, v in enumerate(a[0]):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = c_mul(v, ref_det(minor))
        out = c_add(out, term if j % 2 == 0 else c_neg(term))
    return out


def ref_rref(a):
    m = [list(row) for row in a]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c] != C0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = c_inv(m[r][c])
        m[r] = [c_mul(v, inv) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != C0:
                f = m[i][c]
                m[i] = [c_add(x, c_neg(c_mul(f, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_kernel(rref, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [C0] * ncols
        v[fc] = C1
        for r, pc in enumerate(pivots):
            v[pc] = c_neg(rref[r][fc])
        basis.append(v)
    return basis


def pairs(vector):
    return [(v.re, v.im) for v in vector]


gauss = st.builds(
    lambda a, da, b, db: Scalar(Fraction(a, da), Fraction(b, db)),
    st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(-4, 4), st.sampled_from([1, 1, 2, 5]),
) | st.just(ZERO)


@st.composite
def matrices(draw, rows=None, cols=None, singular=None):
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    vals = [[draw(gauss) for _ in range(c)] for _ in range(r)]
    if (draw(st.booleans()) if singular is None else singular) and r > 1:
        # last row a combination of the others: rank < r
        k = draw(gauss)
        vals[-1] = [sum((row[j] * k for row in vals[:-1]), ZERO) for j in range(c)]
    return Matrix.from_rows(vals)


def assert_canonical(m):
    assert m.den > 0
    assert gcd(m.den, *m.re, *m.im) == 1
    assert Matrix(m.rows, m.cols, m.entries()) == m
    assert hash(Matrix(m.rows, m.cols, m.entries())) == hash(m)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.rows, cols=a.cols))
    c = data.draw(matrices(rows=a.cols))
    k = data.draw(gauss)
    ra, rb, rc = ref_of(a), ref_of(b), ref_of(c)
    kk = (k.re, k.im)
    for got, want in (
        (a * c, ref_mul(ra, rc)),
        (a + b, [[c_add(x, y) for x, y in zip(p, q)] for p, q in zip(ra, rb)]),
        (a - b, [[c_add(x, c_neg(y)) for x, y in zip(p, q)] for p, q in zip(ra, rb)]),
        (-a, [[c_neg(x) for x in p] for p in ra]),
        (a.scale(k), [[c_mul(kk, x) for x in p] for p in ra]),
        (a.transpose(), [list(col) for col in zip(*ra)]),
    ):
        assert ref_of(got) == want
        assert_canonical(got)
    assert a.is_zero() == all(x == C0 for p in ra for x in p)
    assert a.is_real() == all(x[1] == 0 for p in ra for x in p)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_and_kernel_match_reference(a):
    rref, pivots = ref_rref(ref_of(a))
    assert a.rank() == len(pivots)
    assert [pairs(v) for v in a.kernel_basis()] == ref_kernel(rref, pivots, a.cols)


@given(st.integers(1, 4).flatmap(lambda n: matrices(rows=n, cols=n)))
@settings(max_examples=80, deadline=None)
def test_det_and_inverse_match_reference(a):
    ra = ref_of(a)
    d = a.det()
    assert (d.re, d.im) == ref_det(ra)
    n = a.rows
    rref, pivots = ref_rref([row + [C1 if i == j else C0 for j in range(n)]
                             for i, row in enumerate(ra)])
    rank = sum(1 for p in pivots if p < n)
    if rank < n:
        assert d.is_zero()
        with pytest.raises(SingularMatrixError) as exc:
            a.inv()
        assert exc.value.rank == rank
    else:
        inv = a.inv()
        assert ref_of(inv) == [row[n:] for row in rref]
        assert_canonical(inv)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_affine_matches_reference(data):
    a = data.draw(matrices())
    b = [data.draw(gauss) for _ in range(a.rows)]
    rref, pivots = ref_rref([row + [(v.re, v.im)] for row, v in zip(ref_of(a), b)])
    space = solve_affine(a, b)
    if a.cols in pivots:
        assert space is None
        return
    particular = [C0] * a.cols
    for r, pc in enumerate(pivots):
        particular[pc] = rref[r][a.cols]
    assert pairs(space.particular) == particular
    assert [pairs(v) for v in space.basis] == ref_kernel(rref, pivots, a.cols)


@given(matrices(), st.sampled_from([2, -3]), gauss)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_route_independent(a, k, z):
    # the same matrix reached by different arithmetic compares, hashes and
    # stores identically, over a reduced denominator
    routes = [
        a,
        Matrix(a.rows, a.cols, a.entries()),
        Matrix(a.rows, a.cols, [v.render() for v in a.entries()]),
        a.scale(k).scale(Scalar(Fraction(1, k))),
        (a + a.scale(z)) - a.scale(z),
        a.transpose().transpose(),
        -(-a),
        Matrix.identity(a.rows) * a,
    ]
    for m in routes:
        assert m == a and hash(m) == hash(a)
        assert (m.den, m.re, m.im) == (a.den, a.re, a.im)
        assert_canonical(m)
