"""Exact linear algebra: elimination, inverses, kernels, affine solving, and
the sparse-polynomial generic determinant."""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hyperops.linalg import (
    DimensionError,
    Matrix,
    Poly,
    SingularMatrixError,
    _eliminate,
    _hstack,
    _kernel,
    _layout,
    block_transpose,
    combine,
    cut,
    det_witness,
    generic_determinant,
    identity_test,
    members,
    solve_affine,
    stack,
    unfold,
    witness_points,
)
from hyperops.reporting import Report
from hyperops.scalars import ZERO, Scalar, as_gaussian


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
    k = a.kernel()
    assert a.rank() + k.rows == 3 and k.cols == 3


@given(matrices3)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(a):
    assert (a * a.kernel().transpose()).is_zero()


def test_kernel_is_canonical():
    a = mat([[1, 2, 3], [2, 4, 6]])
    b1 = a.kernel()
    b2 = mat([[2, 4, 6], [1, 2, 3]]).kernel()
    assert b1 == b2
    assert b1 == mat([[-2, 1, 0], [-3, 0, 1]])


def test_kernel_of_a_full_rank_matrix_has_no_rows():
    k = mat([[1, 2], [3, 4]]).kernel()
    assert (k.rows, k.cols) == (0, 2)


def test_solve_affine_unique():
    a = mat([[1, 1], [1, -1]])
    space = solve_affine(a, [Scalar(4), Scalar(2)])
    assert space.dim == 0
    assert space.particular == (Scalar(3), Scalar(1))


def test_solve_affine_underdetermined():
    a = mat([[1, 1, 1]])
    space = solve_affine(a, [Scalar(6)])
    assert space.dim == 2
    pt = [p + b1 + b2 * 2 for p, b1, b2 in zip(space.particular, *space.basis)]
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
    # the pencil [[s, 0], [0, t]]: s at (0, 0), t at (1, 1)
    mats = (mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]]))
    det = generic_determinant(mats, 2)
    assert not det.is_zero()
    for s, t in ((Scalar(0), Scalar(3)), (Scalar(1), Scalar(1)), (Scalar(2), Scalar(7)),
                 (Scalar(5), Scalar(0, 1))):
        concrete = Matrix(2, 2, [s, ZERO, ZERO, t]).det()
        assert det.evaluate([s, t]) == concrete == s * t


def test_generic_determinant_zero_polynomial():
    # all matrices in this pencil are singular (rank <= 1)
    mats = (mat([[1, 0], [1, 0]]), mat([[0, 2], [0, 2]]))
    assert generic_determinant(mats, 2).is_zero()


def pencil_sum(mats, t, n):
    """Reference: the n x n matrix sum t_k mats[k], summed matrix by matrix on
    numerators over one denominator; the zero matrix when mats is empty."""
    if len(t) != len(mats):
        raise DimensionError(f"need {len(mats)} parameters, got {len(t)}")
    if any(m.rows != n or m.cols != n for m in mats):
        raise DimensionError(f"a pencil of {n}x{n} matrices needs every matrix {n}x{n}")
    terms = [(as_gaussian(v), m) for v, m in zip(t, mats)]
    den = lcm(*(d * m.den for (_, _, d), m in terms))
    re, im = [0] * (n * n), [0] * (n * n)
    for (a, b, d), m in terms:
        f = den // (d * m.den)
        mr, mi = numerators(m)
        re = [x + f * (a * r - b * i) for x, r, i in zip(re, mr, mi)]
        im = [x + f * (a * i + b * r) for x, r, i in zip(im, mr, mi)]
    return Matrix(n, n, [Scalar(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)])


def numerators(m):
    """The dense reference view of m: its row-major numerator lists (re, im)
    over m.den, read entry by entry."""
    cells = [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    return [int(v.re * m.den) for v in cells], [int(v.im * m.den) for v in cells]


def pencil_kernel(mats, n):
    """`det_witness`'s arguments for the pencil sum t_k mats[k] of n x n
    matrices: their row-major entries, one matrix a row, and the n^2 x n^2
    identity as the placement."""
    kernel = (_hstack(*(m.reshape(1, m.rows * m.cols) for m in mats)).reshape(len(mats), n * n)
              if mats else Matrix.zero(0, n * n))
    return kernel, Matrix.identity(n * n)


def ref_det_witness(mats, n):
    """Reference: the first of `witness_points` where the summed pencil has a
    nonzero determinant, else a point read off the cofactor expansion."""
    if not mats:
        return None
    for point in witness_points(len(mats)):
        if not pencil_sum(mats, point, n).det().is_zero():
            return point
    det = generic_determinant(mats, n)
    return None if det.is_zero() else det.nonzero_point(n)


def test_empty_pencil_is_the_zero_matrix():
    assert pencil_sum((), (), 3) == Matrix.zero(3, 3)
    assert generic_determinant((), 3).is_zero()
    assert det_witness(*pencil_kernel((), 3)) is None


def test_pencil_shapes_are_checked():
    mats = (mat([[1, 0], [0, 1]]),)
    with pytest.raises(DimensionError):
        pencil_sum(mats, (1, 2), 2)
    with pytest.raises(DimensionError):
        pencil_sum(mats, (1,), 3)
    with pytest.raises(DimensionError):
        generic_determinant(mats, 3)
    # the witness embeds t kernel, here a 1 x 4 row, as a 3 x 3 matrix
    with pytest.raises(DimensionError):
        det_witness(*pencil_kernel(mats, 3))


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


def ref_mul(a, b, cols=None):
    """a times b; cols is b's column count, needed only when b has no rows."""
    cols = len(b[0]) if cols is None else cols
    return [[_c_sum(c_mul(a[i][k], b[k][j]) for k in range(len(b)))
             for j in range(cols)] for i in range(len(a))]


def _c_sum(values):
    out = C0
    for v in values:
        out = c_add(out, v)
    return out


def ref_det(a):
    """Cofactor expansion along the first row, each minor expanded once: a
    minor is fixed by its first row i and the columns it keeps."""
    @functools.cache
    def minor(i, cols):
        if i == len(a):
            return C1
        out = C0
        for t, j in enumerate(cols):
            term = c_mul(a[i][j], minor(i + 1, cols[:t] + cols[t + 1:]))
            out = c_add(out, term if t % 2 == 0 else c_neg(term))
        return out

    return minor(0, tuple(range(len(a))))


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


gaussian_integer = st.builds(Scalar, st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def products(draw, rows=None, cols=None, singular=None):
    """A non-real Gaussian-integer matrix, at least 2 x 2 and at most 8 x 8,
    as the product of a rows x k and a k x cols factor; singular draws have
    k < min(rows, cols), so their rank is below both."""
    r = rows if rows is not None else draw(st.integers(2, 8))
    c = cols if cols is not None else draw(st.integers(2, 8))
    deficient = draw(st.booleans()) if singular is None else singular
    k = draw(st.integers(1, min(r, c) - 1 if deficient else min(r, c)))
    x = Matrix(r, k, [draw(gaussian_integer) for _ in range(r * k)])
    y = Matrix(k, c, [draw(gaussian_integer) for _ in range(k * c)])
    m = x * y
    assume(not m.is_real())
    return m


def within_hadamard_bound(m, system=None):
    """Eliminate the numerator rows of m with both parts and check every entry
    left against Hadamard's bound: each should be a minor of the input, so
    |x|^2 <= the product over input rows of max(1, |row|^2).  With `system`,
    the bound is taken over its rows instead: m's rows then come from a
    reduction of system's."""
    c = m.cols
    mr, mi = numerators(m)
    rr = [mr[i * c:(i + 1) * c] for i in range(m.rows)]
    ri = [mi[i * c:(i + 1) * c] for i in range(m.rows)]
    s = m if system is None else system
    sr, si = numerators(s)
    bound = 1
    for i in range(s.rows):
        bound *= max(1, sum(x * x + y * y for x, y in zip(sr[i * c:(i + 1) * c],
                                                          si[i * c:(i + 1) * c])))
    _eliminate(rr, ri, c)
    return all(x * x + y * y <= bound for xs, ys in zip(rr, ri) for x, y in zip(xs, ys))


@given(products(singular=True))
@settings(max_examples=100, deadline=None)
def test_elimination_of_gaussian_rows_stays_within_hadamard_bound(a):
    assert within_hadamard_bound(a)


def assert_canonical(m):
    """m stores only nonzero numerators, in rows and columns of its shape,
    with no empty row, reduced over a positive denominator, and equals and
    hashes like the Matrix built from its entries."""
    assert m.den > 0
    stored = [(i, j, v) for part in (m.re, m.im) for i, row in part.items() for j, v in row.items()]
    assert all(part[i] for part in (m.re, m.im) for i in part)
    assert all(0 <= i < m.rows and 0 <= j < m.cols and v for i, j, v in stored)
    assert gcd(m.den, *(v for _, _, v in stored)) == 1
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


@st.composite
def mixed_entries(draw):
    """One value written as an int, a Fraction, a literal (numerators over
    unreduced, mixed denominators) or a Scalar, with its (re, im) Fractions."""
    a, da = draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 4, 6]))
    b, db = draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 5]))
    kind = draw(st.sampled_from(["int", "fraction", "literal", "scalar"]))
    if kind == "int":
        return a, (Fraction(a), Fraction(0))
    if kind == "fraction":
        return Fraction(a, da), (Fraction(a, da), Fraction(0))
    pair = (Fraction(a, da), Fraction(b, db))
    return (f"{a}/{da}{b:+d}/{db}i" if kind == "literal" else Scalar(*pair)), pair


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mixed_entries_match_fraction_pairs(data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    drawn = [data.draw(mixed_entries()) for _ in range(rows * cols)]
    m = Matrix(rows, cols, [v for v, _ in drawn])
    assert ref_of(m) == [[p for _, p in drawn[i * cols:(i + 1) * cols]] for i in range(rows)]
    assert_canonical(m)
    k, kk = data.draw(mixed_entries())
    assert ref_of(m.scale(k)) == [[c_mul(kk, x) for x in row] for row in ref_of(m)]
    assert_canonical(m.scale(k))


@given(matrices() | products())
@settings(max_examples=120, deadline=None)
def test_rank_and_kernel_match_reference(a):
    rref, pivots = ref_rref(ref_of(a))
    assert a.rank() == len(pivots)
    k = a.kernel()
    assert k.cols == a.cols
    assert [pairs(k.row(r)) for r in range(k.rows)] == ref_kernel(rref, pivots, a.cols)
    assert_canonical(k)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_real_rref_is_real_and_canonical(rows, cols, data):
    # rows over mixed denominators, so that the pivot rows of the RREF come
    # over different denominators and are scaled to a common one
    entries = [Fraction(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, 2, 3, 6])))
               for _ in range(rows * cols)]
    a = Matrix(rows, cols, entries)
    m, pivots = a._rref()
    rref, want_pivots = ref_rref(ref_of(a))
    want = Matrix(rows, cols, [Scalar(*v) for row in rref for v in row])
    assert m.is_real() and pivots == want_pivots
    assert m == want and hash(m) == hash(want)
    assert_canonical(m)


@st.composite
def real_squares(draw):
    """A real n x n matrix, 2 <= n <= 8, the product of integer factors of
    inner dimension k <= n (singular when k < n) over a denominator."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    entries = st.integers(-4, 4)
    x = Matrix(n, k, [draw(entries) for _ in range(n * k)])
    y = Matrix(k, n, [draw(entries) for _ in range(k * n)])
    return (x * y).scale(Fraction(1, draw(st.sampled_from([1, 2, 6]))))


@given(real_squares())
@settings(max_examples=120, deadline=None)
def test_real_det_matches_reference(a):
    d = a.det()
    assert (d.re, d.im) == ref_det(ref_of(a))


@given(st.integers(1, 4).flatmap(lambda n: matrices(rows=n, cols=n))
       | st.integers(2, 8).flatmap(lambda n: products(rows=n, cols=n)))
@settings(max_examples=120, deadline=None)
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


# -- the product and the unfoldings against their definitions ----------

def entries(real):
    """Nonzero entries over mixed denominators, real or with nonzero imaginary part."""
    im = st.just(0) if real else st.integers(-4, 4).filter(bool)
    return st.builds(lambda a, da, b, db: Scalar(Fraction(a, da), Fraction(b, db)),
                     st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4, 6]),
                     im, st.sampled_from([1, 2, 5]))


@st.composite
def factors(draw, rows, cols, sparse=False):
    """A rows x cols matrix, drawn real or not, with any of its rows and
    columns zero; a sparse one has at most three nonzero entries."""
    entry = entries(draw(st.booleans()))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    if sparse:
        keep = set(draw(st.lists(st.sampled_from(cells), max_size=3)))
    else:
        zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)) if rows else ()
        zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1)) if cols else ()
        keep = {(i, j) for i, j in cells if i not in zero_rows and j not in zero_cols}
    return Matrix(rows, cols, [draw(entry) if c in keep else ZERO for c in cells])


@st.composite
def product_operands(draw):
    """Operands of every shape the kernel treats apart: any with a side of
    length 0, a 3 x 3 times a 3 x 0 kernel basis, and tall sparse left ones."""
    shape = draw(st.sampled_from(["dense"] * 4 + ["empty", "kernel", "tall"]))
    if shape == "kernel":
        return draw(factors(3, 3)), Matrix(3, 0, [])
    if shape == "tall":
        return draw(factors(16, 4, sparse=True)), draw(factors(4, draw(st.integers(0, 4))))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    if shape == "empty":
        n, k, m = draw(st.sampled_from([(0, k, m), (n, 0, m), (n, k, 0)]))
    return draw(factors(n, k)), draw(factors(k, m))


@given(product_operands())
@settings(max_examples=300, deadline=None)
def test_product_matches_reference(operands):
    a, b = operands
    got = a * b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert ref_of(got) == ref_mul(ref_of(a), ref_of(b), b.cols)
    assert got.is_real() == all(v.is_real() for v in got.entries())
    assert_canonical(got)


@st.composite
def unfold_inputs(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    return d, [draw(factors(d, d)) for _ in range(n)]


@given(unfold_inputs())
@settings(max_examples=150, deadline=None)
def test_unfoldings_match_their_definition(inputs):
    d, mats = inputs
    n = len(mats)
    stacked = stack(mats, d)
    row, stacked_t = unfold(stacked)
    assert stacked_t == block_transpose(stacked)
    assert stacked == Matrix(n * d, d, [mats[p][r, c] for p in range(n)
                                        for r in range(d) for c in range(d)])
    assert row == Matrix(d, n * d, [mats[p][r, c] for r in range(d)
                                    for p in range(n) for c in range(d)])
    assert stacked_t == Matrix(n * d, d, [mats[p][c, r] for p in range(n)
                                          for r in range(d) for c in range(d)])
    for m in (stacked, row, stacked_t):
        assert m.is_real() == all(x.is_real() for x in mats)
        assert_canonical(m)


# -- the sparse form of every operation's result -------------------------

def flat(rows):
    return [v for row in rows for v in row]


def assert_is_reference(got, rows, cols, pairs):
    """got is reduced, stores no zero, and equals and hashes like the Matrix
    built from the dense reference: row-major (re, im) Fraction pairs."""
    want = Matrix(rows, cols, [Scalar(*p) for p in pairs])
    assert (got.rows, got.cols) == (rows, cols)
    assert got == want and hash(got) == hash(want)
    assert_canonical(got)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_operation_stores_only_nonzero_reduced_entries(data):
    # any side may be 0; operands real or not, over mixed denominators
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b, x = data.draw(factors(r, k)), data.draw(factors(r, k)), data.draw(factors(k, c))
    z = data.draw(gauss)
    ra, rb, rx = ref_of(a), ref_of(b), ref_of(x)
    zz = (z.re, z.im)
    assert_is_reference(a * x, r, c, flat(ref_mul(ra, rx, c)))
    assert_is_reference(a + b, r, k, [c_add(p, q) for p, q in zip(flat(ra), flat(rb))])
    assert_is_reference(a - b, r, k, [c_add(p, c_neg(q)) for p, q in zip(flat(ra), flat(rb))])
    assert_is_reference(-a, r, k, [c_neg(p) for p in flat(ra)])
    assert_is_reference(a.scale(z), r, k, [c_mul(zz, p) for p in flat(ra)])
    assert_is_reference(a.transpose(), k, r, [ra[i][j] for j in range(k) for i in range(r)])
    for shape in ((k, r), (1, r * k), (r * k, 1)):
        assert_is_reference(a.reshape(*shape), *shape, flat(ra))
    r0, c0 = data.draw(st.integers(0, r)), data.draw(st.integers(0, k))
    r1, c1 = data.draw(st.integers(r0, r)), data.draw(st.integers(c0, k))
    assert_is_reference(a._block(r0, r1, c0, c1), r1 - r0, c1 - c0,
                        [ra[i][j] for i in range(r0, r1) for j in range(c0, c1)])
    if r:
        y = data.draw(factors(r, c))
        assert_is_reference(_hstack(a, y, b), r, 2 * k + c,
                            flat(p + q + s for p, q, s in zip(ra, ref_of(y), rb)))
    rref, pivots = ref_rref(ra)
    m, got_pivots = a._rref()
    assert got_pivots == pivots
    assert_is_reference(m, r, k, flat(rref))
    basis = ref_kernel(rref, pivots, k)
    assert_is_reference(_kernel(m, pivots, k), len(basis), k, flat(basis))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cut_unfold_and_combine_store_only_nonzero_reduced_entries(data):
    d, n, c = (data.draw(st.integers(low, 3)) for low in (1, 0, 0))
    mats = [data.draw(factors(d, d)) for _ in range(n)]
    refs = [ref_of(m) for m in mats]
    stacked = stack(mats, d)
    row, stacked_t = unfold(stacked)
    for got, pairs in ((stacked, flat(flat(refs))),
                       (row, [refs[p][i][j] for i in range(d) for p in range(n) for j in range(d)]),
                       (stacked_t, [refs[p][j][i] for p in range(n) for i in range(d)
                                    for j in range(d)])):
        assert_is_reference(got, *((d, n * d) if got is row else (n * d, d)), pairs)
    x = data.draw(factors(n, c))
    rx = ref_of(x)
    # X_a = sum_p x[p, a] M_p, stacked
    assert_is_reference(combine(stacked, x), c * d, d, [
        _c_sum(c_mul(rx[p][a], refs[p][i][j]) for p in range(n))
        for a in range(c) for i in range(d) for j in range(d)])
    # n pieces of a (n p) x q matrix, consecutive or interleaved, and of the
    # same entries n rows long, so that the rows are cut
    p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    m = data.draw(factors(n * p, q))
    entries = flat(ref_of(m))
    for source in (m, m.reshape(n, p * q) if n else m):
        for t, piece in enumerate(cut(source, p, q)):
            assert_is_reference(piece, p, q, entries[t * p * q:(t + 1) * p * q])
        if n > 1:
            for t, piece in enumerate(cut(source, p, q, n)):
                assert_is_reference(piece, p, q, entries[t::n])


# -- identity_test reads the residual off the products' nonzero entries ---

def ref_holds(sizes, claim, t):
    """Dense reference: whether the claim's terms, each read entry by entry at
    the row-major position its axes give t (as i, j, k) and every output
    index, sum to zero."""
    outputs = sorted(a for a in sizes if a not in "ijk")
    for out in itertools.product(*(range(sizes[a]) for a in outputs)):
        at = dict(zip("ijk", t)) | dict(zip(outputs, out))
        total = ZERO
        for sign, m, axes in claim:
            k = 0
            for a in axes:
                k = k * sizes[a] + at[a]
            total = total + m[k // m.cols, k % m.cols] * sign
        if not total.is_zero():
            return False
    return True


def ref_record(rep, claims, tuples, holds, failures_only=False, at=None):
    """Dense reference for `Report.record_tuples`: the per-tuple recorder,
    evaluating holds(*t) (one flag, or one per name) at every tuple t."""
    single = isinstance(claims, str)
    held = True
    for t in tuples:
        flags = holds(*t)
        for name, ok in zip((claims,) if single else claims, (flags,) if single else flags):
            if ok and (failures_only or at is not None):
                continue
            held = held and ok
            idx = tuple(i + 1 for i in t)
            if at is not None:
                rep.record(name, at, False, idx)
                return False
            rep.record(name, idx, ok, None if ok else idx)
    if at is not None:
        rep.record(claims, at, True)
    return held


@st.composite
def claims(draw, ordered=0):
    """Sizes for i, j and an output r, i and j equal for ordered > 1 (they
    share one range), and a claim of up to three terms whose products have
    any shape their entries fill, a letter possibly split between rows and
    columns, and few nonzero entries."""
    sizes = {a: draw(st.integers(1, 3)) for a in "ijr"}
    if ordered > 1:
        sizes["j"] = sizes["i"]
    total = sizes["i"] * sizes["j"] * sizes["r"]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.sampled_from([d for d in range(1, total + 1) if total % d == 0]))
        axes = "".join(draw(st.permutations("ijr")))
        terms.append((draw(st.sampled_from([1, -1, 2])),
                      draw(factors(rows, total // rows, sparse=True)), axes))
    return sizes, terms


@given(st.lists(st.integers(0, 4), max_size=3).flatmap(
    lambda ranges: st.tuples(st.just(ranges), st.integers(0, len(ranges)))))
def test_members_are_the_increasing_tuples_in_lexicographic_order(case):
    ranges, ordered = case
    ranges[:ordered] = ranges[:1] * ordered  # the ordered indices share one range
    assert list(members(ranges, ordered)) == [
        t for t in itertools.product(*map(range, ranges))
        if all(t[a] < t[a + 1] for a in range(ordered - 1))]


@given(st.sampled_from([0, 2]), st.data())
@settings(max_examples=200, deadline=None)
def test_support_read_matches_the_dense_residual(ordered, data):
    sizes, claim = data.draw(claims(ordered))
    tuples, (fails,) = identity_test(sizes, claim, ordered=ordered)
    tuples = list(tuples)
    assert tuples == list(members((sizes["i"], sizes["j"]), ordered))
    assert fails == {t for t in tuples if not ref_holds(sizes, claim, t)}


@st.composite
def sliced_claims(draw, ordered=0):
    """Sizes for i, j and an output r, i and j equal for ordered > 1, and a
    claim of up to three sliced terms, left[i] * right or left * right[i],
    each also given whole: the slices' products stacked over i, read with i
    as the outermost axis."""
    sizes = {a: draw(st.integers(1, 3)) for a in "ijr"}
    if ordered > 1:
        sizes["j"] = sizes["i"]
    n, total = sizes["i"], sizes["j"] * sizes["r"]
    sliced, whole = [], []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.sampled_from([d for d in range(1, total + 1) if total % d == 0]))
        inner = draw(st.integers(1, 3))
        if draw(st.booleans()):
            pair = [draw(factors(rows, inner, sparse=True)) for _ in range(n)], draw(
                factors(inner, total // rows, sparse=True))
            pieces = [piece * pair[1] for piece in pair[0]]
        else:
            pair = draw(factors(rows, inner, sparse=True)), [
                draw(factors(inner, total // rows, sparse=True)) for _ in range(n)]
            pieces = [pair[0] * piece for piece in pair[1]]
        sign, axes = draw(st.sampled_from([1, -1, 2])), "".join(draw(st.permutations("jr")))
        sliced.append((sign, pair, axes))
        whole.append((sign, Matrix.from_rows([list(p.row(r)) for p in pieces
                                              for r in range(rows)]), "i" + axes))
    return sizes, sliced, whole


_MODES = ({}, {"failures_only": True})


def assert_records_like_the_reference(names, test, ref):
    """record_tuples reading test's failing sets, its members streamed,
    records what the per-tuple reference records from ref at those members,
    in both modes."""
    tuples, failing = test
    tuples = list(tuples)
    for mode in _MODES:
        new, old = Report(), Report()
        got = new.record_tuples(names, (iter(tuples), failing), **mode)
        want = ref_record(old, names, tuples, ref, **mode)
        assert (got, new.to_json()) == (want, old.to_json()), mode


@given(st.sampled_from([0, 2]), st.data())
@settings(max_examples=200, deadline=None)
def test_key_set_recording_matches_the_dense_reference(ordered, data):
    case = data.draw(st.one_of(claims(ordered), sliced_claims(ordered)))
    if len(case) == 3:
        sizes, claim, whole = case
    else:
        (sizes, claim), whole = case, case[1]
    holds = functools.cache(lambda *t: ref_holds(sizes, whole, t))
    first = functools.cache(lambda *t: ref_holds(sizes, whole[:1], t))
    assert_records_like_the_reference("claim", identity_test(sizes, claim, ordered=ordered),
                                      holds)
    # two claims, the second the first one's first term, recorded interleaved
    assert_records_like_the_reference(("claim", "first"),
                                      identity_test(sizes, claim, claim[:1], ordered=ordered),
                                      lambda *t: (holds(*t), first(*t)))


def test_residual_at_non_member_tuples_only_is_no_failure():
    # x[r, i n + j] is nonzero only where j < i: with i < j every member
    # holds, so the failing set is empty and the check passes
    n = 4
    sizes = {"i": n, "j": n, "r": n}
    x = Matrix(n, n * n, [r + 1 if j < i else 0 for r in range(n) for i in range(n)
                          for j in range(n)])
    assert identity_test(sizes, [(1, x, "rij")])[1] == ({(i, j) for i in range(n)
                                                         for j in range(i)},)
    test = identity_test(sizes, [(1, x, "rij")], ordered=2)
    assert test[1] == (set(),)
    rep = Report()
    assert rep.record_tuples("claim", test)
    assert rep.passed and len(rep.results) == n * (n - 1) // 2


def test_claim_without_output_index_reads_each_tuple():
    # [e_i, e_j] + [e_j, e_i] at e_k: zero for an antisymmetric bracket, and
    # nonzero exactly at the tuples touching a symmetric pair (0, 1) at e_2
    n = 3
    good = Matrix(n, n * n, [(i - j) * (k + 1) for k in range(n) for i in range(n)
                             for j in range(n)])
    bad = good + Matrix(n, n * n, [1 if k == 2 and {i, j} == {0, 1} else 0 for k in range(n)
                                   for i in range(n) for j in range(n)])
    sizes = {"i": n, "j": n, "k": n}
    for m in (good, bad):
        claim = [(1, m, "kij"), (1, m, "kji")]
        tuples, (fails,) = identity_test(sizes, claim)
        tuples = list(tuples)
        assert fails == {t for t in tuples if not ref_holds(sizes, claim, t)}
        assert fails == (set() if m is good else {(0, 1, 2), (1, 0, 2)})


def test_sliced_products_match_the_whole_product():
    # per value of i, left[i] * right: the claim over slices agrees with the
    # one product [left_0 right; ...; left_n-1 right] read at the same letters
    n, m = 3, 2
    left = [Matrix(m, n, [(i + 2 * r - c) % 3 - 1 for r in range(m) for c in range(n)])
            for i in range(n)]
    right = Matrix(n, n * m, [(r * c + 1) % 4 - 2 for r in range(n) for c in range(n * m)])
    whole = Matrix.from_rows([list((piece * right).row(r)) for piece in left for r in range(m)])
    sizes = {"i": n, "j": n, "r": m, "s": m}
    _, (fails,) = identity_test(sizes, [(1, (left, right), "rjs")])
    assert fails
    for other in (Matrix.zero(n * m, n * m), whole):
        _, (full,) = identity_test(sizes, [(1, whole, "irjs"), (-1, other, "irjs")])
        assert full == (set() if other is whole else fails)


def test_sliced_products_are_made_only_for_member_starts():
    # with i < j < k no member starts at n - 2 or n - 1, so those slices,
    # here None, are never read; the others agree with the whole product
    n = 4
    right = Matrix(n, n * n, [(r + 2 * c) % 5 - 2 for r in range(n) for c in range(n * n)])
    left = [Matrix.identity(n)] * (n - 2) + [None, None]
    whole = Matrix.from_rows([list(right.row(r)) for _ in range(n) for r in range(n)])
    sizes = {"i": n, "j": n, "k": n, "r": n}
    _, (fails,) = identity_test(sizes, [(1, (left, right), "jkr")], ordered=3)
    _, (want,) = identity_test(sizes, [(1, whole, "ijkr")], ordered=3)
    assert fails == want and want


# -- one plan per identity shape ------------------------------------------

def _split(draw, sizes, axes, other_width=False):
    """A row count for a product of these axes: any that divides its entries,
    or one whose width is not the last letter's size, where one is."""
    total = prod(sizes[a] for a in axes)
    rows = [d for d in range(1, total + 1) if total % d == 0]
    split = [d for d in rows if total // d != sizes[axes[-1]]]
    return draw(st.sampled_from(split if other_width and split else rows))


def _shaped(draw, sizes, layouts, sliced):
    """A claim with terms laid out as (sign, axes, rows), sparse values, and
    the whole claim the dense reference reads: each term whole, or sliced over
    i as left[i] * Id or Id * right[i], stacked over i for the reference."""
    claim, whole = [], []
    for sign, axes, rows in layouts:
        total = prod(sizes[a] for a in axes)
        if not sliced:
            m = draw(factors(rows, total // rows, sparse=True))
            claim.append((sign, m, axes))
            whole.append((sign, m, axes))
            continue
        pieces = [draw(factors(rows, total // rows, sparse=True)) for _ in range(sizes["i"])]
        pair = ((pieces, Matrix.identity(total // rows)) if draw(st.booleans())
                else (Matrix.identity(rows), pieces))
        claim.append((sign, pair, axes))
        whole.append((sign, Matrix.from_rows([list(p.row(r)) for p in pieces
                                              for r in range(rows)]), "i" + axes))
    return claim, whole


def _reads_like_the_reference(sizes, claim, whole, ordered, tuple_letters):
    tuples, (fails,) = identity_test(sizes, claim, ordered=ordered)
    tuples = list(tuples)
    assert tuples == list(members([sizes[a] for a in tuple_letters], ordered))
    assert fails == {t for t in tuples if not ref_holds(sizes, whole, t)}


@given(st.sampled_from([0, 2, 3]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_each_identity_shape_reads_by_its_own_plan(ordered, sliced, data):
    """Identity tests run one after another in one process, each checked
    against the dense residual: the same axes at other sizes; at the same
    sizes the axes permuted, and split at other rows, a width other than the
    columns read; and the same shape at ordered 0.  Whatever plans earlier
    shapes left cached, each reads as the reference does, and a shape seen
    before is not planned again."""
    tuple_letters = "ijk"[:data.draw(st.integers(max(ordered, 2), 3))]
    letters = tuple_letters + "r"

    def draw_sizes():
        sizes = {a: data.draw(st.integers(1, 3)) for a in letters}
        for a in tuple_letters[1:ordered]:  # the ordered indices share one range
            sizes[a] = sizes["i"]
        return sizes

    def draw_axes():
        return "".join(data.draw(st.permutations(letters[sliced:])))

    def layouts(sizes, axes, other_width=False):
        return [(sign, a, _split(data.draw, sizes, a, other_width))
                for sign, a in zip(signs, axes)]

    signs = data.draw(st.lists(st.sampled_from([1, -1, 2]), min_size=1, max_size=3))
    axes = [draw_axes() for _ in signs]
    sizes = draw_sizes()
    base, other = layouts(sizes, axes), draw_sizes()
    cases = [(sizes, base, ordered), (other, layouts(other, axes), ordered),
             (sizes, layouts(sizes, [draw_axes() for _ in signs]), ordered)]
    if ordered:
        cases.append((sizes, base, 0))
    for at, laid, order in cases:
        claim, whole = _shaped(data.draw, at, laid, sliced)
        _reads_like_the_reference(at, claim, whole, order, tuple_letters)
    # the first shape again, its products split to another width: one plan
    claim, whole = _shaped(data.draw, sizes, layouts(sizes, axes, other_width=True), sliced)
    before = _layout.cache_info()
    _reads_like_the_reference(sizes, claim, whole, ordered, tuple_letters)
    after = _layout.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
