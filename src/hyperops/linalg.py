"""Dense exact matrices over Q(i) and the linear-system kernel.

Everything downstream (operator identities, cocycle systems, form searches)
reduces to the handful of primitives here: product, inverse, rank, kernel,
affine solving, and the determinant of a pencil sum t_k M_k of square
matrices, at integer points t or as a sparse polynomial in t.

A Matrix holds Gaussian-integer numerators over one denominator: integer
tuples ``re`` and ``im`` (row-major) and a positive integer ``den``, so entry
(i, j) is (re[k] + im[k] i) / den with k = i * cols + j.  The triple is
reduced (den and all numerators have gcd 1), which makes it unique, so
equality and hashing compare it structurally.  Product, sum, negation,
scaling, transpose and stacking are integer loops that skip the imaginary
parts of real operands; a product sums the right operand's rows over the
left's nonzero entries, skipping zero rows on both sides.  ``det`` and the
reduced row echelon form behind ``rank``, ``inv``, ``kernel`` and
``solve_affine`` run one fraction-free elimination, ``_eliminate``, with two
row updates: the RREF divides real rows by their gcd; otherwise rows are
divided exactly, in Z or Z[i], by the previous pivot (E. Bareiss, Math. Comp.
22, 1968; the Gauss-Jordan form is in Nakos, Turner and Williams, SIGSAM
Bull. 31, 1997), so each entry stays a minor of the input.  RREF, determinant
and inverse are unique, so every pivot, kernel basis and inverse is the one
field arithmetic gives.

Scalar is the boundary type.  Constructors of matrices, forms and algebras
read ints, Fractions, literals and Scalars with ``scalars.as_gaussian`` and
sum them with ``accumulate``.  ``__getitem__``, ``row``, ``col`` and
``entries`` return Scalars, built on first access and cached, and so do
``det`` and ``solve_affine``.
``kernel`` returns its basis as the rows of one Matrix; a pencil is those
rows and a linear map from them to square matrices (`det_witness`), or a
sequence of Matrices.  Poly keeps Scalar coefficients.

Every basis-tuple identity of the library is evaluated by ``identity_test``:
signed products of the inputs with the ``unfold``-ed structure constants,
each read at strides at every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .scalars import ONE, ZERO, Scalar, as_gaussian


class DimensionError(ValueError):
    """Shape mismatch; message names both shapes."""


class SingularMatrixError(ValueError):
    def __init__(self, rank: int, n: int):
        self.rank = rank
        super().__init__(f"singular matrix: rank {rank} < {n}")


def accumulate(size: int, terms) -> tuple[list, list, int]:
    """Numerator lists (re, im) of length `size` over one denominator, where
    each of terms (position, sign, value) adds sign times its value, any value
    `as_gaussian` takes.  Every constructor sums its input through here."""
    terms = [(at, sign, as_gaussian(v)) for at, sign, v in terms]
    den = lcm(*(d for _, _, (_, _, d) in terms))
    re, im = [0] * size, [0] * size
    for at, sign, (a, b, d) in terms:
        f = sign * (den // d)
        re[at] += a * f
        im[at] += b * f
    return re, im, den


def _products(a_rows, b_rows, live, m: int) -> list:
    """The row-major product of a_rows and b_rows (rows of width m): row i
    sums a_rows[i][j] * b_rows[j] over the nonzero a_rows[i][j], and is zero
    outside the rows in live."""
    out = [0] * (len(a_rows) * m)
    for i in live:
        acc = None
        for a, b in zip(a_rows[i], b_rows):
            if a:
                b = b if a == 1 else list(map(mul, repeat(a, m), b))
                acc = b if acc is None else list(map(add, acc, b))
        if acc is not None:
            out[i * m:(i + 1) * m] = acc
    return out


class Matrix:
    """Immutable dense matrix over Q(i): numerator tuples re, im over den."""

    __slots__ = ("rows", "cols", "re", "im", "den", "_real", "_s", "_h")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        terms = [(k, 1, v) for k, v in enumerate(entries)]
        if len(terms) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(terms)}")
        self._set(rows, cols, *accumulate(len(terms), terms))

    def _set(self, rows, cols, re, im, den, reduce=True, real=False):
        if reduce and den != 1:
            g = gcd(den, *re) if real else gcd(den, *re, *im)
            if g != 1:
                re = [v // g for v in re]
                im = im if real else [v // g for v in im]
                den //= g
        self.rows = rows
        self.cols = cols
        self.re = tuple(re)
        self.im = tuple(im)
        self.den = den
        self._real = real or not any(im)
        self._s = self._h = None

    @classmethod
    def _make(cls, rows: int, cols: int, re, im, den: int, reduce: bool = True,
              real: bool = False) -> "Matrix":
        """From integer numerators over a positive denominator; `reduce` divides
        out their common factor (skip it only for numerators already reduced),
        and `real` says that im is all zero, which then goes unread."""
        m = cls.__new__(cls)
        m._set(rows, cols, re, im, den, reduce, real)
        return m

    # -- constructors --------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), c, [v for row in rows for v in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        ones = [1 if i == j else 0 for i in range(n) for j in range(n)]
        return cls._make(n, n, ones, (0,) * (n * n), 1, reduce=False, real=True)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        z = (0,) * (rows * cols)
        return cls._make(rows, cols, z, z, 1, reduce=False, real=True)

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls(len(entries), 1, entries)

    @classmethod
    def diag(cls, entries: Sequence) -> "Matrix":
        n = len(entries)
        terms = [(i * (n + 1), 1, v) for i, v in enumerate(entries)]
        return cls._make(n, n, *accumulate(n * n, terms))

    # -- access --------------------------------------------------------
    def _scalar(self, k: int) -> Scalar:
        s = self._s
        if s is None:
            s = self._s = [None] * len(self.re)
        v = s[k]
        if v is None:
            a, b = self.re[k], self.im[k]
            v = s[k] = Scalar(Fraction(a, self.den), Fraction(b, self.den)) if a or b else ZERO
        return v

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._scalar(i * self.cols + j)

    def row(self, i: int) -> tuple:
        return tuple(self._scalar(k) for k in range(i * self.cols, (i + 1) * self.cols))

    def col(self, j: int) -> tuple:
        return tuple(self._scalar(i * self.cols + j) for i in range(self.rows))

    def entries(self) -> tuple:
        return tuple(self._scalar(k) for k in range(len(self.re)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):  # cached: predicate memo keys hash the same matrices often
        if self._h is None:
            self._h = hash((self.rows, self.cols, self.den, self.re, self.im))
        return self._h

    def __repr__(self):
        body = "; ".join(" ".join(v.render() for v in self.row(i)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries as a rows x cols matrix."""
        if rows * cols != len(self.re):
            raise DimensionError(f"reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return Matrix._make(rows, cols, self.re, self.im, self.den, False, self._real)

    def is_zero(self) -> bool:
        return not any(self.re) and self._real

    def is_real(self) -> bool:
        return self._real

    # -- arithmetic ----------------------------------------------------
    def _same_shape(self, other: "Matrix", op: str):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"{op}: shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} differ"
            )

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        re = [a * fa + b * fb for a, b in zip(self.re, other.re)]
        if self._real and other._real:
            im = self.im
        else:
            im = [a * fa + b * fb for a, b in zip(self.im, other.im)]
        return Matrix._make(self.rows, self.cols, re, im, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other, "add")
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other, "sub")
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        im = self.im if self._real else [-v for v in self.im]
        return Matrix._make(self.rows, self.cols, [-v for v in self.re], im, self.den,
                            False, self._real)

    def scale(self, k) -> "Matrix":
        kr, ki, kd = as_gaussian(k)
        if ki == 0:
            re = [kr * a for a in self.re]
            im = self.im if self._real else [kr * b for b in self.im]
        else:
            re = [kr * a - ki * b for a, b in zip(self.re, self.im)]
            im = [ki * a + kr * b for a, b in zip(self.re, self.im)]
        return Matrix._make(self.rows, self.cols, re, im, self.den * kd,
                            real=self._real and not ki)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product (`scale` for a non-Matrix): the right operand's rows summed over
        the left's nonzero entries, reading no zero row and no real operand's im."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"mul: shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} incompatible"
            )
        n, k, m = self.rows, self.cols, other.cols
        inner = [j for j in range(k) if any(other.re[j * m:j * m + m])
                 or not other._real and any(other.im[j * m:j * m + m])]
        a_re = [self.re[j::k] for j in inner]
        a_im = None if self._real else [self.im[j::k] for j in inner]
        live = sorted({i for c in a_re + (a_im or []) for i in compress(range(n), c)})
        if not live:
            return Matrix.zero(n, m)
        a_re, a_im = list(zip(*a_re)), a_im and list(zip(*a_im))
        b_re = [other.re[j * m:j * m + m] for j in inner]
        b_im = None if other._real else [other.im[j * m:j * m + m] for j in inner]
        re, den = _products(a_re, b_re, live, m), self.den * other.den
        if not (a_im or b_im):
            return Matrix._make(n, m, re, (0,) * (n * m), den, real=True)
        im = [_products(a, b, live, m) for a, b in ((a_re, b_im), (a_im, b_re)) if a and b]
        if a_im and b_im:
            re = list(map(sub, re, _products(a_im, b_im, live, m)))
        return Matrix._make(n, m, re, im[0] if len(im) == 1 else list(map(add, *im)), den)

    def __rmul__(self, k) -> "Matrix":
        return self.scale(k)

    def transpose(self) -> "Matrix":
        c = self.cols
        re = [v for j in range(c) for v in self.re[j::c]]
        im = self.im if self._real else [v for j in range(c) for v in self.im[j::c]]
        return Matrix._make(c, self.rows, re, im, self.den, False, self._real)

    def _block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1."""
        c = self.cols
        re = [v for i in range(r0, r1) for v in self.re[i * c + c0:i * c + c1]]
        im = () if self._real else [v for i in range(r0, r1)
                                    for v in self.im[i * c + c0:i * c + c1]]
        return Matrix._make(r1 - r0, c1 - c0, re, im or (0,) * len(re), self.den, real=self._real)

    # -- elimination ---------------------------------------------------
    def _rref(self) -> tuple["Matrix", list]:
        """Reduced row echelon form, as a Matrix, and the pivot column list.

        Gauss-Jordan (`_eliminate`) with first-nonzero pivoting on the
        integer numerator rows; each pivot row is divided by its pivot at the
        end.  Deterministic and canonical (pivots normalized to 1).  Real
        rows stay real: no imaginary list is built, scaled or scanned.
        """
        c, real = self.cols, self._real
        rr = [list(self.re[i * c:(i + 1) * c]) for i in range(self.rows)]
        ri = None if real else [list(self.im[i * c:(i + 1) * c]) for i in range(self.rows)]
        pivots = _eliminate(rr, ri, c)[0]
        # divide each pivot row by its pivot, then put all rows over one denominator
        rows = []
        for r, pc in enumerate(pivots):
            if real:
                re, im, d = rr[r], (), rr[r][pc]
            else:
                pr, pi = rr[r][pc], ri[r][pc]
                d = pr * pr + pi * pi
                re = [a * pr + b * pi for a, b in zip(rr[r], ri[r])]
                im = [b * pr - a * pi for a, b in zip(rr[r], ri[r])]
            g = gcd(d, *re, *im)
            rows.append(([v // g for v in re], [v // g for v in im], d // g))
        den = lcm(*(d for _, _, d in rows))  # positive; f below carries the sign
        re, im = [], []
        for row_re, row_im, d in rows:
            f = den // d
            re += row_re if f == 1 else map(mul, row_re, repeat(f))
            im += row_im if f == 1 else map(mul, row_im, repeat(f))
        re += [0] * ((self.rows - len(pivots)) * c)  # in place: the rows may be many
        im += () if real else [0] * (len(re) - len(im))
        return Matrix._make(self.rows, c, re, im or (0,) * len(re), den, real=real), pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Scalar:
        """Bareiss elimination (`_eliminate`, forward) on the Gaussian-integer
        numerators."""
        if self.rows != self.cols:
            raise DimensionError(f"det of {self.rows}x{self.cols} matrix")
        n = self.rows
        mr = [list(self.re[i * n:(i + 1) * n]) for i in range(n)]
        mi = None if self._real else [list(self.im[i * n:(i + 1) * n]) for i in range(n)]
        pivots, sign, (qr, qi) = _eliminate(mr, mi, n, forward=True)
        if len(pivots) < n:
            return ZERO
        d = self.den ** n
        return Scalar(Fraction(sign * qr, d), Fraction(sign * qi, d))

    def inv(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionError(f"inverse of {self.rows}x{self.cols} matrix")
        n = self.rows
        m, pivots = _hstack(self, Matrix.identity(n))._rref()
        npiv = sum(1 for p in pivots if p < n)
        if npiv < n:
            raise SingularMatrixError(npiv, n)
        return m._block(0, n, n, 2 * n)

    def kernel(self) -> "Matrix":
        """Pivot-normalized basis of the right kernel, one vector a row, in
        the canonical order of the free columns."""
        return _kernel(*self._rref(), self.cols)


def unfold(mats: Sequence[Matrix], d: int) -> tuple:
    """The unfoldings [M_1; ...; M_n] (the row-major numerators end to end),
    [M_1 | ... | M_n] and [M_1^T; ...; M_n^T] (its transpose) of n d x d
    matrices, over one denominator (Kolda and Bader, SIAM Rev. 51(3), 2009)."""
    if not mats:
        return Matrix.zero(0, d), Matrix.zero(d, 0), Matrix.zero(0, d)
    row = _hstack(*mats)
    stacked = _hstack(*(m.reshape(1, d * d) for m in mats)).reshape(len(mats) * d, d)
    return stacked, row, row.transpose()


def combine(stacked: Matrix, x: Matrix) -> Matrix:
    """[X_1; ...; X_c] for X_a = sum_p x[p, a] M_p, from [M_1; ...; M_n] of
    d x d matrices and an n x c matrix x."""
    d = stacked.cols
    return (x.transpose() * stacked.reshape(x.rows, d * d)).reshape(x.cols * d, d)


def cut(m: Matrix, rows: int, cols: int, step: int = 1) -> list:
    """m's row-major entries as rows x cols matrices: consecutive runs, or
    with step > 1, the step interleaved ones (t, t + step, ...)."""
    size = rows * cols
    starts = range(0, len(m.re), size) if step == 1 else range(step)
    return [Matrix._make(rows, cols, m.re[a:a + step * size:step], m.im[a:a + step * size:step],
                         m.den, real=m.is_real()) for a in starts]


def _plan(sign: int, product, axes: str, sizes: dict, last: str) -> tuple:
    """A term as (sign, product, strides of t[0], t[1], t[2], offsets of the
    output indices but the last or None, span and step of the last one),
    reading the tuple letter `last` as an output index."""
    strides, s = {}, 1
    for a in reversed(axes):
        strides[a] = s
        s *= sizes[a]
    *outer, out = sorted(a for a in axes if a not in "ijk" or a == last)
    offsets = [0]
    for a in outer:
        offsets = [o + v * strides[a] for o in offsets for v in range(sizes[a])]
    return (sign, product, tuple(0 if a == last else strides.get(a, 0) for a in "ijk"),
            None if outer == [] else offsets, strides[out] * (sizes[out] - 1) + 1, strides[out])


def _residual(parts, t) -> list:
    """The sum of f times each part's numerators read at t."""
    acc = None
    for f, nums, strides, offsets, span, step in parts:
        b = sum(map(mul, strides, t))
        chunk = (nums[b:b + span:step] if offsets is None
                 else [v for o in offsets for v in nums[b + o:b + o + span:step]])
        if f != 1:
            chunk = map(mul, repeat(f), chunk)
        acc = list(chunk) if acc is None else list(map(add, acc, chunk))
    return acc


def identity_test(sizes: dict, *claims):
    """holds(*t) for `Report.record_tuples`: whether each claim, a sequence
    of terms (sign, product, axes), sums to zero at the basis tuple t (one
    flag, or a tuple of flags for several claims).

    `axes` names the axes of the product's row-major layout: i, j, k are
    t[0], t[1], t[2], any other letter an output index; sizes gives each
    letter's range.  A term reads its product at strides, so swapping two
    letters copies nothing.  A product given as a pair, left or right a
    sequence, is sliced over t[0] (left[t[0]] * right or left * right[t[0]],
    one product per value) and its axes leave out i.  Without output
    indices, t's last index is read as one, once per value of the others."""
    letters = {a for claim in claims for _, _, axes in claim for a in axes}
    last = max(letters) if letters <= set("ijk") else ""
    plans = [[_plan(*term, sizes, last) for term in claim] for claim in claims]

    def parts(at) -> list:  # per claim, real and imaginary parts over one denominator
        out = []
        for claim in plans:
            mats = [p if isinstance(p, Matrix) else
                    p[0][at] * p[1] if isinstance(p[1], Matrix) else p[0] * p[1][at]
                    for _, p, *_ in claim]
            den = lcm(*(m.den for m in mats))
            re = [(sign * (den // m.den), m.re, *read) for (sign, _, *read), m in zip(claim, mats)]
            out.append((re, [(f, m.im, *read) for (f, _, *read), m in zip(re, mats)
                             if not m.is_real()]))
        return out

    state = [None, None, None, None]  # t[0], its parts, t[:-1] and its zero flags when last

    def holds(*t):
        if state[0] != t[0]:
            state[:] = t[0], None, None, None  # the last slice's products go first
            state[1] = parts(t[0])
        if not last:
            flags = [not any(_residual(re, t)) and (not im or not any(_residual(im, t)))
                     for re, im in state[1]]
        else:
            if state[2] != t[:-1]:
                state[2:] = t[:-1], [[not (a or b) for a, b in zip(
                    _residual(re, t), _residual(im, t) if im else repeat(0))]
                    for re, im in state[1]]
            flags = [z[t[-1]] for z in state[3]]
        return flags[0] if len(flags) == 1 else tuple(flags)

    return holds


def _eliminate(rr: list, ri: list | None, cols: int, forward: bool = False) -> tuple:
    """Fraction-free elimination, in place, on the Gaussian-integer rows
    rr + i*ri (ri is None for real rows).  Returns the pivot columns, the sign
    of the row swaps and the last pivot as a pair (re, im).

    Row updates take p, the pivot, and f, the row's entry in the pivot column.
    Without `forward`, a real row with f != 0 becomes p*row - f*pivot_row,
    divided by its gcd.  Otherwise (Bareiss) every row to update becomes
    (p*row - f*pivot_row) / q, q the previous pivot, even when f = 0: only
    with every row at the same step is the division exact (in Z, or Z[i] with
    ri given), and then each entry is a minor of the input.  Without
    `forward`, row r ends as a nonzero multiple of the r-th row of the RREF.

    `forward` (Gaussian elimination) updates only the rows below each pivot,
    with ri given only right of its column, and stops at the first column
    without a pivot.  With a pivot in every column of a square matrix, the
    sign times the last pivot is then its determinant.
    """
    pivots, sign = [], 1
    qr, qi = 1, 0
    nrows, r = len(rr), 0
    for c in range(cols):
        p = next((i for i in range(r, nrows) if rr[i][c] or (ri and ri[i][c])), None)
        if p is None:
            if forward:
                break
            continue
        if p != r:
            rr[r], rr[p] = rr[p], rr[r]
            if ri is not None:
                ri[r], ri[p] = ri[p], ri[r]
            sign = -sign
        start = r + 1 if forward else 0
        br = rr[r]
        pr = br[c]
        if ri is None:
            pi = 0
            for i in range(start, nrows):
                f = rr[i][c]
                if forward:
                    rr[i] = [(pr * a - f * b) // qr for a, b in zip(rr[i], br)]
                elif f and i != r:
                    row = [pr * a - f * b for a, b in zip(rr[i], br)]
                    g = gcd(*row)
                    rr[i] = [v // g for v in row] if g > 1 else row
        else:
            bi = ri[r]
            pi = bi[c]
            norm = qr * qr + qi * qi
            for i in range(start, nrows):
                if i == r:
                    continue
                ar, ai = rr[i], ri[i]
                fr, fi = ar[c], ai[c]
                for j in range(c + 1 if forward else 0, cols):
                    xr = pr * ar[j] - pi * ai[j] - fr * br[j] + fi * bi[j]
                    xi = pr * ai[j] + pi * ar[j] - fr * bi[j] - fi * br[j]
                    ar[j] = (xr * qr + xi * qi) // norm
                    ai[j] = (xi * qr - xr * qi) // norm
        qr, qi = pr, pi
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, sign, (qr, qi)


def _hstack(*blocks: Matrix) -> Matrix:
    """[b_1 | b_2 | ...] for one or more matrices with the same number of rows."""
    rows, real = blocks[0].rows, all(b.is_real() for b in blocks)
    den = lcm(*(b.den for b in blocks))
    scaled = [(b.cols, den // b.den, b) for b in blocks]
    re, im = [], []
    for i in range(rows):
        for c, f, b in scaled:
            at = slice(i * c, (i + 1) * c)
            re += b.re[at] if f == 1 else map(mul, repeat(f), b.re[at])
            if not real:
                im += b.im[at] if f == 1 else map(mul, repeat(f), b.im[at])
    return Matrix._make(rows, sum(b.cols for b in blocks), re, im or (0,) * len(re), den, real=real)


def _kernel(m: Matrix, pivots: list, ncols: int) -> Matrix:
    """Kernel basis read off an RREF, as the rows of one matrix: one row per
    free column among the first ncols, with 1 at the free column and minus
    that column's RREF entries at the pivot columns.  A real RREF gives a
    real kernel, built with no imaginary list."""
    c, real, pivot_set = m.cols, m.is_real(), set(pivots)
    free = [fc for fc in range(ncols) if fc not in pivot_set]
    re, im = [], []
    for fc in free:
        for nums, out, one in ((m.re, re, m.den), (m.im, im, 0))[:1 if real else 2]:
            v = [0] * ncols
            v[fc] = one
            for pc, x in zip(pivots, nums[fc::c]):
                v[pc] = -x
            out += v
    return Matrix._make(len(free), ncols, re, im or (0,) * len(re), m.den, real=real)


@dataclass(frozen=True)
class AffineSolutionSpace:
    """Solution set {particular + span(basis)} of a linear system."""

    particular: tuple
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def solve_affine(a: Matrix, b: Sequence) -> AffineSolutionSpace | None:
    """Full solution set of A x = b, or None when infeasible."""
    if len(b) != a.rows:
        raise DimensionError(f"rhs length {len(b)} != {a.rows} rows")
    m, pivots = _hstack(a, Matrix.column(b))._rref()
    if a.cols in pivots:
        return None
    # feasible: the left block of the RREF of [a | b] is the RREF of a
    particular = [ZERO] * a.cols
    for r, pc in enumerate(pivots):
        particular[pc] = m[r, a.cols]
    k = _kernel(m, pivots, a.cols)
    return AffineSolutionSpace(tuple(particular), tuple(k.row(r) for r in range(k.rows)))


# -- sparse polynomials -----------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial over Q(i): exponent tuple -> nonzero coefficient."""

    variables: int
    terms: tuple = field(default=())  # tuple of (exponents, Scalar)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Poly":
        if c.is_zero():
            return cls(nvars, ())
        return cls(nvars, (((0,) * nvars, c),))

    @classmethod
    def variable(cls, nvars: int, k: int) -> "Poly":
        exp = tuple(1 if i == k else 0 for i in range(nvars))
        return cls(nvars, ((exp, ONE),))

    @classmethod
    def _from_dict(cls, nvars: int, d: dict) -> "Poly":
        terms = tuple(sorted((e, c) for e, c in d.items() if not c.is_zero()))
        return cls(nvars, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, ZERO) + c
        return Poly._from_dict(self.variables, d)

    def __neg__(self) -> "Poly":
        return Poly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        d: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                d[e] = d.get(e, ZERO) + c1 * c2
        return Poly._from_dict(self.variables, d)

    def substitute(self, k: int, value: int) -> "Poly":
        """Set variable k to an integer value; its exponents become 0."""
        d: dict = {}
        for e, c in self.terms:
            e0 = e[:k] + (0,) + e[k + 1:]
            d[e0] = d.get(e0, ZERO) + c * value ** e[k]
        return Poly._from_dict(self.variables, d)

    def nonzero_point(self, degree: int) -> tuple:
        """A point of {0, ..., degree}^variables where this nonzero polynomial,
        of degree at most `degree` in each variable, does not vanish.

        Variables are fixed one at a time to the first value that keeps the
        polynomial nonzero; one of degree + 1 values always does, since a
        nonzero polynomial of degree <= degree in t_k has at most degree
        roots in t_k."""
        if self.is_zero():
            raise ValueError("the zero polynomial vanishes everywhere")
        p, point = self, []
        for k in range(self.variables):
            for v in range(degree + 1):
                q = p.substitute(k, v)
                if not q.is_zero():
                    break
            else:
                raise ValueError(f"degree in t_{k + 1} exceeds {degree}")
            p = q
            point.append(v)
        return tuple(point)

    def evaluate(self, values: Sequence[Scalar]) -> Scalar:
        if len(values) != self.variables:
            raise DimensionError(f"need {self.variables} values, got {len(values)}")
        out = ZERO
        for e, c in self.terms:
            t = c
            for v, k in zip(values, e):
                for _ in range(k):
                    t = t * v
            out = out + t
        return out


def _poly_det(entries: list[list[Poly]], nvars: int) -> Poly:
    """Cofactor expansion along the row with fewest nonzero entries."""
    n = len(entries)
    if n == 0:
        return Poly.constant(nvars, ONE)
    if n == 1:
        return entries[0][0]
    best = min(range(n), key=lambda i: sum(0 if p.is_zero() else 1 for p in entries[i]))
    out = Poly(nvars, ())
    for j, p in enumerate(entries[best]):
        if p.is_zero():
            continue
        minor = [
            [entries[i][k] for k in range(n) if k != j]
            for i in range(n)
            if i != best
        ]
        sub = _poly_det(minor, nvars)
        term = p * sub
        if (best + j) % 2:
            term = -term
        out = out + term
    return out


def generic_determinant(mats: Sequence[Matrix], n: int) -> Poly:
    """det(sum t_k mats[k]) of n x n matrices, as a Poly in t."""
    if any(m.rows != n or m.cols != n for m in mats):
        raise DimensionError(f"a pencil of {n}x{n} matrices needs every matrix {n}x{n}")
    nvars = len(mats)
    units = [tuple(int(v == k) for v in range(nvars)) for k in range(nvars)]
    entries = [[Poly._from_dict(nvars, {e: m[i, j] for e, m in zip(units, mats)})
                for j in range(n)] for i in range(n)]
    return _poly_det(entries, nvars)


def witness_points(nvars: int) -> Iterator[tuple]:
    """The parameter points `det_witness` tries, in order and each made when
    reached: t = (1, 2, ..., nvars), then three points whose coordinates are
    successive terms of x -> (75 x + 74) mod 65537 from x = 1, each reduced
    to x mod 33 - 16."""
    yield tuple(range(1, nvars + 1))
    x = 1
    for _ in range(3):
        point = []
        for _ in range(nvars):
            x = (75 * x + 74) % 65537
            point.append(x % 33 - 16)
        yield tuple(point)


def det_witness(kernel: Matrix, embed: Callable[[Matrix], Matrix]) -> tuple | None:
    """Integer parameters t with det(sum t_k M_k) != 0, or None when that
    determinant is the zero polynomial, where the n x n matrices M_k (n >= 1)
    are the rows of the d x c `kernel` under the linear map `embed` from 1 x c
    rows; with no rows it is the zero matrix, so None.  Given the M_k, the
    kernel is their row-major entries, one a row, and embed reshapes to n x n.

    A nonzero determinant at any point proves the polynomial nonzero, so the
    points of `witness_points` are tried first, each by one Bareiss `det` of
    embed(t kernel).  Only when all give 0 are the M_k built and the
    polynomial expanded by `generic_determinant`: zero means no such t
    exists, and otherwise a point is read off it.  Its degree in each t_k is
    at most n, since every entry is linear in t."""
    d = kernel.rows
    if not d:
        return None
    for point in witness_points(d):
        t = Matrix._make(1, d, point, (0,) * d, 1, reduce=False, real=True)
        if not embed(t * kernel).det().is_zero():
            return point
    mats = [embed(kernel._block(r, r + 1, 0, kernel.cols)) for r in range(d)]
    det = generic_determinant(mats, mats[0].rows)
    return None if det.is_zero() else det.nonzero_point(mats[0].rows)
