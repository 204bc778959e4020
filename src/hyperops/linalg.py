"""Dense exact matrices over Q(i) and the linear-system kernel.

Everything downstream (operator identities, cocycle systems, form searches)
reduces to the handful of primitives here: product, inverse, rank, kernel,
affine solving, and a sparse polynomial for generic-determinant tests.

A Matrix holds Gaussian-integer numerators over one denominator: integer
tuples ``re`` and ``im`` (row-major) and a positive integer ``den``, so entry
(i, j) is (re[k] + im[k] i) / den with k = i * cols + j.  The triple is
reduced (den and all numerators have gcd 1), which makes it unique, so
equality and hashing compare it structurally.  Product, sum, negation,
scaling and transpose are integer loops that skip the imaginary parts of real
operands.  ``det`` is Bareiss elimination with exact division in Z[i]
(E. Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  The reduced row echelon form behind
``rank``, ``inv``, ``kernel_basis`` and ``solve_affine`` comes from
fraction-free Gauss-Jordan elimination on integer rows, each updated row
divided by the gcd of its parts; only the pivot rows are divided out at the
end.  RREF, determinant and inverse are unique, so every pivot, kernel basis
and inverse is the one field arithmetic gives.

Scalar is the boundary type.  Constructors take Scalars (or ints, Fractions,
literals); ``__getitem__``, ``row``, ``col`` and ``entries`` return Scalars,
built on first access and cached, and so do ``det``, the kernel vectors and
affine solutions.  Poly keeps Scalar coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar, scalar


class DimensionError(ValueError):
    """Shape mismatch; message names both shapes."""


class SingularMatrixError(ValueError):
    def __init__(self, rank: int, n: int):
        self.rank = rank
        super().__init__(f"singular matrix: rank {rank} < {n}")


def _to_scalar(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    if isinstance(v, str):
        return scalar(v)
    if isinstance(v, (int, Fraction)):
        return Scalar(Fraction(v))
    raise TypeError(f"bad matrix entry {v!r}")


def gaussian_parts(values: Sequence[Scalar]) -> tuple[list, list, int]:
    """Scalars as (re numerators, im numerators, common denominator).

    The denominator is the lcm of the entries' reduced denominators, so the
    result is already in lowest terms."""
    den = lcm(*(v.re.denominator for v in values), *(v.im.denominator for v in values))
    re = [v.re.numerator * (den // v.re.denominator) for v in values]
    im = [v.im.numerator * (den // v.im.denominator) for v in values]
    return re, im, den


def _products(rows, cols) -> list:
    return [sum(map(mul, r, c)) for r in rows for c in cols]


class Matrix:
    """Immutable dense matrix over Q(i): numerator tuples re, im over den."""

    __slots__ = ("rows", "cols", "re", "im", "den", "_real", "_s")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        s = [_to_scalar(v) for v in entries]
        if len(s) != rows * cols:
            raise DimensionError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(s)}")
        re, im, den = gaussian_parts(s)
        self._set(rows, cols, tuple(re), tuple(im), den)
        self._s = s

    def _set(self, rows, cols, re, im, den):
        self.rows = rows
        self.cols = cols
        self.re = re
        self.im = im
        self.den = den
        self._real = not any(im)
        self._s = None

    @classmethod
    def _make(cls, rows: int, cols: int, re, im, den: int, reduce: bool = True) -> "Matrix":
        """From integer numerators over a positive denominator; `reduce` divides
        out their common factor (skip it only for numerators already reduced)."""
        if reduce and den != 1:
            g = gcd(den, *re, *im)
            if g != 1:
                re = [v // g for v in re]
                im = [v // g for v in im]
                den //= g
        m = cls.__new__(cls)
        m._set(rows, cols, tuple(re), tuple(im), den)
        return m

    # -- constructors --------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        ones = [1 if i == j else 0 for i in range(n) for j in range(n)]
        return cls._make(n, n, ones, (0,) * (n * n), 1, reduce=False)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        z = (0,) * (rows * cols)
        return cls._make(rows, cols, z, z, 1, reduce=False)

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls(len(entries), 1, entries)

    @classmethod
    def diag(cls, entries: Sequence) -> "Matrix":
        n = len(entries)
        m = [ZERO] * (n * n)
        for i, v in enumerate(entries):
            m[i * n + i] = v
        return cls(n, n, m)

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

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.re, self.im))

    def __repr__(self):
        body = "; ".join(" ".join(v.render() for v in self.row(i)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

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
                            reduce=False)

    def scale(self, k) -> "Matrix":
        if type(k) is int:
            kr, ki, kd = k, 0, 1
        else:
            (kr,), (ki,), kd = gaussian_parts([_to_scalar(k)])
        if ki == 0:
            re = [kr * a for a in self.re]
            im = self.im if self._real else [kr * b for b in self.im]
        else:
            re = [kr * a - ki * b for a, b in zip(self.re, self.im)]
            im = [ki * a + kr * b for a, b in zip(self.re, self.im)]
        return Matrix._make(self.rows, self.cols, re, im, self.den * kd)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"mul: shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} incompatible"
            )
        n, k, m = self.rows, self.cols, other.cols
        a_re = [self.re[i * k:(i + 1) * k] for i in range(n)]
        b_re = [other.re[j::m] for j in range(m)]
        re = _products(a_re, b_re)
        if self._real and other._real:
            im = (0,) * (n * m)
        else:
            a_im = [self.im[i * k:(i + 1) * k] for i in range(n)]
            b_im = [other.im[j::m] for j in range(m)]
            if self._real:
                im = _products(a_re, b_im)
            elif other._real:
                im = _products(a_im, b_re)
            else:
                re = [x - y for x, y in zip(re, _products(a_im, b_im))]
                im = [x + y for x, y in zip(_products(a_re, b_im), _products(a_im, b_re))]
        return Matrix._make(n, m, re, im, self.den * other.den)

    def __rmul__(self, k) -> "Matrix":
        return self.scale(k)

    def transpose(self) -> "Matrix":
        c = self.cols
        re = [v for j in range(c) for v in self.re[j::c]]
        im = self.im if self._real else [v for j in range(c) for v in self.im[j::c]]
        return Matrix._make(c, self.rows, re, im, self.den, reduce=False)

    def _block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1."""
        c = self.cols
        re = [v for i in range(r0, r1) for v in self.re[i * c + c0:i * c + c1]]
        im = [v for i in range(r0, r1) for v in self.im[i * c + c0:i * c + c1]]
        return Matrix._make(r1 - r0, c1 - c0, re, im, self.den)

    # -- elimination ---------------------------------------------------
    def _rref(self) -> tuple["Matrix", list]:
        """Reduced row echelon form, as a Matrix, and the pivot column list.

        Gauss-Jordan with first-nonzero pivoting on the integer numerator
        rows: a row is cleared as p*row - f*pivot_row and divided by the gcd
        of its parts, and each pivot row is divided by its pivot at the end.
        Deterministic and canonical (pivots normalized to 1).
        """
        c = self.cols
        rr = [list(self.re[i * c:(i + 1) * c]) for i in range(self.rows)]
        ri = None if self._real else [list(self.im[i * c:(i + 1) * c]) for i in range(self.rows)]
        pivots = _gauss_jordan(rr, ri, c)
        # divide each pivot row by its pivot, then put all rows over one denominator
        rows = []
        for r, pc in enumerate(pivots):
            if ri is None:
                re, im, d = rr[r], [0] * c, rr[r][pc]
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
            re.extend(v * f for v in row_re)
            im.extend(v * f for v in row_im)
        pad = [0] * ((self.rows - len(pivots)) * c)
        return Matrix._make(self.rows, c, re + pad, im + pad, den), pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Scalar:
        """Bareiss fraction-free elimination on the Gaussian-integer
        numerators; each division by the previous pivot q is exact in Z[i]."""
        if self.rows != self.cols:
            raise DimensionError(f"det of {self.rows}x{self.cols} matrix")
        n = self.rows
        mr = [list(self.re[i * n:(i + 1) * n]) for i in range(n)]
        mi = [list(self.im[i * n:(i + 1) * n]) for i in range(n)]
        sign, qr, qi = 1, 1, 0
        for k in range(n):
            p = next((i for i in range(k, n) if mr[i][k] or mi[i][k]), None)
            if p is None:
                return ZERO
            if p != k:
                mr[k], mr[p] = mr[p], mr[k]
                mi[k], mi[p] = mi[p], mi[k]
                sign = -sign
            kr, ki = mr[k], mi[k]
            pr, pi = kr[k], ki[k]
            norm = qr * qr + qi * qi
            for i in range(k + 1, n):
                ar, ai = mr[i], mi[i]
                fr, fi = ar[k], ai[k]
                for j in range(k + 1, n):
                    # (p * a - f * b) / q
                    xr = pr * ar[j] - pi * ai[j] - fr * kr[j] + fi * ki[j]
                    xi = pr * ai[j] + pi * ar[j] - fr * ki[j] - fi * kr[j]
                    ar[j] = (xr * qr + xi * qi) // norm
                    ai[j] = (xi * qr - xr * qi) // norm
            qr, qi = pr, pi
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

    def kernel_basis(self) -> list[tuple]:
        """Pivot-normalized basis of the right kernel, canonical ordering."""
        m, pivots = self._rref()
        return _kernel(m, pivots, self.cols)


def _gauss_jordan(rr: list, ri: list | None, cols: int) -> list:
    """Fraction-free Gauss-Jordan elimination, in place, on the Gaussian-integer
    rows rr + i*ri (ri is None for real rows).  Returns the pivot columns;
    afterwards row r is a nonzero multiple of the r-th row of the RREF."""
    pivots = []
    r = 0
    nrows = len(rr)
    for c in range(cols):
        pr = next((i for i in range(r, nrows) if rr[i][c] or (ri and ri[i][c])), None)
        if pr is None:
            continue
        rr[r], rr[pr] = rr[pr], rr[r]
        if ri is not None:
            ri[r], ri[pr] = ri[pr], ri[r]
        br = rr[r]
        p_r = br[c]
        if ri is None:
            for i in range(nrows):
                f = rr[i][c]
                if i == r or not f:
                    continue
                row = [p_r * a - f * b for a, b in zip(rr[i], br)]
                g = gcd(*row)
                rr[i] = [v // g for v in row] if g > 1 else row
        else:
            bi = ri[r]
            p_i = bi[c]
            for i in range(nrows):
                fr, fi = rr[i][c], ri[i][c]
                if i == r or not (fr or fi):
                    continue
                ar, ai = rr[i], ri[i]
                row_r = [p_r * a - p_i * b - fr * x + fi * y for a, b, x, y in zip(ar, ai, br, bi)]
                row_i = [p_r * b + p_i * a - fr * y - fi * x for a, b, x, y in zip(ar, ai, br, bi)]
                g = gcd(*row_r, *row_i)
                if g > 1:
                    row_r = [v // g for v in row_r]
                    row_i = [v // g for v in row_i]
                rr[i], ri[i] = row_r, row_i
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _hstack(a: Matrix, b: Matrix) -> Matrix:
    """[a | b] for matrices with the same number of rows."""
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    ca, cb = a.cols, b.cols
    re, im = [], []
    for i in range(a.rows):
        re.extend(v * fa for v in a.re[i * ca:(i + 1) * ca])
        re.extend(v * fb for v in b.re[i * cb:(i + 1) * cb])
        im.extend(v * fa for v in a.im[i * ca:(i + 1) * ca])
        im.extend(v * fb for v in b.im[i * cb:(i + 1) * cb])
    return Matrix._make(a.rows, ca + cb, re, im, den)


def _kernel(m: Matrix, pivots: list, ncols: int) -> list[tuple]:
    """Kernel basis read off an RREF: one vector per free column among the
    first ncols, with 1 at the free column and minus that column's RREF
    entries at the pivot columns."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r, fc]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class AffineSolutionSpace:
    """Solution set {particular + span(basis)} of a linear system."""

    particular: tuple
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def point(self, params: Sequence[Scalar]) -> tuple:
        if len(params) != self.dim:
            raise DimensionError(f"need {self.dim} parameters, got {len(params)}")
        out = list(self.particular)
        for t, b in zip(params, self.basis):
            t = _to_scalar(t)
            for k in range(len(out)):
                out[k] = out[k] + t * b[k]
        return tuple(out)


def solve_affine(a: Matrix, b: Sequence) -> AffineSolutionSpace | None:
    """Full solution set of A x = b, or None when infeasible."""
    b = [_to_scalar(v) for v in b]
    if len(b) != a.rows:
        raise DimensionError(f"rhs length {len(b)} != {a.rows} rows")
    m, pivots = _hstack(a, Matrix.column(b))._rref()
    if a.cols in pivots:
        return None
    # feasible: the left block of the RREF of [a | b] is the RREF of a
    particular = [ZERO] * a.cols
    for r, pc in enumerate(pivots):
        particular[pc] = m[r, a.cols]
    return AffineSolutionSpace(tuple(particular), tuple(_kernel(m, pivots, a.cols)))


# -- sparse polynomials -----------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial over Q(i): exponent tuple -> nonzero coefficient."""

    variables: int
    terms: tuple = field(default=())  # tuple of (exponents, Scalar)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Poly":
        c = _to_scalar(c)
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

    def evaluate(self, values: Sequence[Scalar]) -> Scalar:
        if len(values) != self.variables:
            raise DimensionError(f"need {self.variables} values, got {len(values)}")
        out = ZERO
        for e, c in self.terms:
            t = c
            for v, k in zip(values, e):
                for _ in range(k):
                    t = t * _to_scalar(v)
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


def generic_determinant(space: AffineSolutionSpace, shape: int) -> Poly:
    """det(particular + sum t_k basis_k) reshaped to shape x shape, as a Poly in t."""
    if len(space.particular) != shape * shape:
        raise DimensionError(
            f"solution vectors of length {len(space.particular)} do not reshape to {shape}x{shape}"
        )
    nvars = space.dim
    entries = []
    for i in range(shape):
        row = []
        for j in range(shape):
            idx = i * shape + j
            p = Poly.constant(nvars, space.particular[idx])
            for k, b in enumerate(space.basis):
                if not b[idx].is_zero():
                    p = p + Poly(nvars, ((tuple(1 if v == k else 0 for v in range(nvars)), b[idx]),))
            row.append(p)
        entries.append(row)
    return _poly_det(entries, nvars)
