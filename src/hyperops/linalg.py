"""Sparse exact matrices over Q(i) and the linear-system kernel.

Everything downstream (operator identities, cocycle systems, form searches)
reduces to the handful of primitives here: product, inverse, rank, kernel,
affine solving, and the determinant of a pencil sum t_k M_k of square
matrices, at integer points t or as a sparse polynomial in t.

A Matrix stores only its nonzero entries: numerator rows ``re`` and ``im``,
each a dict {row: {column: nonzero integer}} with no empty row, over one
positive denominator ``den``, so entry (i, j) is (re[i][j] + im[i][j] i) /
den, a missing numerator being 0; a real matrix has no imaginary one.  The
form is reduced (den and the numerators have gcd 1), so it is unique and
equality and hashing compare it structurally.  Every operation reads and
builds nonzero entries only; a product sums the right operand's rows over
the left's nonzero entries, row by row (`_times`).  ``det`` and the RREF
behind ``rank``, ``inv``, ``kernel`` and ``solve_affine`` run one
fraction-free elimination, ``_eliminate``, on dense working rows made for
the call: the RREF divides real rows by their gcd; otherwise rows are
divided exactly, in Z or Z[i], by the previous pivot (E. Bareiss, Math. Comp.
22, 1968; the Gauss-Jordan form is in Nakos, Turner and Williams, SIGSAM
Bull. 31, 1997), so each entry stays a minor of the input.  RREF, determinant
and inverse are unique, so every pivot, kernel basis and inverse is the one
field arithmetic gives.

Scalar is the boundary type.  Constructors read ints, Fractions, literals
and Scalars with ``scalars.as_gaussian`` and sum them with ``accumulate``.
``__getitem__``, ``row``, ``col``, ``entries``, ``det`` and ``solve_affine``
return Scalars; ``nonzeros`` yields numerators.  ``kernel`` returns its
basis as the rows of one Matrix; a pencil is those rows times a placement
matrix, whose product's rows reshape to square matrices (`det_witness`),
or a sequence of Matrices.
Poly keeps Scalar coefficients.

Every basis-tuple identity is an ``identity_test``: the nonzero entries of
signed products of inputs and ``unfold``-ed constants, keyed by one plan per
shape (a row's key base made once; a product as wide as its reading adds j
times one weight to it), sum to its residual, whose support among ``members``
is each claim's plain set of failing tuples, all `Report.record_tuples` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from math import gcd, isqrt, lcm
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence

from .scalars import ONE, ZERO, Scalar, as_gaussian


class DimensionError(ValueError):
    """Shape mismatch; message names both shapes."""


class SingularMatrixError(ValueError):
    def __init__(self, rank: int, n: int):
        self.rank = rank
        super().__init__(f"singular matrix: rank {rank} < {n}")


def accumulate(terms) -> tuple[dict, dict, int]:
    """Numerator rows re, im over one denominator, holding no zero, where each
    of terms ((row, column), sign, value) adds sign times its value, any value
    `as_gaussian` takes, a parsed (re, im, den) tuple as it is.  Every
    constructor sums its input through here (a bundle matrix its nonzero literals)."""
    terms = [(at, sign, v if type(v) is tuple else as_gaussian(v)) for at, sign, v in terms]
    den = lcm(*(d for _, _, (_, _, d) in terms))
    re, im = {}, {}
    for (i, j), sign, (a, b, d) in terms:
        f = sign * (den // d)
        if a:
            row = re.setdefault(i, {})
            row[j] = row.get(j, 0) + a * f
        if b:
            row = im.setdefault(i, {})
            row[j] = row.get(j, 0) + b * f
    return _nonzero(re), _nonzero(im), den


def _nonzero(x: dict) -> dict:
    """Numerator rows x without their zero numerators and empty rows."""
    return {i: r for i, row in x.items() if (r := {j: v for j, v in row.items() if v})}


def _lin(x: dict, fx: int, y: dict, fy: int) -> dict:
    """The numerator rows fx x + fy y: x itself when that is all they are."""
    if fx == 1 and not (fy and y):
        return x
    out = {i: {j: fx * v for j, v in r.items()} for i, r in x.items()} if fx else {}
    for i, r in y.items() if fy else ():
        row = out.setdefault(i, {})
        for j, v in r.items():
            row[j] = row.get(j, 0) + fy * v
    return _nonzero(out) if fy else out


def _times(a: dict, b: dict) -> dict:
    """The product of numerator rows a and b, row by row (F. Gustavson, ACM
    TOMS 4(3), 1978): row i sums x times row k of b over the entries (k, x) of
    row i of a, so only nonzero entries are read."""
    out = {}
    for i, ra in a.items() if b else ():
        acc, summed = None, False
        for k, x in ra.items():
            rb = b.get(k)
            if rb is None:
                continue
            if acc is None:
                acc = {j: x * y for j, y in rb.items()}
                continue
            summed = True
            for j, y in rb.items():
                acc[j] = acc.get(j, 0) + x * y
        if summed:
            acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _dense(x: dict, rows: int, cols: int) -> list:
    """Numerator rows as `rows` lists of `cols` integers, for elimination."""
    out = [[0] * cols for _ in range(rows)]
    for i, r in x.items():
        for j, v in r.items():
            out[i][j] = v
    return out


class Matrix:
    """Immutable sparse matrix over Q(i): numerator rows re, im over den."""

    __slots__ = ("rows", "cols", "re", "im", "den", "_h")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        values = list(entries)
        if len(values) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}")
        self._set(rows, cols, *accumulate([(divmod(k, cols), 1, v) for k, v in enumerate(values)]))

    def _set(self, rows, cols, re, im, den, reduce=True):
        if reduce and den != 1:
            g = gcd(den, *(v for part in (re, im) for r in part.values() for v in r.values()))
            if g != 1:
                re, im = ({i: {j: v // g for j, v in r.items()} for i, r in part.items()}
                          for part in (re, im))
                den //= g
        self.rows, self.cols, self.re, self.im, self.den = rows, cols, re, im, den
        self._h = None

    @classmethod
    def _make(cls, rows: int, cols: int, re: dict, im: dict, den: int,
              reduce: bool = True) -> "Matrix":
        """From numerator rows holding no zero over a positive denominator;
        `reduce` divides out their common factor (skip it only for numerators
        already reduced).  The rows are kept, never written."""
        m = cls.__new__(cls)
        m._set(rows, cols, re, im, den, reduce)
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
        return cls._make(n, n, {i: {i: 1} for i in range(n)}, {}, 1, reduce=False)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._make(rows, cols, {}, {}, 1, reduce=False)

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls(len(entries), 1, entries)

    @classmethod
    def diag(cls, entries: Sequence) -> "Matrix":
        return cls._make(len(entries), len(entries),
                         *accumulate([((i, i), 1, v) for i, v in enumerate(entries)]))

    # -- access --------------------------------------------------------
    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"no entry ({i}, {j}) in a {self.rows}x{self.cols} matrix")
        a, b = self.re.get(i, {}).get(j, 0), self.im.get(i, {}).get(j, 0)
        return Scalar(Fraction(a, self.den), Fraction(b, self.den)) if a or b else ZERO

    def row(self, i: int) -> tuple:
        return tuple(self[i, j] for j in range(self.cols))

    def col(self, j: int) -> tuple:
        return tuple(self[i, j] for i in range(self.rows))

    def entries(self) -> tuple:
        return tuple(self[i, j] for i in range(self.rows) for j in range(self.cols))

    def nonzeros(self) -> Iterator[tuple]:
        """(i, j, re, im) for each nonzero entry, numerators over den, in
        row-major order."""
        for i in sorted(self.re.keys() | self.im.keys()):
            a, b = self.re.get(i, {}), self.im.get(i, {})
            for j in sorted(a.keys() | b.keys()):
                yield i, j, a.get(j, 0), b.get(j, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self.den, self.re, self.im) == (
            other.rows, other.cols, other.den, other.re, other.im)

    def __hash__(self):  # cached: predicate memo keys hash the same matrices often
        if self._h is None:
            self._h = hash((self.rows, self.cols, self.den, *(frozenset(
                (i, frozenset(r.items())) for i, r in x.items()) for x in (self.re, self.im))))
        return self._h

    def __repr__(self):
        body = "; ".join(" ".join(v.render() for v in self.row(i)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise DimensionError(f"reshape {self.rows}x{self.cols} to {rows}x{cols}")
        if (rows, cols) == (self.rows, self.cols):
            return self
        out = ({}, {})
        for part, x in zip(out, (self.re, self.im)):
            for i, r in x.items():
                for j, v in r.items():
                    p, q = divmod(i * self.cols + j, cols)
                    part.setdefault(p, {})[q] = v
        return Matrix._make(rows, cols, *out, self.den, reduce=False)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------
    def _combine(self, other: "Matrix", sign: int, op: str) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"{op}: shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} differ")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return Matrix._make(self.rows, self.cols, _lin(self.re, fa, other.re, fb),
                            _lin(self.im, fa, other.im, fb), den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "sub")

    def __neg__(self) -> "Matrix":
        return Matrix._make(self.rows, self.cols, _lin(self.re, -1, {}, 0),
                            _lin(self.im, -1, {}, 0), self.den, reduce=False)

    def scale(self, k) -> "Matrix":
        kr, ki, kd = as_gaussian(k)
        return Matrix._make(self.rows, self.cols, _lin(self.re, kr, self.im, -ki),
                            _lin(self.im, kr, self.re, ki), self.den * kd)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product (`scale` for a non-Matrix), row by row over the left
        operand's nonzero entries (`_times`), with no imaginary product for
        real operands."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"mul: shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} incompatible"
            )
        re, im = _times(self.re, other.re), {}
        if self.im or other.im:
            re = _lin(re, 1, _times(self.im, other.im), -1)
            im = _lin(_times(self.re, other.im), 1, _times(self.im, other.re), 1)
        return Matrix._make(self.rows, other.cols, re, im, self.den * other.den)

    def __rmul__(self, k) -> "Matrix":
        return self.scale(k)

    def transpose(self) -> "Matrix":
        out = ({}, {})
        for part, x in zip(out, (self.re, self.im)):
            for i, r in x.items():
                for j, v in r.items():
                    part.setdefault(j, {})[i] = v
        return Matrix._make(self.cols, self.rows, *out, self.den, reduce=False)

    def _block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1."""
        re, im = ({i - r0: s for i, r in part.items() if r0 <= i < r1
                   and (s := {j - c0: v for j, v in r.items() if c0 <= j < c1})}
                  for part in (self.re, self.im))
        return Matrix._make(r1 - r0, c1 - c0, re, im, self.den)

    # -- elimination ---------------------------------------------------
    def _rref(self) -> tuple["Matrix", list]:
        """Reduced row echelon form, as a Matrix, and the pivot column list.

        Gauss-Jordan (`_eliminate`) with first-nonzero pivoting on dense
        working rows of the integer numerators (no imaginary rows for a real
        matrix); each pivot row is divided by its pivot at the end.
        Deterministic and canonical (pivots normalized to 1).
        """
        c = self.cols
        rr = _dense(self.re, self.rows, c)
        ri = _dense(self.im, self.rows, c) if self.im else None
        pivots = _eliminate(rr, ri, c)[0]
        # divide each pivot row by its pivot, then put all rows over one denominator
        rows = []
        for r, pc in enumerate(pivots):
            if ri is None:
                re, im, d = rr[r], (), rr[r][pc]
            else:
                pr, pi = rr[r][pc], ri[r][pc]
                d = pr * pr + pi * pi
                re = [a * pr + b * pi for a, b in zip(rr[r], ri[r])]
                im = [b * pr - a * pi for a, b in zip(rr[r], ri[r])]
            g = gcd(d, *re, *im)
            rows.append((re, im, g, d // g))
        den = lcm(*(d for *_, d in rows))  # positive; f below carries the sign
        out = ({}, {})
        for r, (re, im, g, d) in enumerate(rows):
            f = den // d
            for part, nums in zip(out, (re, im)):
                if row := dict(compress(enumerate(nums), nums)):
                    part[r] = row if g == f == 1 else {j: v // g * f for j, v in row.items()}
        # each row is reduced over its own denominator, so all are over their lcm
        return Matrix._make(self.rows, c, *out, den, reduce=False), pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Scalar:
        """Bareiss elimination (`_eliminate`, forward) on dense working rows
        of the Gaussian-integer numerators."""
        if self.rows != self.cols:
            raise DimensionError(f"det of {self.rows}x{self.cols} matrix")
        n = self.rows
        pivots, sign, (qr, qi) = _eliminate(
            _dense(self.re, n, n), _dense(self.im, n, n) if self.im else None, n, forward=True)
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


def stack(mats: Sequence[Matrix], cols: int) -> Matrix:
    """[M_1; ...; M_n] of matrices `cols` wide, over the lcm of their
    denominators: reduced, as each block is."""
    den, out, at = lcm(*(m.den for m in mats)), ({}, {}), 0
    for m in mats:
        f = den // m.den
        for part, x in zip(out, (m.re, m.im)):
            part.update((at + i, {j: f * v for j, v in r.items()}) for i, r in x.items())
        at += m.rows
    return Matrix._make(at, cols, *out, den, reduce=False)


def permute(m: Matrix, rows: int, cols: int, to: Callable) -> Matrix:
    """A rows x cols matrix holding m's entries moved: entry (b d + r, c) of
    m, read as blocks d = m.cols wide, to place to(b, r, c)."""
    d, out = m.cols, ({}, {})
    for part, x in zip(out, (m.re, m.im)):
        for s, row in x.items():
            b, r = divmod(s, d)
            for c, v in row.items():
                p, q = to(b, r, c)
                part.setdefault(p, {})[q] = v
    return Matrix._make(rows, cols, *out, m.den, reduce=False)


def block_transpose(m: Matrix) -> Matrix:
    """[A_1^T; ...; A_n^T] from m = [A_1; ...; A_n] of square blocks."""
    return permute(m, m.rows, m.cols, lambda b, r, c: (b * m.cols + c, r))


def unfold(st: Matrix) -> tuple:
    """The side-by-side and transposed unfoldings [M_1 | ... | M_n] and
    [M_1^T; ...; M_n^T] of st = [M_1; ...; M_n], n square matrices, each
    one pass over st (Kolda and Bader, SIAM Rev. 51(3), 2009)."""
    return permute(st, st.cols, st.rows, lambda b, r, c: (r, b * st.cols + c)), block_transpose(st)


def combine(stacked: Matrix, x: Matrix) -> Matrix:
    """[X_1; ...; X_c] for X_a = sum_p x[p, a] M_p, from [M_1; ...; M_n] of
    d x d matrices and an n x c matrix x: each nonzero row (p, u) of the
    stack is summed, times each nonzero x[p, a], into row (a, u)."""
    d = stacked.cols
    if stacked.rows != x.rows * d:
        raise DimensionError(f"combine: {stacked.rows}x{d} stack and {x.rows}x{x.cols} weights")
    out = ({}, {})  # (re, im) += sign * (x's part) * (the stack's part)
    for side, sign, xs, ms in ((0, 1, x.re, stacked.re), (0, -1, x.im, stacked.im),
                               (1, 1, x.re, stacked.im), (1, 1, x.im, stacked.re)):
        part = out[side]
        for s, row in ms.items() if xs else ():
            p, u = divmod(s, d)
            for a, v in xs.get(p, {}).items():
                v, acc = sign * v, part.setdefault(a * d + u, {})
                for j, y in row.items():
                    acc[j] = acc.get(j, 0) + v * y
    return Matrix._make(x.cols * d, d, _nonzero(out[0]), _nonzero(out[1]),
                        x.den * stacked.den)


def cut(m: Matrix, rows: int, cols: int, step: int = 1) -> list:
    """m's row-major entries as rows x cols matrices: consecutive runs, or
    with step > 1, the step interleaved ones (t, t + step, ...), each entry
    placed by its flat index."""
    size, width = rows * cols, m.cols
    parts = [({}, {}) for _ in range(step if step > 1 else m.rows * width // size)]
    for side, x in enumerate((m.re, m.im)):
        for i, r in x.items():
            if step == 1 and width == cols:  # whole rows move as they are
                parts[i // rows][side][i % rows] = r
                continue
            for j, v in r.items():  # entry t + u * step is entry u of run t
                f = i * width + j
                t, u = divmod(f, size) if step == 1 else (f % step, f // step)
                p, q = divmod(u, cols)
                parts[t][side].setdefault(p, {})[q] = v
    return [Matrix._make(rows, cols, re, im, m.den) for re, im in parts]


class _Bases(dict):
    """One term's row-key bases, each made on first use: row p's base sums
    each lead letter's digit of p, read row-major, times its weight."""

    def __init__(self, lead: str, sizes: dict, weight: dict):
        self.digits = [(sizes[a], weight[a]) for a in reversed(lead)]

    def __missing__(self, p: int) -> int:
        base, rest = 0, p
        for z, w in self.digits:
            rest, d = divmod(rest, z)
            base += d * w
        self[p] = base
        return base


@lru_cache(maxsize=256)
def _layout(sizes: tuple, axes: tuple, ordered: int, sliced: bool) -> tuple:
    """One shape's plan, sizes as (letter, range) pairs and each claim's axis
    strings: per term (width, weight, bases), its last letter's size and key
    weight (tuple letters, then output letters, row-major) and `_Bases`; the
    tuple letters' (weight, size); the member ranges; and the t[0] of each
    slice, all but the last `ordered` - 1, or (None,): shape data only."""
    sizes = dict(sizes)
    letters = sorted({a for claim in axes for term in claim for a in term})
    tuple_letters = [a for a in letters if a in "ijk"]
    if "".join(tuple_letters) != "ijk"[sliced:sliced + len(tuple_letters)]:
        raise ValueError(f"tuple letters {tuple_letters} leave out an earlier index")
    weight, s = {}, 1
    for a in reversed(tuple_letters + [a for a in letters if a not in "ijk"]):
        weight[a], s = s, s * sizes[a]
    ranges = tuple(sizes[a] for a in "ijk"[:sliced + len(tuple_letters)])
    return (tuple(tuple((sizes[t[-1]], weight[t[-1]], _Bases(t[:-1], sizes, weight))
                        for t in claim) for claim in axes),
            tuple((weight[a], sizes[a]) for a in tuple_letters), ranges,
            range(ranges[0] - max(ordered - 1, 0)) if sliced else (None,))


def _read(acc: tuple, f: int, m: Matrix, width: int, weight: int, bases: _Bases) -> None:
    """Add f times the numerators of m's nonzero entries to acc, dicts (re,
    im) keyed by a term's plan (`_layout`): entry (i, j) is read at its
    row-major place (p, q) = divmod(i * m.cols + j, width) in rows `width`
    wide, key bases[p] + q * weight; when m is `width` wide, that is (i, j)."""
    cols = m.cols
    for part, x in zip(acc, (m.re, m.im)):
        if cols == width:
            for i, r in x.items():
                base = bases[i]
                for j, v in r.items():
                    part[k] = part.get(k := base + j * weight, 0) + f * v
            continue
        for i, r in x.items():
            for j, v in r.items():
                p, q = divmod(i * cols + j, width)
                part[k] = part.get(k := bases[p] + q * weight, 0) + f * v


def members(ranges: Sequence[int], ordered: int = 0) -> Iterator[tuple]:
    """The tuples t with each t[a] in range(ranges[a]) whose first `ordered`
    indices, which share one range, strictly increase, in lexicographic
    order: every basis-tuple identity's member set."""
    if not ordered:
        return product(*map(range, ranges))
    rest = list(product(*map(range, ranges[ordered:])))
    lead = combinations(range(ranges[0]), ordered)
    return lead if rest == [()] else (c + r for c in lead for r in rest)


def identity_test(sizes: dict, *claims, ordered: int = 0) -> tuple:
    """(members, failing) for claims, each a sequence of terms (sign, product,
    axes) whose sum, the residual, vanishes at the basis tuples where the
    claim holds: the `members` of the tuple letters' ranges and `ordered`,
    and per claim the set of those where it fails, for `Report.record_tuples`.

    `axes` names the axes of the product's row-major layout: i, j, k are
    t[0], t[1], t[2] (a prefix of them), any other letter an output index;
    sizes gives each letter's range, and every term names the same letters.
    Every product is a Matrix, or every one is a pair sliced over t[0],
    left[t[0]] * right or left * right[t[0]], whose axes leave out i.  The
    shape is planned once (`_layout`); each product's nonzero entries, keyed
    by its term's plan, are summed into the residual, whose member keys fail
    (`_failing`): read once, or for sliced products once per t[0] that
    starts a member, one slice at a time, each through the same plan."""
    sliced = not isinstance(claims[0][0][1], Matrix)
    reads, places, ranges, starts = _layout(tuple(sizes.items()), tuple(
        tuple(axes for _, _, axes in claim) for claim in claims), ordered, sliced)
    failing = tuple(set() for _ in claims)
    for t0 in starts:
        for keys, claim, read in zip(failing, claims, reads):
            keys |= _failing(claim, read, t0, places, ordered)
    return members(ranges, ordered), failing


def _failing(claim, read: list, t0, places: list, ordered: int) -> set:
    """The member tuples, starting with t0 unless it is None, where a claim's
    residual, read as planned, is nonzero; its products are dropped on return."""
    mats = [p if t0 is None else p[0][t0] * p[1] if isinstance(p[1], Matrix)
            else p[0] * p[1][t0] for _, p, _ in claim]
    den, acc = lcm(*(m.den for m in mats)), ({}, {})
    for (sign, _, _), m, term in zip(claim, mats, read):
        _read(acc, sign * (den // m.den), m, *term)
    lead = () if t0 is None else (t0,)
    keys = {(*lead, *(k // w % z for w, z in places)) for part in acc for k, v in part.items() if v}
    return {t for t in keys if all(map(lt, t[:ordered - 1], t[1:ordered]))} if ordered > 1 else keys


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
    """[b_1 | b_2 | ...] for one or more matrices with the same number of rows,
    over the lcm of their denominators: reduced, as each block is."""
    den, at = lcm(*(b.den for b in blocks)), 0
    out = ({}, {})
    for b in blocks:
        f = den // b.den
        for part, x in zip(out, (b.re, b.im)):
            for i, r in x.items():
                part.setdefault(i, {}).update({at + j: f * v for j, v in r.items()})
        at += b.cols
    return Matrix._make(blocks[0].rows, at, *out, den, reduce=False)


def _kernel(m: Matrix, pivots: list, ncols: int) -> Matrix:
    """Kernel basis read off an RREF, as the rows of one matrix: one row per
    free column among the first ncols, with 1 at the free column and minus
    that column's RREF entries at the pivot columns, so 1 is its last
    nonzero entry and every other row is 0 there."""
    pivot_set = set(pivots)
    free = {fc: r for r, fc in enumerate(fc for fc in range(ncols) if fc not in pivot_set)}
    out = ({r: {fc: m.den} for fc, r in free.items()}, {})
    for part, x in zip(out, (m.re, m.im)):
        for r, row in x.items():
            for fc, v in row.items():
                if fc in free:
                    part.setdefault(free[fc], {})[pivots[r]] = -v
    return Matrix._make(len(free), ncols, *out, m.den)


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


def det_witness(kernel: Matrix, place: Matrix) -> tuple | None:
    """Integer parameters t with det(sum t_k M_k) != 0, or None when that
    determinant is the zero polynomial, where M_k (n x n, n >= 1) is row k of
    kernel place reshaped: the d x c `kernel` times the c x n^2 `place`, which
    flattens a 1 x c row's form; with no rows it is the zero matrix, so None.
    Given the M_k, the kernel is their row-major entries, one a row, and
    place is the n^2 x n^2 identity.

    A nonzero determinant at any point proves the polynomial nonzero, so the
    points of `witness_points` are tried first, each by one Bareiss `det` of
    (t kernel place).reshape(n, n).  Only when all give 0 are the M_k cut
    from kernel place and the polynomial expanded by `generic_determinant`:
    zero means no such t exists, and otherwise a point is read off it.  Its
    degree in each t_k is at most n, since every entry is linear in t."""
    d, n = kernel.rows, isqrt(place.cols)
    if not d:
        return None
    for point in witness_points(d):
        if not (Matrix(1, d, point) * kernel * place).reshape(n, n).det().is_zero():
            return point
    det = generic_determinant(cut(kernel * place, n, n), n)
    return None if det.is_zero() else det.nonzero_point(n)
