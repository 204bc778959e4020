"""Structure-constant Lie and pre-Lie algebras and their standard representations.

Conventions (all 0-indexed internally, 1-indexed in reports and I/O):
  Lie:     [e_i, e_j] = sum_k c[i][k, j] e_k
  pre-Lie: e_i . e_j  = sum_k p[i][k, j] e_k
  Representation matrices act on column coordinate vectors.

An algebra stores its structure constants once, as the integer matrices of
left multiplication by the basis vectors: column j of c[i] (p[i]) is
[e_i, e_j] (e_i . e_j), so c[i] is ad(e_i) and p[i] is L(e_i).  The
constructor takes these matrices; `from_constants` sums sparse records
(i, j, k, coeff) into them.  From the matrices each algebra derives a
sparse view (Gaussian-integer numerators over one denominator) that
bracket/product contract with the integer arrays of the argument vectors.
Representations likewise hold their matrices' numerators over one
denominator for `act`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .linalg import DimensionError, Matrix, _hstack, accumulate, unit_columns
from .reporting import Report


def _left_multiplications(dim: int, mats) -> tuple:
    """The dim matrices L_i as a tuple, each checked to be dim x dim."""
    mats = tuple(mats)
    if len(mats) != dim or any(m.rows != dim or m.cols != dim for m in mats):
        raise DimensionError(f"a {dim}-dimensional algebra needs {dim} {dim}x{dim} matrices")
    return mats


def _from_constants(cls, dim: int, terms: list):
    """cls(dim, L) from 1-indexed terms (i, j, k, sign, coeff), each adding
    sign * coeff at e_k in e_i e_j: entry (k, j) of L_i."""
    for i, j, k, _, co in terms:
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise ValueError(f"index out of range 1..{dim} in record {(i, j, k, co)!r}")
    size = dim * dim
    re, im, den = accumulate(dim * size, [
        ((i - 1) * size + (k - 1) * dim + j - 1, sign, co) for i, j, k, sign, co in terms])
    return cls(dim, [Matrix._make(dim, dim, re[b:b + size], im[b:b + size], den)
                     for b in range(0, dim * size, size)])


def _sparse(dim: int, mats: tuple) -> tuple:
    """Integer view of left-multiplication matrices, over their common
    denominator den: (den, real, rows, cols).  cols[i * dim + j] lists the
    nonzero (k, re, im) of column j of mats[i], rows[i] the nonzero
    (j, cols[i * dim + j])."""
    den = lcm(*(m.den for m in mats))
    cols = []
    for m in mats:
        f, col = den // m.den, [[] for _ in range(dim)]
        for b, x, y in zip(range(dim * dim), m.re, m.im):  # row-major, so k ascends
            if x or y:
                col[b % dim].append((b // dim, x * f, y * f))
        cols.extend(map(tuple, col))
    rows = tuple(tuple((j, cols[i * dim + j]) for j in range(dim) if cols[i * dim + j])
                 for i in range(dim))
    return den, all(m.is_real() for m in mats), rows, tuple(cols)


def _contract(sp: tuple, dim: int, x: Matrix, y: Matrix) -> Matrix:
    """sum_{i,j} x_i y_j e_i e_j for column vectors x, y."""
    den, real, rows, _ = sp
    xr, xi, yr, yi = x.re, x.im, y.re, y.im
    out_r = [0] * dim
    if real and x.is_real() and y.is_real():
        for i, row in enumerate(rows):
            a = xr[i]
            if not a:
                continue
            for j, terms in row:
                b = yr[j]
                if b:
                    ab = a * b
                    for k, cr, _ in terms:
                        out_r[k] += ab * cr
        return Matrix._make(dim, 1, out_r, (0,) * dim, x.den * y.den * den)
    out_i = [0] * dim
    for i, row in enumerate(rows):
        ar, ai = xr[i], xi[i]
        if not (ar or ai):
            continue
        for j, terms in row:
            br, bi = yr[j], yi[j]
            if not (br or bi):
                continue
            pr, pi = ar * br - ai * bi, ar * bi + ai * br
            for k, cr, ci in terms:
                out_r[k] += pr * cr - pi * ci
                out_i[k] += pr * ci + pi * cr
    return Matrix._make(dim, 1, out_r, out_i, x.den * y.den * den)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    c: tuple  # c[i] = ad(e_i): column j is [e_i, e_j]

    def __post_init__(self):
        object.__setattr__(self, "c", _left_multiplications(self.dim, self.c))
        object.__setattr__(self, "_sp", _sparse(self.dim, self.c))

    @classmethod
    def from_constants(cls, dim: int, constants: list) -> "LieAlgebra":
        """From 1-indexed records (i, j, k, coeff), each adding coeff at e_k in
        [e_i, e_j].  A pair (i, j) is mirrored, negated, to (j, i) unless
        (j, i) is given explicitly, so a pair (i, i) is never negated."""
        given = {(i, j) for i, j, _, _ in constants}
        return _from_constants(cls, dim, [(i, j, k, 1, co) for i, j, k, co in constants] + [
            (j, i, k, -1, co) for i, j, k, co in constants if (j, i) not in given])

    def bracket(self, x: Matrix, y: Matrix) -> Matrix:
        """Bracket of coordinate column vectors."""
        return _contract(self._sp, self.dim, x, y)

    def basis_bracket(self, i: int, j: int) -> Matrix:
        return self.c[i]._block(0, self.dim, j, j + 1)

    def column_numerators(self, i: int, j: int) -> tuple:
        """The nonzero (k, re, im) of [e_i, e_j] (e_i . e_j in a pre-Lie
        algebra), as numerators over the structure constants' denominator."""
        return self._sp[3][i * self.dim + j]


@dataclass(frozen=True)
class PreLieAlgebra:
    dim: int
    p: tuple  # p[i] = L(e_i): column j is e_i . e_j

    def __post_init__(self):
        object.__setattr__(self, "p", _left_multiplications(self.dim, self.p))
        object.__setattr__(self, "_sp", _sparse(self.dim, self.p))

    @classmethod
    def from_constants(cls, dim: int, constants: list) -> "PreLieAlgebra":
        """From 1-indexed records (i, j, k, coeff), each adding coeff at e_k in
        e_i . e_j."""
        return _from_constants(cls, dim, [(i, j, k, 1, co) for i, j, k, co in constants])

    def product(self, x: Matrix, y: Matrix) -> Matrix:
        return _contract(self._sp, self.dim, x, y)

    def basis_product(self, i: int, j: int) -> Matrix:
        return self.p[i]._block(0, self.dim, j, j + 1)

    column_numerators = LieAlgebra.column_numerators


@dataclass(frozen=True)
class Representation:
    algebra: LieAlgebra
    module_dim: int
    mats: tuple  # one module_dim x module_dim Matrix per basis element

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(self.mats))
        for m in self.mats:
            if m.rows != self.module_dim or m.cols != self.module_dim:
                raise DimensionError(
                    f"representation matrix {m.rows}x{m.cols} on module of dim {self.module_dim}"
                )
        if len(self.mats) != self.algebra.dim:
            raise DimensionError(
                f"{len(self.mats)} matrices for algebra of dim {self.algebra.dim}"
            )
        # all matrices over one denominator, for act
        den = lcm(*(m.den for m in self.mats))
        nums = tuple((tuple(v * (den // m.den) for v in m.re),
                      tuple(v * (den // m.den) for v in m.im)) for m in self.mats)
        object.__setattr__(self, "_nums", (den, all(m.is_real() for m in self.mats), nums))

    def act(self, x: Matrix) -> Matrix:
        """Matrix of rho(x) for a coordinate column vector x."""
        den, real, nums = self._nums
        m = self.module_dim
        out_r = [0] * (m * m)
        out_i = [0] * (m * m)
        for (mr, mi), ar, ai in zip(nums, x.re, x.im):
            if not (ar or ai):
                continue
            if real and not ai:
                out_r = [o + ar * a for o, a in zip(out_r, mr)]
            else:
                out_r = [o + ar * a - ai * b for o, a, b in zip(out_r, mr, mi)]
                out_i = [o + ar * b + ai * a for o, a, b in zip(out_i, mr, mi)]
        return Matrix._make(m, m, out_r, out_i, den * x.den)

    def check(self) -> Report:
        """Homomorphism law rho([e_i,e_j]) = [rho(e_i), rho(e_j)] on basis pairs."""
        rep = Report("representation homomorphism law")
        g, mats = self.algebra, self.mats
        rep.record_tuples("rep-hom", itertools.combinations(range(g.dim), 2), lambda i, j: (
            self.act(g.basis_bracket(i, j)) == mats[i] * mats[j] - mats[j] * mats[i]))
        return rep


def check_lie(g: LieAlgebra) -> Report:
    """Antisymmetry and Jacobi on all basis tuples."""
    rep = Report("Lie algebra axioms")
    n, c, br = g.dim, g.c, g.bracket
    eb, neg = unit_columns(n), [-m for m in c]
    antisymmetric = rep.record_tuples(
        "antisymmetry", itertools.product(range(n), repeat=3),
        lambda i, j, k: c[i][k, j] == neg[j][k, i], failures_only=True)

    def jacobi(i, j, k):
        x, y, z = eb[i], eb[j], eb[k]
        return (br(br(x, y), z) + br(br(z, x), y) + br(br(y, z), x)).is_zero()

    if rep.record_tuples("jacobi", itertools.combinations(range(n), 3), jacobi,
                         failures_only=True) and antisymmetric:
        rep.record("lie-axioms", (), True)
    return rep


def check_prelie(g: PreLieAlgebra) -> Report:
    """Left-symmetry of the associator on all basis triples."""
    rep = Report("pre-Lie identity")
    eb, pr = unit_columns(g.dim), g.product

    def left_symmetric(i, j, k):
        x, y, z = eb[i], eb[j], eb[k]
        return pr(pr(x, y), z) - pr(x, pr(y, z)) == pr(pr(y, x), z) - pr(y, pr(x, z))

    if rep.record_tuples("left-symmetry", itertools.product(range(g.dim), repeat=3),
                         left_symmetric, failures_only=True):
        rep.record("prelie-identity", (), True)
    return rep


def subadjacent(g: PreLieAlgebra) -> LieAlgebra:
    """Commutator Lie algebra of a pre-Lie algebra: ad(e_i) = L_i - R_i, where
    column j of the right multiplication R_i is column i of L_j."""
    n, p = g.dim, g.p
    return LieAlgebra(n, [p[i] - _hstack(*(q._block(0, n, i, i + 1) for q in p))
                          for i in range(n)])


def regular_rep(g: PreLieAlgebra) -> Representation:
    """Left multiplications L(e_i) as a representation of the sub-adjacent algebra."""
    return Representation(subadjacent(g), g.dim, g.p)


def adjoint_rep(g: LieAlgebra) -> Representation:
    return Representation(g, g.dim, g.c)


def dual_rep(r: Representation) -> Representation:
    """Dual action rho*(x) = -rho(x)^T on the dual module."""
    return Representation(r.algebra, r.module_dim, tuple(-m.transpose() for m in r.mats))


def coadjoint_rep(g: LieAlgebra) -> Representation:
    return dual_rep(adjoint_rep(g))


def coregular_rep(g: PreLieAlgebra) -> Representation:
    return dual_rep(regular_rep(g))


def trivial_rep(g: LieAlgebra, module_dim: int) -> Representation:
    return Representation(g, module_dim, tuple(Matrix.zero(module_dim, module_dim)
                                               for _ in range(g.dim)))


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, [Matrix.zero(dim, dim)] * dim)
