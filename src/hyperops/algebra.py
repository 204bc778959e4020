"""Structure-constant Lie and pre-Lie algebras and their standard representations.

Conventions (all 0-indexed internally, 1-indexed in reports and I/O):
  Lie:     [e_i, e_j] = sum_k c[i][j][k] e_k
  pre-Lie: e_i . e_j  = sum_k p[i][j][k] e_k
  Representation matrices act on column coordinate vectors.

The tensors are kept as Scalars for I/O and axiom checks; each algebra also
holds a sparse integer copy (Gaussian-integer numerators over one
denominator), built once, that bracket/product contract with the integer
arrays of the argument matrices.  Representations likewise hold their
matrices' numerators over one denominator for `act`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import DimensionError, Matrix, gaussian_parts
from .reporting import Report
from .scalars import ZERO, Scalar


def _tensor(dim, data) -> tuple:
    """Normalize a nested structure-constant tensor to immutable Scalars."""
    from .linalg import _to_scalar

    out = []
    for i in range(dim):
        plane = []
        for j in range(dim):
            plane.append(tuple(_to_scalar(v) for v in data[i][j]))
            if len(plane[-1]) != dim:
                raise DimensionError(f"tensor slice ({i},{j}) has wrong length")
        out.append(tuple(plane))
    return tuple(out)


def _sparse(dim: int, t: tuple) -> tuple:
    """Integer copy of a tensor t[i][j][k]: (den, real, rows, flat) where
    rows[i] lists (j, ((k, re, im), ...)) over the nonzero slices and flat is
    (re, im) of all entries, row-major."""
    re, im, den = gaussian_parts([v for plane in t for line in plane for v in line])
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            base = (i * dim + j) * dim
            terms = tuple((k, re[base + k], im[base + k])
                          for k in range(dim) if re[base + k] or im[base + k])
            if terms:
                row.append((j, terms))
        rows.append(tuple(row))
    return den, not any(im), tuple(rows), (re, im)


def _contract(sp: tuple, dim: int, x: Matrix, y: Matrix) -> Matrix:
    """sum_{i,j,k} x_i y_j t[i][j][k] e_k for column vectors x, y."""
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


def _slice(sp: tuple, dim: int, i: int, j: int) -> Matrix:
    """The column t[i][j] of a tensor, from its integer copy."""
    den, _, _, (re, im) = sp
    base = (i * dim + j) * dim
    return Matrix._make(dim, 1, re[base:base + dim], im[base:base + dim], den)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    c: tuple  # c[i][j][k]

    def __post_init__(self):
        object.__setattr__(self, "c", _tensor(self.dim, self.c))
        object.__setattr__(self, "_sp", _sparse(self.dim, self.c))

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict) -> "LieAlgebra":
        """brackets maps 1-indexed (i, j) with i < j to {k: coeff}; antisymmetry filled in."""
        c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        from .linalg import _to_scalar

        for (i, j), comps in brackets.items():
            for k, v in comps.items():
                v = _to_scalar(v)
                c[i - 1][j - 1][k - 1] = v
                c[j - 1][i - 1][k - 1] = -v
        return cls(dim, c)

    def bracket(self, x: Matrix, y: Matrix) -> Matrix:
        """Bracket of coordinate column vectors."""
        return _contract(self._sp, self.dim, x, y)

    def basis_bracket(self, i: int, j: int) -> Matrix:
        return _slice(self._sp, self.dim, i, j)


@dataclass(frozen=True)
class PreLieAlgebra:
    dim: int
    p: tuple  # p[i][j][k]

    def __post_init__(self):
        object.__setattr__(self, "p", _tensor(self.dim, self.p))
        object.__setattr__(self, "_sp", _sparse(self.dim, self.p))

    @classmethod
    def from_products(cls, dim: int, products: dict) -> "PreLieAlgebra":
        """products maps 1-indexed (i, j) to {k: coeff}."""
        p = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        from .linalg import _to_scalar

        for (i, j), comps in products.items():
            for k, v in comps.items():
                p[i - 1][j - 1][k - 1] = _to_scalar(v)
        return cls(dim, p)

    def product(self, x: Matrix, y: Matrix) -> Matrix:
        return _contract(self._sp, self.dim, x, y)

    def basis_product(self, i: int, j: int) -> Matrix:
        return _slice(self._sp, self.dim, i, j)


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
        g = self.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = self.act(g.basis_bracket(i, j))
                rhs = self.mats[i] * self.mats[j] - self.mats[j] * self.mats[i]
                rep.record("rep-hom", (i + 1, j + 1), lhs == rhs,
                           None if lhs == rhs else (i + 1, j + 1))
        return rep


def check_lie(g: LieAlgebra) -> Report:
    """Antisymmetry and Jacobi on all basis tuples."""
    rep = Report("Lie algebra axioms")
    n = g.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ok = g.c[i][j][k] == -g.c[j][i][k]
                if not ok:
                    rep.record("antisymmetry", (i + 1, j + 1, k + 1), False,
                               (i + 1, j + 1, k + 1))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (Matrix.column([ZERO] * t + [Scalar(1)] + [ZERO] * (n - t - 1))
                              for t in (i, j, k))
                s = (g.bracket(g.bracket(ei, ej), ek)
                     + g.bracket(g.bracket(ek, ei), ej)
                     + g.bracket(g.bracket(ej, ek), ei))
                if not s.is_zero():
                    rep.record("jacobi", (i + 1, j + 1, k + 1), False, (i + 1, j + 1, k + 1))
    if not rep.results:
        rep.record("lie-axioms", (), True)
    return rep


def check_prelie(g: PreLieAlgebra) -> Report:
    """Left-symmetry of the associator on all basis triples."""
    rep = Report("pre-Lie identity")
    n = g.dim
    basis = [Matrix.column([ZERO] * t + [Scalar(1)] + [ZERO] * (n - t - 1)) for t in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                a = g.product(g.product(x, y), z) - g.product(x, g.product(y, z))
                b = g.product(g.product(y, x), z) - g.product(y, g.product(x, z))
                if a != b:
                    rep.record("left-symmetry", (i + 1, j + 1, k + 1), False,
                               (i + 1, j + 1, k + 1))
    if not rep.results:
        rep.record("prelie-identity", (), True)
    return rep


def subadjacent(g: PreLieAlgebra) -> LieAlgebra:
    """Commutator Lie algebra of a pre-Lie algebra."""
    n = g.dim
    c = [
        [[g.p[i][j][k] - g.p[j][i][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return LieAlgebra(n, c)


def regular_rep(g: PreLieAlgebra) -> Representation:
    """Left multiplications L(e_i) as a representation of the sub-adjacent algebra."""
    n = g.dim
    mats = [Matrix(n, n, [g.p[i][j][k] for k in range(n) for j in range(n)]) for i in range(n)]
    return Representation(subadjacent(g), n, mats)


def adjoint_rep(g: LieAlgebra) -> Representation:
    n = g.dim
    mats = [Matrix(n, n, [g.c[i][j][k] for k in range(n) for j in range(n)]) for i in range(n)]
    return Representation(g, n, mats)


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
    z = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    return LieAlgebra(dim, z)
