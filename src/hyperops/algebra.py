"""Structure-constant Lie and pre-Lie algebras and their standard representations.

Conventions (all 0-indexed internally, 1-indexed in reports and I/O):
  Lie:     [e_i, e_j] = sum_k c[i][k, j] e_k
  pre-Lie: e_i . e_j  = sum_k p[i][k, j] e_k
  Representation matrices act on column coordinate vectors.

An algebra stores its structure constants once, as the integer matrices of
left multiplication by the basis vectors: column j of c[i] (p[i]) is
[e_i, e_j] (e_i . e_j), so c[i] is ad(e_i) and p[i] is L(e_i).  The
constructor takes these matrices; `from_constants` sums sparse records
(i, j, k, coeff) into them.  An algebra and a representation each keep,
on first use, three unfoldings of their n matrices (`linalg.unfold`):
[M_1; ...; M_n], [M_1 | ... | M_n] and [M_1^T; ...; M_n^T].  bracket,
product and act are products with them, and each axiom check below is one
`linalg.identity_test`: signed products of the structure constants with
themselves, read at strides, in slices over the first basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    DimensionError, Matrix, _hstack, accumulate, combine, cut, identity_test, unfold)
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
    stacked = Matrix._make(dim * dim, dim, *accumulate([
        (((i - 1) * dim + k - 1, j - 1), sign, co) for i, j, k, sign, co in terms]), reduce=False)
    return cls(dim, cut(stacked, dim, dim))


def _column(x: Matrix, dim: int, what: str) -> None:
    if x.rows != dim or x.cols != 1:
        raise DimensionError(f"{what}: argument is {x.rows}x{x.cols}, not a {dim}x1 column")


def _multiply(g, x: Matrix, y: Matrix, what: str) -> Matrix:
    """sum_{i,j} x_i y_j e_i e_j = L(x) y for column vectors x, y."""
    _column(x, g.dim, what)
    _column(y, g.dim, what)
    return combine(g.unfolded[0], x) * y


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    c: tuple  # c[i] = ad(e_i): column j is [e_i, e_j]

    def __post_init__(self):
        object.__setattr__(self, "c", _left_multiplications(self.dim, self.c))

    @classmethod
    def from_constants(cls, dim: int, constants: list) -> "LieAlgebra":
        """From 1-indexed records (i, j, k, coeff), each adding coeff at e_k in
        [e_i, e_j].  A pair (i, j) is mirrored, negated, to (j, i) unless
        (j, i) is given explicitly, so a pair (i, i) is never negated."""
        given = {(i, j) for i, j, _, _ in constants}
        return _from_constants(cls, dim, [(i, j, k, 1, co) for i, j, k, co in constants] + [
            (j, i, k, -1, co) for i, j, k, co in constants if (j, i) not in given])

    @cached_property
    def unfolded(self) -> tuple:
        """`linalg.unfold` of ad(e_1), ..., ad(e_n)."""
        return unfold(self.c, self.dim)

    def bracket(self, x: Matrix, y: Matrix) -> Matrix:
        """Bracket of coordinate column vectors."""
        return _multiply(self, x, y, "bracket")

    def basis_bracket(self, i: int, j: int) -> Matrix:
        return self.c[i]._block(0, self.dim, j, j + 1)


@dataclass(frozen=True)
class PreLieAlgebra:
    dim: int
    p: tuple  # p[i] = L(e_i): column j is e_i . e_j

    def __post_init__(self):
        object.__setattr__(self, "p", _left_multiplications(self.dim, self.p))

    @classmethod
    def from_constants(cls, dim: int, constants: list) -> "PreLieAlgebra":
        """From 1-indexed records (i, j, k, coeff), each adding coeff at e_k in
        e_i . e_j."""
        return _from_constants(cls, dim, [(i, j, k, 1, co) for i, j, k, co in constants])

    @cached_property
    def unfolded(self) -> tuple:
        """`linalg.unfold` of L(e_1), ..., L(e_n)."""
        return unfold(self.p, self.dim)

    def product(self, x: Matrix, y: Matrix) -> Matrix:
        return _multiply(self, x, y, "product")

    def basis_product(self, i: int, j: int) -> Matrix:
        return self.p[i]._block(0, self.dim, j, j + 1)


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

    @cached_property
    def unfolded(self) -> tuple:
        """`linalg.unfold` of rho(e_1), ..., rho(e_n)."""
        return unfold(self.mats, self.module_dim)

    def act(self, x: Matrix) -> Matrix:
        """Matrix of rho(x) for a coordinate column vector x."""
        _column(x, self.algebra.dim, "act")
        return combine(self.unfolded[0], x)

    def check(self) -> Report:
        """Homomorphism law rho([e_i,e_j]) = [rho(e_i), rho(e_j)] on basis pairs,
        a slice of products per e_i."""
        rep = Report("representation homomorphism law")
        n, m, mats = self.algebra.dim, self.module_dim, self.mats
        st, row, _ = self.unfolded
        ad_t = cut(self.algebra.unfolded[2], n, n)  # ad(e_i)^T
        rep.record_tuples("rep-hom", identity_test(
            {"i": n, "j": n, "r": m, "s": m},
            [(1, (ad_t, st.reshape(n, m * m)), "jrs"), (-1, (mats, row), "rjs"),
             (1, (st, mats), "jrs")], ordered=2))
        return rep


def check_lie(g: LieAlgebra) -> Report:
    """Antisymmetry and Jacobi on all basis tuples, Jacobi a slice of
    products per first index."""
    rep = Report("Lie algebra axioms")
    n = g.dim
    st, row, ts = g.unfolded
    sizes = {"i": n, "j": n, "k": n, "r": n}
    antisymmetric = rep.record_tuples(
        "antisymmetry", identity_test(sizes, [(1, row, "kij"), (1, row, "kji")]),
        failures_only=True)
    # [[e_i,e_j],e_k] + [[e_k,e_i],e_j] + [[e_j,e_k],e_i], with ad(e_i)^T and the
    # right multiplication by e_i cut from the unfoldings
    ad_t, right, st_r = cut(ts, n, n), cut(st, n, n, n), st.reshape(n, n * n)
    if rep.record_tuples("jacobi", identity_test(
            sizes, [(1, (ad_t, st_r), "jrk"), (1, (right, st_r), "krj"), (1, (ts, right), "jkr")],
            ordered=3), failures_only=True) and antisymmetric:
        rep.record("lie-axioms", (), True)
    return rep


def check_prelie(g: PreLieAlgebra) -> Report:
    """Left-symmetry of the associator on all basis triples, a slice of
    products per first index."""
    rep = Report("pre-Lie identity")
    n = g.dim
    st, _, ts = g.unfolded
    # (e_i e_j)e_k - e_i(e_j e_k) - (e_j e_i)e_k + e_j(e_i e_k)
    l_t, right, st_r = cut(ts, n, n), cut(st, n, n, n), st.reshape(n, n * n)
    if rep.record_tuples("left-symmetry", identity_test(
            {"i": n, "j": n, "k": n, "r": n},
            [(1, (l_t, st_r), "jrk"), (-1, (ts, l_t), "jkr"), (-1, (right, st_r), "jrk"),
             (1, (st, g.p), "jrk")]), failures_only=True):
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
