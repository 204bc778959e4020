"""Structure-constant Lie and pre-Lie algebras and their standard representations.

Conventions (all 0-indexed internally, 1-indexed in reports and I/O):
  Lie:     [e_i, e_j] = sum_k c[i][k, j] e_k
  pre-Lie: e_i . e_j  = sum_k p[i][k, j] e_k
  Representation matrices act on column coordinate vectors.

An algebra (a representation) stores its structure constants once, as the
integer stack st = [M_1; ...; M_n] of the left multiplications (of the
rho(e_i)): column j of the block c[i] (p[i]) is [e_i, e_j] (e_i . e_j).
Equality and hashing read st.  The constructors stack the n matrices;
`from_constants` sums sparse records (i, j, k, coeff) straight into st, as
the builders below build into it.  c, p and mats are cut from st on first
read, and so are `linalg.unfold`'s [M_1 | ... | M_n] and [M_1^T; ...; M_n^T].
bracket, product and act are products with st, and each axiom check below is
one `linalg.identity_test`: signed products of the structure constants with
themselves, read at strides, in slices over the first basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    DimensionError, Matrix, accumulate, combine, cut, identity_test, permute, stack, unfold)
from .reporting import Report


def _new(cls, **fields):
    """A cls holding the given attributes, unchecked: its fields and cached reads."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _from_constants(cls, dim: int, terms: list):
    """cls with st from 1-indexed terms (i, j, k, sign, coeff), each adding
    sign * coeff at e_k in e_i e_j: entry (k, j) of L_i."""
    for i, j, k, _, co in terms:
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise ValueError(f"index out of range 1..{dim} in record {(i, j, k, co)!r}")
    return _new(cls, dim=dim, st=Matrix._make(dim * dim, dim, *accumulate([
        (((i - 1) * dim + k - 1, j - 1), sign, co) for i, j, k, sign, co in terms])))


def _column(x: Matrix, dim: int, what: str) -> None:
    if x.rows != dim or x.cols != 1:
        raise DimensionError(f"{what}: argument is {x.rows}x{x.cols}, not a {dim}x1 column")


def _multiply(g, x: Matrix, y: Matrix, what: str) -> Matrix:
    """sum_{i,j} x_i y_j e_i e_j = L(x) y for column vectors x, y."""
    _column(x, g.dim, what)
    _column(y, g.dim, what)
    return combine(g.st, x) * y


def _blocks(st: Matrix, n: int) -> tuple:
    """The n square blocks of st, cut on the first read of c, p or mats."""
    d = st.cols
    return tuple(cut(st, d, d)) if d else (st,) * n


class _Unfolded:
    @cached_property
    def unfolded(self) -> tuple:
        """st and, made from it on first read, `linalg.unfold`'s two others."""
        return (self.st, *unfold(self.st))


@dataclass(frozen=True, init=False)
class _Algebra(_Unfolded):
    dim: int
    st: Matrix  # [L(e_1); ...; L(e_n)]: column j of block i is e_i e_j

    def __init__(self, dim: int, mats):
        """From the dim left multiplications L(e_i), each dim x dim."""
        mats = tuple(mats)
        if len(mats) != dim or any(m.rows != dim or m.cols != dim for m in mats):
            raise DimensionError(f"a {dim}-dimensional algebra needs {dim} {dim}x{dim} matrices")
        self.__dict__.update(dim=dim, st=stack(mats, dim))


class LieAlgebra(_Algebra):
    @classmethod
    def from_constants(cls, dim: int, constants: list) -> "LieAlgebra":
        """From 1-indexed records (i, j, k, coeff), each adding coeff at e_k in
        [e_i, e_j].  A pair (i, j) is mirrored, negated, to (j, i) unless
        (j, i) is given explicitly, so a pair (i, i) is never negated."""
        given = {(i, j) for i, j, _, _ in constants}
        return _from_constants(cls, dim, [(i, j, k, 1, co) for i, j, k, co in constants] + [
            (j, i, k, -1, co) for i, j, k, co in constants if (j, i) not in given])

    @cached_property
    def c(self) -> tuple:
        """c[i] = ad(e_i): column j is [e_i, e_j]."""
        return _blocks(self.st, self.dim)

    def bracket(self, x: Matrix, y: Matrix) -> Matrix:
        """Bracket of coordinate column vectors."""
        return _multiply(self, x, y, "bracket")

    def basis_bracket(self, i: int, j: int) -> Matrix:
        return self.c[i]._block(0, self.dim, j, j + 1)


class PreLieAlgebra(_Algebra):
    @classmethod
    def from_constants(cls, dim: int, constants: list) -> "PreLieAlgebra":
        """From 1-indexed records (i, j, k, coeff), each adding coeff at e_k in
        e_i . e_j."""
        return _from_constants(cls, dim, [(i, j, k, 1, co) for i, j, k, co in constants])

    @cached_property
    def p(self) -> tuple:
        """p[i] = L(e_i): column j is e_i . e_j."""
        return _blocks(self.st, self.dim)

    def product(self, x: Matrix, y: Matrix) -> Matrix:
        return _multiply(self, x, y, "product")

    def basis_product(self, i: int, j: int) -> Matrix:
        return self.p[i]._block(0, self.dim, j, j + 1)


@dataclass(frozen=True, init=False)
class Representation(_Unfolded):
    algebra: LieAlgebra
    module_dim: int
    st: Matrix  # [rho(e_1); ...; rho(e_n)]

    def __init__(self, algebra: LieAlgebra, module_dim: int, mats):
        """From the matrices rho(e_i), each module_dim x module_dim."""
        mats, m = tuple(mats), module_dim
        if b := next((x for x in mats if (x.rows, x.cols) != (m, m)), None):
            raise DimensionError(f"representation matrix {b.rows}x{b.cols} on module of dim {m}")
        if len(mats) != algebra.dim:
            raise DimensionError(f"{len(mats)} matrices for algebra of dim {algebra.dim}")
        self.__dict__.update(algebra=algebra, module_dim=m, st=stack(mats, m))

    @cached_property
    def mats(self) -> tuple:
        """mats[i] = rho(e_i), one module_dim x module_dim Matrix."""
        return _blocks(self.st, self.algebra.dim)

    def act(self, x: Matrix) -> Matrix:
        """Matrix of rho(x) for a coordinate column vector x."""
        _column(x, self.algebra.dim, "act")
        return combine(self.st, x)

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
    column j of the right multiplication R_i is column i of L_j, so the stack
    of the R_i moves st's entry (j n + k, i) to (i n + k, j)."""
    n, st = g.dim, g.st
    return _new(LieAlgebra, dim=n, st=st - permute(st, n * n, n, lambda j, k, i: (i * n + k, j)))


def regular_rep(g: PreLieAlgebra) -> Representation:
    """Left multiplications L(e_i) as a representation of the sub-adjacent
    algebra, sharing g's stack and unfoldings."""
    return _new(Representation, algebra=subadjacent(g), module_dim=g.dim, st=g.st,
                unfolded=g.unfolded)


def adjoint_rep(g: LieAlgebra) -> Representation:
    return _new(Representation, algebra=g, module_dim=g.dim, st=g.st, unfolded=g.unfolded)


def dual_rep(r: Representation) -> Representation:
    """Dual action rho*(x) = -rho(x)^T on the dual module: the stack -ts."""
    return _new(Representation, algebra=r.algebra, module_dim=r.module_dim, st=-r.unfolded[2])


def coadjoint_rep(g: LieAlgebra) -> Representation:
    return dual_rep(adjoint_rep(g))


def coregular_rep(g: PreLieAlgebra) -> Representation:
    return dual_rep(regular_rep(g))


def trivial_rep(g: LieAlgebra, module_dim: int) -> Representation:
    return _new(Representation, algebra=g, module_dim=module_dim,
                st=Matrix.zero(g.dim * module_dim, module_dim))


def abelian(dim: int) -> LieAlgebra:
    return _new(LieAlgebra, dim=dim, st=Matrix.zero(dim * dim, dim))
