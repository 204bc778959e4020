"""Operator predicates: relative differential operators, O-operators, Nijenhuis
operators, dual-Nijenhuis pairs, deformed brackets/representations, and the
DN / KD / KN structure and compatibility checks.

Each operator is relative to a Representation rho of g on V, which carries g
as rho.algebra; the predicates take rho itself.

All identities are multilinear, so quantifying over basis tuples is exhaustive;
reports cite 1-indexed basis indices.  Each is one `linalg.identity_test`:
its terms are products of the maps with the unfoldings of ad and rho (the
maps once or twice), read at strides per basis pair; its report keeps the
failing sets, so `.passed` alone builds no claim per basis tuple.

Public functions prove their preconditions once, at entry, each stated with
`Report.require`, then call private builders (`_deformed_bracket`,
`_deformed_representation`, `_coincidence`) that take inputs already proved;
`is_kn` calls the builders on the pair its own preconditions proved; they
sum products with the unfoldings straight into the stacks `algebra` keeps.

Within `memo_scope()`, which the CLI opens around each request, the
`@_memoized` predicates prove each fact once, keyed by name and argument
values: every call returns a copy of the first report (`Report.copy`), its
lists the caller's own, so a caller's mutation cannot reach a later answer.
The scope is the only cache of derived structures: `_deformed_representation`
and `geometry`'s flat representation are kept there too, keyed the same way,
and a frozen Representation is returned as is.  Exceptions are not cached,
and outside a scope every call runs.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from contextlib import contextmanager

from .algebra import LieAlgebra, PreLieAlgebra, Representation, _new, subadjacent
from .linalg import DimensionError, Matrix, block_transpose, combine, identity_test
from .reporting import PreconditionError, Report

ALGEBRA = "algebra"
MODULE = "module"
# each operator's map type, (domain, codomain, what) as LinMap.check_tags takes it
RDO = (ALGEBRA, MODULE, "relative differential operator")
O_OPERATOR = (MODULE, ALGEBRA, "O-operator")
NIJENHUIS = (ALGEBRA, ALGEBRA, "Nijenhuis operator")
DUAL_S = (MODULE, MODULE, "S of a dual-Nijenhuis pair")

_memo: dict | None = None  # (function name, arguments) -> result, in a scope


@contextmanager
def memo_scope():
    """Cache the memoized functions' results until the block exits."""
    global _memo
    outer, _memo = _memo, {} if _memo is None else _memo
    try:
        yield
    finally:
        _memo = outer


def _memoized(fn):
    name = fn.__name__  # the key names the predicate, never holds it

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        if _memo is None or kwargs:
            return fn(*args, **kwargs)
        rep = _memo.get((name, args))
        if rep is None:
            rep = _memo[name, args] = fn(*args)
        return rep.copy() if isinstance(rep, Report) else rep

    return cached


class LinMap(namedtuple("LinMap", "matrix domain codomain")):
    """An exact matrix with domain/codomain tags (algebra or module)."""

    __slots__ = ()

    def __new__(cls, matrix: Matrix, domain: str, codomain: str):
        if domain not in (ALGEBRA, MODULE) or codomain not in (ALGEBRA, MODULE):
            raise ValueError(f"bad tags ({domain}, {codomain})")
        return tuple.__new__(cls, (matrix, domain, codomain))

    def check_shape(self, rho: Representation) -> None:
        dims = {ALGEBRA: rho.algebra.dim, MODULE: rho.module_dim}
        want = (dims[self.codomain], dims[self.domain])
        got = (self.matrix.rows, self.matrix.cols)
        if want != got:
            raise DimensionError(f"map {self.domain}->{self.codomain}: matrix {got} != {want}")

    def check_tags(self, domain: str, codomain: str, what: str) -> "LinMap":
        """self, if it is tagged domain -> codomain; else DimensionError naming `what`."""
        if (self.domain, self.codomain) != (domain, codomain):
            raise DimensionError(f"{what} must map {domain} -> {codomain}")
        return self

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.codomain != self.domain:
            raise DimensionError(
                f"composition mismatch: {other.domain}->{other.codomain} then "
                f"{self.domain}->{self.codomain}"
            )
        return LinMap(self.matrix * other.matrix, other.domain, self.codomain)

    def inv(self) -> "LinMap":
        return LinMap(self.matrix.inv(), self.codomain, self.domain)

    def power(self, k: int) -> "LinMap":
        if self.domain != self.codomain:
            raise DimensionError("power of a non-endomorphism")
        m = Matrix.identity(self.matrix.rows)
        for _ in range(k):
            m = m * self.matrix
        return LinMap(m, self.domain, self.codomain)

    def scale(self, k) -> "LinMap":
        return LinMap(self.matrix.scale(k), self.domain, self.codomain)

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise DimensionError("adding maps with different tags")
        return LinMap(self.matrix + other.matrix, self.domain, self.codomain)

    def __neg__(self) -> "LinMap":
        return LinMap(-self.matrix, self.domain, self.codomain)


# -- single-operator predicates ---------------------------------------


@_memoized
def is_rdo(rho: Representation, d: LinMap) -> Report:
    """d[x,y] = rho(x)d(y) - rho(y)d(x) on all basis pairs."""
    d.check_shape(rho)
    d.check_tags(*RDO)
    rep = Report("relative differential operator")
    n, rd = rho.algebra.dim, rho.st * d.matrix  # rows (i, r): rho(e_i) d
    rep.record_tuples("rdo", identity_test(
        {"i": n, "j": n, "r": rho.module_dim},
        [(1, d.matrix * rho.algebra.unfolded[1], "rij"), (-1, rd, "irj"), (1, rd, "jri")],
        ordered=2))
    return rep


def inner_rdo(rho: Representation, u: Matrix) -> LinMap:
    """The coboundary x -> rho(x) u, read off st u; always a relative differential operator."""
    return LinMap((rho.st * u).reshape(rho.algebra.dim, rho.module_dim).transpose(),
                  ALGEBRA, MODULE)


@_memoized
def is_o_operator(rho: Representation, t: LinMap) -> Report:
    """[Tu,Tv] = T(rho(Tu)v - rho(Tv)u) on all module basis pairs."""
    t.check_shape(rho)
    t.check_tags(*O_OPERATOR)
    rep, m = Report("O-operator"), rho.module_dim
    rep.record_tuples("o-operator", identity_test(
        {"i": m, "j": m, "r": rho.algebra.dim}, _defect(rho, t.matrix, t.matrix), ordered=2))
    return rep


def _defect(rho: Representation, a: Matrix, b: Matrix) -> list:
    """The terms of [au, bv] - a rho(bu)v + a rho(bv)u at basis pairs (u, v),
    read off [au, b.] (rows (u, k)) and a rho(bu) (rows (u, v))."""
    after = combine(rho.unfolded[2], b) * a.transpose()
    return [(1, combine(rho.algebra.st, a) * b, "irj"), (-1, after, "ijr"), (1, after, "jir")]


@_memoized
def is_nijenhuis(g: LieAlgebra, n_map: LinMap) -> Report:
    """Vanishing Nijenhuis torsion; classification flags for N^2 = +/-Id."""
    if n_map.matrix.rows != g.dim or n_map.matrix.cols != g.dim:
        raise DimensionError(f"Nijenhuis candidate must be {g.dim}x{g.dim}")
    rep = Report("Nijenhuis operator")
    n, nm = g.dim, n_map.matrix
    st, row, ts = g.unfolded
    n_row = nm * row  # rows k: N[e_i, e_j]
    # [Ne_i, Ne_j] - N[Ne_i, e_j] - N[e_i, Ne_j] + N^2[e_i, e_j]
    rep.record_tuples("nijenhuis", identity_test(
        {"i": n, "j": n, "r": n},
        [(1, combine(st, nm) * nm, "irj"), (-1, combine(ts, nm) * nm.transpose(), "ijr"),
         (-1, n_row.reshape(n * n, n) * nm, "rij"), (1, nm * n_row, "rij")], ordered=2))
    sign = nijenhuis_square_sign(g, n_map)
    if sign == -1:
        rep.note("complex structure (N^2 = -Id)")
    elif sign == 1:
        rep.note("para-complex structure (N^2 = Id)")
    return rep


def nijenhuis_square_sign(g: LieAlgebra, n_map: LinMap) -> int | None:
    """+1 if N^2 = Id, -1 if N^2 = -Id, else None."""
    sq, ident = n_map.matrix * n_map.matrix, Matrix.identity(g.dim)
    return 1 if sq == ident else -1 if sq == -ident else None


def deformed_bracket(g: LieAlgebra, n_map: LinMap) -> LieAlgebra:
    """[x,y]_N = [Nx,y] + [x,Ny] - N[x,y]; requires N Nijenhuis."""
    nij = is_nijenhuis(g, n_map)
    if not nij.passed:
        v = nij.violations[0]
        raise PreconditionError(f"not a Nijenhuis operator; first violation at {v.indices}", nij)
    return _deformed_bracket(g, n_map.matrix)


def _deformed_bracket(g: LieAlgebra, nm: Matrix) -> LieAlgebra:
    """[.,.]_N for the matrix nm of a Nijenhuis operator:
    ad_N(e_i) = ad(N e_i) + ad(e_i) N - N ad(e_i), stacked, with
    N ad(e_i) = (ad(e_i)^T N^T)^T."""
    st, _, ts = g.unfolded
    return _new(LieAlgebra, dim=g.dim, st=combine(st, nm) + st * nm
                - block_transpose(ts * nm.transpose()))


@_memoized
def is_dual_nijenhuis_pair(rho: Representation, n_map: LinMap, s_map: LinMap) -> Report:
    """rho(Nx)(Sv) = S(rho(Nx)v) + rho(x)(S^2 v) - S(rho(x)(Sv)) for basis x, v."""
    is_nijenhuis(rho.algebra, n_map.check_tags(*NIJENHUIS)).require("N is not a Nijenhuis operator")
    s_map.check_tags(*DUAL_S).check_shape(rho)
    rep = Report("dual-Nijenhuis pair")
    n, m, nm, sm = rho.algebra.dim, rho.module_dim, n_map.matrix, s_map.matrix
    st, row, ts = rho.unfolded
    # rho(Ne_i)S e_a - S rho(Ne_i) e_a - rho(e_i)S^2 e_a + S rho(e_i)S e_a
    rep.record_tuples("dual-nijenhuis", identity_test(
        {"i": n, "j": m, "r": m},
        [(1, combine(st, nm) * sm, "irj"), (-1, combine(ts, nm) * sm.transpose(), "ijr"),
         (-1, st * (sm * sm), "irj"), (1, (sm * row).reshape(m * n, m) * sm, "rij")]))
    return rep


def deformed_representation(rho: Representation, n_map: LinMap, s_map: LinMap) -> Representation:
    """varrho(x) = rho(Nx) - [rho(x), S], a representation of (g, [.,.]_N) on V."""
    is_dual_nijenhuis_pair(rho, n_map, s_map).require("(N,S) is not a dual-Nijenhuis pair")
    return _deformed_representation(rho, n_map.matrix, s_map.matrix)


@_memoized
def _deformed_representation(rho: Representation, nm: Matrix, sm: Matrix) -> Representation:
    """varrho for the matrices nm, sm of a dual-Nijenhuis pair, stacked:
    varrho(e_i) = rho(N e_i) - rho(e_i) S + (rho(e_i)^T S^T)^T."""
    st, _, ts = rho.unfolded
    return _new(Representation, algebra=_deformed_bracket(rho.algebra, nm),
                module_dim=rho.module_dim,
                st=combine(st, nm) - st * sm + block_transpose(ts * sm.transpose()))


# -- brackets induced by an O-operator --------------------------------


def bracket_T(rho: Representation, t: LinMap) -> tuple[PreLieAlgebra, LieAlgebra]:
    """Pre-Lie product u *T v = rho(Tu)v on V and its sub-adjacent bracket."""
    is_o_operator(rho, t).require("T is not an O-operator")
    prelie = _new(PreLieAlgebra, dim=rho.module_dim, st=combine(rho.st, t.matrix))
    return prelie, subadjacent(prelie)


def brackets_coincide(rho: Representation, t: LinMap, s_map: LinMap, n_map: LinMap) -> Report:
    """[.,.]^{NoT}, the S-deformation of [.,.]^T, and {.,.}^T_varrho agree pairwise."""
    nt = n_map.compose(t)
    ts = t.compose(s_map)
    for a in range(rho.module_dim):
        if nt.matrix.col(a) != ts.matrix.col(a):
            raise PreconditionError(f"N∘T ≠ T∘S at module basis vector {a + 1}")
    return _coincidence(rho, t, s_map.matrix, nt, deformed_representation(rho, n_map, s_map))


def _coincidence(rho: Representation, t: LinMap, sm: Matrix, nt: LinMap,
                 varrho: Representation) -> Report:
    """The coincidence claims, given nt = N∘T = T∘S for the matrix sm of S and
    the representation varrho of a dual-Nijenhuis pair (N, S)."""
    rep = Report("bracket coincidence")
    tm, m = t.matrix, rho.module_dim
    st, _, ts = rho.unfolded  # rows (u, r) of combine(st, x): rho(xu)
    act_nt, act_ts, act_t_s = combine(st, nt.matrix), combine(st, tm * sm), combine(st, tm) * sm
    act_vr, s_after = combine(varrho.st, tm), combine(ts, tm) * sm.transpose()
    # [u, v]^{NoT} against [Su, v]^T + [u, Sv]^T - S[u, v]^T, with
    # [u, v]^T = rho(Tu)v - rho(Tv)u, and against varrho(Tu)v - varrho(Tv)u
    b_nt = [(1, act_nt, "irj"), (-1, act_nt, "jri")]
    rep.record_tuples(("bracket-NoT-vs-S-deformed", "bracket-NoT-vs-varrho"), identity_test(
        {"i": m, "j": m, "r": m},
        b_nt + [(-1, act_ts, "irj"), (1, act_t_s, "jri"), (-1, act_t_s, "irj"),
                (1, act_ts, "jri"), (1, s_after, "ijr"), (-1, s_after, "jir")],
        b_nt + [(-1, act_vr, "irj"), (1, act_vr, "jri")], ordered=2))
    return rep


# -- paired structures ------------------------------------------------


@_memoized
def is_dn(rho: Representation, d: LinMap, n_map: LinMap) -> Report:
    """DN-structure: d and d∘N are both relative differential operators, N Nijenhuis."""
    pre = Report("DN preconditions")
    pre.merge(is_rdo(rho, d), "d:")
    pre.merge(is_nijenhuis(rho.algebra, n_map.check_tags(*NIJENHUIS)), "N:")
    pre.require("DN preconditions failed")
    rep = Report("DN-structure")
    rep.merge(is_rdo(rho, d.compose(n_map)), "d∘N:")
    return rep


def dn_powers(rho: Representation, d: LinMap, n_map: LinMap, kmax: int) -> Report:
    """d∘N^k are relative differential operators and (d∘N^k, N^k) are DN, k=1..kmax."""
    rep = Report(f"DN powers up to {kmax}")
    for k in range(1, kmax + 1):
        nk = n_map.power(k)
        dk = d.compose(nk)
        rep.record(f"rdo(d∘N^{k})", (k,), is_rdo(rho, dk).passed)
        rep.record(f"dn(d∘N^{k}, N^{k})", (k,), is_dn(rho, dk, nk).passed)
    return rep


@_memoized
def is_kd(rho: Representation, t: LinMap, d: LinMap) -> Report:
    """KD-structure: with N = T∘d, the composite d∘N is again an RDO."""
    pre = Report("KD preconditions")
    pre.merge(is_o_operator(rho, t), "T:")
    pre.merge(is_rdo(rho, d), "d:")
    pre.require("KD preconditions failed")
    n_map = t.compose(d)
    rep = Report("KD-structure")
    rep.merge(is_rdo(rho, d.compose(n_map)), "d∘(T∘d):")
    return rep


@_memoized
def is_kn(rho: Representation, t: LinMap, s_map: LinMap, n_map: LinMap) -> Report:
    """KN-structure: N∘T = T∘S, brackets coincide, plus the two O-operator consequences."""
    pre = Report("KN preconditions")
    pre.merge(is_o_operator(rho, t), "T:")
    pre.merge(is_dual_nijenhuis_pair(rho, n_map, s_map), "(N,S):")
    pre.require("KN preconditions failed")
    rep = Report("KN-structure")
    nt = n_map.compose(t)
    commute = nt.matrix == t.compose(s_map).matrix
    rep.record("N∘T=T∘S", (), commute)
    if commute:
        varrho = _deformed_representation(rho, n_map.matrix, s_map.matrix)
        rep.merge(_coincidence(rho, t, s_map.matrix, nt, varrho))
        # consequences: T is an O-operator for (deformed bracket, varrho);
        # N∘T is an O-operator for (g, rho)
        rep.record("T O-operator on deformed algebra", (), is_o_operator(varrho, t).passed)
        rep.record("N∘T O-operator", (), is_o_operator(rho, nt).passed)
    return rep


@_memoized
def are_compatible(rho: Representation, t1: LinMap, t2: LinMap) -> Report:
    """Mixed bilinear identity on basis pairs.

    It is exactly what makes every combination k1 T1 + k2 T2 an O-operator:
    the O-operator defect def(T)(u, v) = [Tu,Tv] - T(rho(Tu)v - rho(Tv)u) is
    quadratic in T, so def(k1 T1 + k2 T2) = k1^2 def(T1) + k2^2 def(T2)
    + k1 k2 mixed(T1, T2), where mixed(T1, T2) is the identity checked here."""
    pre = Report("compatibility preconditions")
    pre.merge(is_o_operator(rho, t1), "T1:")
    pre.merge(is_o_operator(rho, t2), "T2:")
    pre.require("compatibility preconditions failed")
    rep, m = Report("compatible O-operators"), rho.module_dim
    # [T1u, T2v] + [T2u, T1v] - T1(rho(T2u)v - rho(T2v)u) - T2(rho(T1u)v - rho(T1v)u)
    rep.record_tuples("mixed-identity", identity_test(
        {"i": m, "j": m, "r": rho.algebra.dim},
        _defect(rho, t1.matrix, t2.matrix) + _defect(rho, t2.matrix, t1.matrix), ordered=2))
    return rep


def kn_hierarchy(rho: Representation, t: LinMap, s_map: LinMap, n_map: LinMap,
                 kmax: int) -> Report:
    """N^k∘T are O-operators and pairwise compatible, for k, l <= kmax."""
    is_kn(rho, t, s_map, n_map).require("(T,S,N) is not a KN-structure")
    rep = Report(f"KN hierarchy up to {kmax}")
    powers = [n_map.power(k).compose(t) for k in range(kmax + 1)]
    for k in range(kmax + 1):
        rep.record(f"o-operator(N^{k}∘T)", (k,), is_o_operator(rho, powers[k]).passed)
    for k, l in itertools.combinations(range(kmax + 1), 2):
        rep.record(f"compatible(N^{k}∘T, N^{l}∘T)", (k, l),
                   are_compatible(rho, powers[k], powers[l]).passed)
    return rep
