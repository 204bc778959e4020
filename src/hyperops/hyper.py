"""Classification of triples of invertible relative differential operators whose
cross-compositions square to +/-Id, the identity suites they satisfy, and the
decomposition/reconstruction through an invertible map and a pair of
anticommuting (para-)complex structures.

Index convention: triples are stored 0-indexed; i-1 and i+1 are cyclic mod 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Representation
from .linalg import Matrix, SingularMatrixError, combine, identity_test
from .operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    are_compatible,
    is_dn,
    is_kd,
    is_kn,
    is_nijenhuis,
    is_rdo,
    nijenhuis_square_sign,
)
from .reporting import PreconditionError, Report


def _cyc(i: int) -> int:
    return i % 3


class HyperTriple(NamedTuple):
    """Three invertible RDOs d of the representation rho, with derived
    T_i = d_i^-1, N_i = T_{i-1}∘d_{i+1}, S_i = d_{i+1}∘T_{i-1}, signature eps,
    and the canonical map hflat."""

    rho: Representation
    d: tuple  # three LinMap algebra->module
    t: tuple  # three LinMap module->algebra
    n: tuple  # three LinMap algebra->algebra
    s: tuple  # three LinMap module->module
    eps: tuple  # three ints +/-1
    hflat: LinMap

    @property
    def eps_product(self) -> int:
        return self.eps[0] * self.eps[1] * self.eps[2]

    def k(self, i: int) -> LinMap:
        """K_i = N_i ∘ T_i (module -> algebra), materialized on demand."""
        return self.n[i].compose(self.t[i])


class ClassificationError(ValueError):
    """A triple failed hyper classification; message names the first violation."""


def classify_hyper(rho: Representation, d1: LinMap, d2: LinMap, d3: LinMap) -> HyperTriple:
    """Check the three maps are invertible RDOs and the N_i square to +/-Id;
    eps is always computed from the matrices, never supplied."""
    ds, ts = (d1, d2, d3), []
    for i, d in enumerate(ds):
        d.check_shape(rho)
        try:
            ts.append(d.inv())
        except SingularMatrixError as exc:
            raise ClassificationError(f"d{i + 1} is not invertible ({exc})") from exc
        r = is_rdo(rho, d)
        if not r.passed:
            raise ClassificationError(
                f"d{i + 1} is not a relative differential operator; "
                f"first violation at basis pair {r.violations[0].indices}"
            )
    ns = tuple(ts[_cyc(i - 1)].compose(ds[_cyc(i + 1)]) for i in range(3))
    eps = []
    for i in range(3):
        sign = nijenhuis_square_sign(rho.algebra, ns[i])
        if sign is None:
            raise ClassificationError(f"N{i + 1}^2 is not +/-Id")
        eps.append(sign)
    ss = tuple(ds[_cyc(i + 1)].compose(ts[_cyc(i - 1)]) for i in range(3))
    hflat = ds[2].compose(ts[0]).compose(ds[1]).scale(eps[2] * eps[1])
    return HyperTriple(rho, ds, tuple(ts), ns, tuple(ss), tuple(eps), hflat)


def verify_hflat_identities(t: HyperTriple) -> Report:
    """The canonical-map identity families, as exact matrix equalities for i=1,2,3."""
    rep = Report("hflat identities")
    e = t.eps
    e123 = t.eps_product
    hb = t.hflat
    hb_inv = hb.inv()
    for i in range(3):
        ip, im = _cyc(i + 1), _cyc(i - 1)
        alt = t.d[im].compose(t.t[i]).compose(t.d[ip]).scale(e[im] * e[ip])
        rep.record("hflat-cyclic-invariance", (i + 1,), alt.matrix == hb.matrix)

        ts_i = t.t[i].compose(t.s[i])
        rep.record("T∘S=prod(eps)·N∘T", (i + 1,),
                   ts_i.matrix == t.n[i].compose(t.t[i]).scale(e123).matrix)
        rep.record("T∘S=eps[i+1]·hflat^-1", (i + 1,),
                   ts_i.matrix == hb_inv.scale(e[ip]).matrix)

        dn_i = t.d[i].compose(t.n[i])
        rep.record("d∘N=prod(eps)·S∘d", (i + 1,),
                   dn_i.matrix == t.s[i].compose(t.d[i]).scale(e123).matrix)
        rep.record("d∘N=eps[i-1]·hflat", (i + 1,),
                   dn_i.matrix == hb.scale(e[im]).matrix)

        hn_i = hb.compose(t.n[i])
        rep.record("hflat∘N=prod(eps)·S∘hflat", (i + 1,),
                   hn_i.matrix == t.s[i].compose(hb).scale(e123).matrix)
        rep.record("hflat∘N=eps[i]eps[i-1]·d", (i + 1,),
                   hn_i.matrix == t.d[i].scale(e[i] * e[im]).matrix)
    return rep


def verify_composition_table(t: HyperTriple) -> Report:
    """The six-item composition table among T, S, N, d, every index case."""
    rep = Report("composition table")
    e = t.eps
    e123 = t.eps_product
    for i in range(3):
        ip, im = _cyc(i + 1), _cyc(i - 1)
        # (i) T_i∘S_j = N_j∘T_i with the stated right-hand sides
        for j, rhs in ((ip, t.t[im].scale(e[ip])), (im, t.t[ip])):
            lhs = t.t[i].compose(t.s[j])
            rep.record("(i) T∘S=N∘T", (i + 1, j + 1),
                       lhs.matrix == t.n[j].compose(t.t[i]).matrix)
            rep.record("(i) closed form", (i + 1, j + 1), lhs.matrix == rhs.matrix)
        # (ii) d_i∘N_j = S_j∘d_i
        for j, rhs in ((ip, t.d[im]), (im, t.d[ip].scale(e[im]))):
            lhs = t.d[i].compose(t.n[j])
            rep.record("(ii) d∘N=S∘d", (i + 1, j + 1),
                       lhs.matrix == t.s[j].compose(t.d[i]).matrix)
            rep.record("(ii) closed form", (i + 1, j + 1), lhs.matrix == rhs.matrix)
        # (iii) N_i∘N_j = prod(eps)·N_j∘N_i
        for j, rhs in ((ip, t.n[im].scale(e[i] * e[ip])), (im, t.n[ip].scale(e[ip]))):
            lhs = t.n[i].compose(t.n[j])
            rep.record("(iii) N-anticommutation", (i + 1, j + 1),
                       lhs.matrix == t.n[j].compose(t.n[i]).scale(e123).matrix)
            rep.record("(iii) closed form", (i + 1, j + 1), lhs.matrix == rhs.matrix)
        # (iv) S_i∘S_j = prod(eps)·S_j∘S_i, and S_i^2 = eps_i Id
        for j, rhs in ((ip, t.s[im].scale(e[im])), (im, t.s[ip].scale(e123 * e[ip]))):
            lhs = t.s[i].compose(t.s[j])
            rep.record("(iv) S-anticommutation", (i + 1, j + 1),
                       lhs.matrix == t.s[j].compose(t.s[i]).scale(e123).matrix)
            rep.record("(iv) closed form", (i + 1, j + 1), lhs.matrix == rhs.matrix)
        sq = t.s[i].compose(t.s[i])
        rep.record("(iv) S^2=eps·Id", (i + 1,),
                   sq.matrix == Matrix.identity(t.rho.module_dim).scale(e[i]))
        # (v) T_k∘d_i
        for k, rhs in ((i, LinMap(Matrix.identity(t.rho.algebra.dim), ALGEBRA, ALGEBRA)),
                       (ip, t.n[im]), (im, t.n[ip].scale(e[ip]))):
            lhs = t.t[k].compose(t.d[i])
            rep.record("(v) T∘d", (k + 1, i + 1), lhs.matrix == rhs.matrix)
        # (vi) d_i∘T_k
        for k, rhs in ((i, LinMap(Matrix.identity(t.rho.module_dim), MODULE, MODULE)),
                       (ip, t.s[im]), (im, t.s[ip].scale(e[ip]))):
            lhs = t.d[i].compose(t.t[k])
            rep.record("(vi) d∘T", (i + 1, k + 1), lhs.matrix == rhs.matrix)
    return rep


def product_one_suite(t: HyperTriple) -> Report:
    """Extra structure available when eps_1 eps_2 eps_3 = +1."""
    if t.eps_product != 1:
        raise PreconditionError(
            f"suite requires eps product +1, got eps={t.eps}")
    rep = Report("eps-product +1 suite")
    rho = t.rho
    hb = t.hflat
    hb_inv = hb.inv()
    for i in range(3):
        im = _cyc(i - 1)
        rep.record("(d_i,N_i) DN-structure", (i + 1,), is_dn(rho, t.d[i], t.n[i]).passed)
        # key identity: S rho(Tu)v - S rho(Tv)u - rho(Tu)(Sv) + rho(Tv)(Su) = 0
        sm, tm, (st, _, ts) = t.s[i].matrix, t.t[i].matrix, rho.unfolded
        s_after, act_s = combine(ts, tm) * sm.transpose(), combine(st, tm) * sm
        _, (fails,) = identity_test(dict.fromkeys("ijr", rho.module_dim), [
            (1, s_after, "ijr"), (-1, s_after, "jir"), (-1, act_s, "irj"), (1, act_s, "jri")],
            ordered=2)
        rep.record("key identity", (i + 1,), not fails,
                   tuple(u + 1 for u in min(fails)) if fails else None)
        rep.record("(K_i,d_i) KD-structure", (i + 1,), is_kd(rho, t.k(i), t.d[i]).passed)
        ni_from_h = t.t[i].compose(hb)
        rep.record("T_i∘hflat=eps[i-1]·N_i", (i + 1,),
                   ni_from_h.matrix == t.n[i].scale(t.eps[im]).matrix)
        rep.record("(hflat,T_i∘hflat) DN-structure", (i + 1,),
                   is_dn(rho, hb, ni_from_h).passed)
        rep.record("(hflat^-1,S_i,N_i) KN-structure", (i + 1,),
                   is_kn(rho, hb_inv, t.s[i], t.n[i]).passed)
        rep.record("T_i compatible with hflat^-1", (i + 1,),
                   are_compatible(rho, t.t[i], hb_inv).passed)
    rep.record("hflat is RDO", (), is_rdo(rho, hb).passed)
    return rep


class Decomposition(NamedTuple):
    hflat: LinMap
    i1: LinMap
    i2: LinMap
    i3: LinMap
    permutation: tuple  # cyclic renumbering applied to a para-hyper input


PARA_NORMAL = (1, 1, -1)


def decompose_hyper(t: HyperTriple) -> Decomposition:
    """Split a triple with eps product -1 into an invertible map and an
    anticommuting pair of (para-)complex structures with d_i = hflat∘I_i."""
    if t.eps_product != -1:
        raise PreconditionError(f"decomposition requires eps product -1, got eps={t.eps}")
    perm = (0, 1, 2)
    if t.eps != (-1, -1, -1) and t.eps != PARA_NORMAL:
        # cyclic renumbering to the normalized para-hyper order (1,1,-1)
        for shift in (1, 2):
            cand = tuple(t.eps[_cyc(k + shift)] for k in range(3))
            if cand == PARA_NORMAL:
                perm = tuple(_cyc(k + shift) for k in range(3))
                break
        t = classify_hyper(t.rho, t.d[perm[0]], t.d[perm[1]], t.d[perm[2]])
    hb = t.hflat
    if t.eps == (-1, -1, -1):
        i1, i2 = t.n[0], t.n[1]
    else:
        # para-hyper (1,1,-1): signs chosen so that d_i = hflat∘I_i exactly
        i1, i2 = -t.n[0], t.n[1]
    i3 = i1.compose(i2)
    for idx, ii in enumerate((i1, i2, i3)):
        if hb.compose(ii).matrix != t.d[idx].matrix:
            raise AssertionError(f"internal: d_{idx + 1} != hflat∘I_{idx + 1}")
    return Decomposition(hb, i1, i2, i3, perm)


def reconstruct_hyper(rho: Representation, hflat: LinMap, i1: LinMap, i2: LinMap) -> HyperTriple:
    """Converse direction: build d_i = hflat∘I_i with I_3 = I_1∘I_2 and classify."""
    problems = Report("reconstruction preconditions")
    anti = i1.compose(i2).matrix == -(i2.compose(i1).matrix)
    problems.record("I1∘I2=-I2∘I1", (), anti)
    for idx, ii in enumerate((i1, i2)):
        sq = ii.compose(ii).matrix
        ident = Matrix.identity(rho.algebra.dim)
        problems.record("I^2=+/-Id", (idx + 1,), sq == ident or sq == -ident)
    try:
        hflat.inv()
        problems.record("hflat invertible", (), True)
    except SingularMatrixError:
        problems.record("hflat invertible", (), False)
    problems.require("reconstruction preconditions failed")
    i3 = i1.compose(i2)
    return classify_hyper(rho, hflat.compose(i1), hflat.compose(i2), hflat.compose(i3))


def derived_structures_report(t: HyperTriple) -> Report:
    """All KD/DN/KN/compatibility/Nijenhuis claims a hyper triple guarantees."""
    rep = Report("derived structures")
    rho = t.rho
    for i in range(3):
        nij = is_nijenhuis(rho.algebra, t.n[i])
        rep.record("N_i Nijenhuis", (i + 1,), nij.passed)
        for k in range(3):
            if k == i:
                continue
            rep.record("(T_i,d_k) KD", (i + 1, k + 1), is_kd(rho, t.t[i], t.d[k]).passed)
            rep.record("(d_i,N_k) DN", (i + 1, k + 1), is_dn(rho, t.d[i], t.n[k]).passed)
            rep.record("(T_i,S_k,N_k) KN", (i + 1, k + 1),
                       is_kn(rho, t.t[i], t.s[k], t.n[k]).passed)
        for j in range(i + 1, 3):
            rep.record("T_i,T_j compatible", (i + 1, j + 1),
                       are_compatible(rho, t.t[i], t.t[j]).passed)
    return rep
