"""Bilinear forms and the structures they induce: symplectic and Hessian forms,
their flat maps, (anti-)Hermitian pairs, the Kahler-type quadruples, invariant
forms, and the endomorphism-triple correspondences.

Form convention: matrix[i][j] = form(e_i, e_j); wedge e_i*∧e_j* contributes +1
at (i,j) and -1 at (j,i), tensor e_i*⊗e_j* contributes +1 at (i,j).

The form identities (`FormIdentity`) are checked by `linalg.identity_test`,
like every basis-tuple identity; their instances are the systems `search` solves.
Each form check cross-checks its flat map against the coadjoint (Lie) or
coregular (pre-Lie) representation, which `_flat_rep` builds once per
`operators.memo_scope` request, keyed by the algebra's value; nothing is kept
on the algebra itself.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    coregular_rep,
    regular_rep,
)
from .hyper import (
    ClassificationError,
    HyperTriple,
    classify_hyper,
    decompose_hyper,
    reconstruct_hyper,
)
from .linalg import (
    DimensionError, Matrix, SingularMatrixError, accumulate, block_transpose, combine,
    identity_test, members)
from .operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    _memoized,
    is_nijenhuis,
    is_rdo,
    nijenhuis_square_sign,
)
from .reporting import PreconditionError, Report
from .scalars import Scalar

SYMMETRIC = "symmetric"
SKEW = "skew"


@dataclass(frozen=True)
class BilForm:
    matrix: Matrix
    symmetry: str  # symmetric | skew | none
    transposed: Matrix = field(init=False, repr=False, compare=False)  # the flat map's matrix

    def __post_init__(self):
        if self.symmetry not in (SYMMETRIC, SKEW, "none"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        m = self.matrix
        object.__setattr__(self, "transposed", mt := m.transpose())
        if self.symmetry == SYMMETRIC and mt != m:
            raise ValueError("matrix is not symmetric")
        # skew: square, and each row of mt (as many entries) negates m's own
        if self.symmetry == SKEW and (m.rows != m.cols or any(
                {j: -v for j, v in r.items()} != t.get(i)
                for x, t in ((m.re, mt.re), (m.im, mt.im)) for i, r in x.items())):
            raise ValueError("matrix is not skew")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __call__(self, x: Matrix, y: Matrix) -> Scalar:
        return (x.transpose() * self.matrix * y)[0, 0]

    def is_nondegenerate(self) -> bool:
        return not self.matrix.det().is_zero()

    def is_real(self) -> bool:
        return self.matrix.is_real()

    @classmethod
    def from_terms(cls, dim: int, terms, symmetry: str) -> "BilForm":
        """terms: iterable of (kind, i, j, coeff), 1-indexed; a 'tensor' term
        adds coeff at (i, j), a 'wedge' term also -coeff at (j, i)."""
        flat = []
        for kind, i, j, co in terms:
            if kind not in ("wedge", "tensor"):
                raise ValueError(f"unknown term kind {kind!r}")
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"index out of range 1..{dim} in term {(kind, i, j, co)!r}")
            flat.append(((i - 1, j - 1), 1, co))
            if kind == "wedge":
                flat.append(((j - 1, i - 1), -1, co))
        return cls(Matrix._make(dim, dim, *accumulate(flat)), symmetry)


@functools.cache
def _coordinates(n: int, skew: bool) -> tuple:
    """The coordinates of an n-dimensional form; at r * n + u the (index,
    sign) of f(e_r, e_u) among them, with sign 0 on a skew form's diagonal;
    and the placement matrix P, len(coords) x n^2, whose row m is coordinate
    m's form flattened: 1 at its (i, j) and, negated when skew, at (j, i).
    The form with coordinate row x is (x P).reshape(n, n)."""
    coords, sign = tuple((i, j) for i in range(n) for j in range(i + skew, n)), -1 if skew else 1
    rows = {m: {j * n + i: sign, i * n + j: 1} for m, (i, j) in enumerate(coords)}
    at = {f: (m, s) for m, row in rows.items() for f, s in row.items()}
    return (coords, tuple(at.get(f, (0, 0)) for f in range(n * n)),
            Matrix._make(len(coords), n * n, rows, {}, 1, reduce=False))


@dataclass(frozen=True)
class FormIdentity:
    """A linear identity on the bilinear forms f of one symmetry class over
    one kind of algebra, with an instance per basis triple t: terms(*t) lists
    (sign, a, b) and the instance reads sum(sign * f(a, b)) = 0, where one of
    a, b is an index u for e_u and the other a pair (p, q) for e_p e_q.  The
    triples are the `linalg.members` whose first `ordered` indices strictly
    increase.  `check` evaluates it on one form as a `linalg.identity_test`,
    like every other basis-tuple identity; `search.solve_forms` assembles its
    system from `instances`, the same rows on the form's coordinates."""

    claim: str
    algebra: type
    symmetry: str
    ordered: int
    terms: Callable

    def tuples(self, n: int):
        """The 0-indexed basis triples, in report order (lexicographic)."""
        return members((n, n, n), self.ordered)

    def coords(self, n: int) -> list[tuple[int, int]]:
        """The form's coordinates: the entries above the diagonal (skew) or on
        and above it (symmetric), row-major."""
        return list(_coordinates(n, self.symmetry == SKEW)[0])

    def check_algebra(self, g, what: str) -> None:
        """Raise TypeError naming the kind needed unless g is this identity's kind."""
        if not isinstance(g, self.algebra):
            kind = "Lie" if self.algebra is LieAlgebra else "pre-Lie"
            raise TypeError(f"{what} needs a {kind} algebra")

    def instances(self, g) -> dict:
        """{t: {m: (re, im)}}: the nonzero instances times the denominator of
        g's stack, as nonzero Gaussian-integer coefficients on coords(n).
        Each nonzero entry (p n + k, q) of g.st, component k of e_p e_q, adds
        sign times it at f(e_k, e_u)'s `_coordinates` place for each term
        sign * f(e_p e_q, e_u) of each triple that puts (p, q) at that term's pair."""
        n, o = g.dim, self.ordered
        place, entries = _coordinates(n, self.symmetry == SKEW)[1], list(g.st.nonzeros())
        sums = defaultdict(dict)
        for sign, a, b in self.terms(0, 1, 2):  # where in t the term's u, p and q sit
            left = isinstance(a, tuple)
            (x, y), z = (a, b) if left else (b, a)
            t = [0, 0, 0]
            for pk, q, vr, vi in entries:
                p, k = divmod(pk, n)
                t[x], t[y] = p, q
                # members: the ordered indices besides u's increase, u between its neighbours
                if any(t[i] >= t[i + 1] for i in range(o - 1) if z != i != z - 1):
                    continue
                for u in range(t[z - 1] + 1 if 0 < z < o else 0, t[z + 1] if z + 1 < o else n):
                    t[z] = u
                    m, s = place[k * n + u if left else u * n + k]
                    if s:
                        row = sums[tuple(t)]
                        re, im = row.get(m, (0, 0))
                        row[m] = re + sign * s * vr, im + sign * s * vi
        return {t: r for t, row in sums.items() if (r := {m: v for m, v in row.items() if any(v)})}

    def check(self, rep: Report, g, f: BilForm, failures_only: bool = False) -> bool:
        """Record the identity for f, a form of this identity's symmetry, at
        every basis tuple of g, failing where the instance's terms, read off
        the products of f's matrix with g's unfoldings, sum to nonzero.
        Raises TypeError if g is not this identity's kind of algebra,
        DimensionError if f is not on g's dimension."""
        self.check_algebra(g, self.claim)
        n, fm = g.dim, f.matrix
        if f.dim != n:
            raise DimensionError(f"form dim {f.dim} != algebra dim {n}")
        # f(e_p e_q, e_u) at ((p, q), u) of one, f(e_u, e_p e_q) at (u, (p, q)) of the other
        left, right = g.unfolded[2] * fm, fm * g.unfolded[1]
        terms = [(sign, left, "ijk"[a[0]] + "ijk"[a[1]] + "ijk"[b]) if isinstance(a, tuple)
                 else (sign, right, "ijk"[a] + "ijk"[b[0]] + "ijk"[b[1]])
                 for sign, a, b in self.terms(0, 1, 2)]
        return rep.record_tuples(self.claim, identity_test(
            dict.fromkeys("ijk", n), terms, ordered=self.ordered), failures_only)


# w([x,y],z) + w([z,x],y) + w([y,z],x) = 0 for i < j < k
COCYCLE = FormIdentity(
    "cocycle", LieAlgebra, SKEW, 3,
    lambda i, j, k: ((1, (i, j), k), (1, (k, i), j), (1, (j, k), i)))
# B(xy,z) - B(x,yz) - B(yx,z) + B(y,xz) = 0 for i < j, all k
HESSIAN_IDENTITY = FormIdentity(
    "hessian-identity", PreLieAlgebra, SYMMETRIC, 2,
    lambda i, j, k: ((1, (i, j), k), (-1, i, (j, k)), (-1, (j, i), k), (1, j, (i, k))))
# B([x,y],z) - B(x,[y,z]) = 0
AD_INVARIANCE = FormIdentity(
    "ad-invariance", LieAlgebra, SYMMETRIC, 0,
    lambda i, j, k: ((1, (i, j), k), (-1, i, (j, k))))
# w(xy,z) + w(y,[x,z]) = 0, with the sub-adjacent bracket [x,z] = xz - zx
PRELIE_INVARIANCE = FormIdentity(
    "prelie-invariance", PreLieAlgebra, SKEW, 0,
    lambda i, j, k: ((1, (i, j), k), (1, j, (i, k)), (-1, j, (k, i))))


def form_to_map(f: BilForm) -> LinMap:
    """The flat map x -> f(x, .) into the dual, in dual bases.

    With column coordinate vectors and <xi, y> = dot(xi, y), the map's matrix
    is the transpose of the form's matrix, which the form keeps.
    """
    return LinMap(f.transposed, ALGEBRA, MODULE)


@_memoized
def _flat_rep(g) -> Representation:
    """The coadjoint action of a Lie algebra, or the coregular action of a
    pre-Lie algebra's sub-adjacent algebra: the flat maps' target, built once
    per `operators.memo_scope`, keyed by g's value."""
    return coadjoint_rep(g) if isinstance(g, LieAlgebra) else coregular_rep(g)


def _form_structure(kind: str, identity: FormIdentity, g, f: BilForm) -> Report:
    """The identity plus nondegeneracy, cross-checked against the flat map
    being a relative differential operator for the action _flat_rep(g)."""
    if f.symmetry != identity.symmetry:
        raise ValueError(f"{kind} candidate must be declared {identity.symmetry}")
    rep = Report(f"{kind} structure")
    direct = identity.check(rep, g, f)
    rep.record("nondegenerate", (), f.is_nondegenerate())
    rdo = is_rdo(_flat_rep(g), form_to_map(f)).passed
    rep.record("flat-map RDO (cross-check)", (), rdo)
    rep.record("routes agree", (), direct == rdo)
    return rep


def is_symplectic(g: LieAlgebra, w: BilForm) -> Report:
    """2-cocycle identity plus nondegeneracy; cross-checked against the flat
    map being a relative differential operator for the coadjoint action."""
    return _form_structure("symplectic", COCYCLE, g, w)


def is_hessian(g: PreLieAlgebra, b: BilForm) -> Report:
    """Hessian identity plus nondegeneracy; cross-checked against the flat map
    being an RDO for the coregular action of the sub-adjacent algebra."""
    rep = _form_structure("Hessian", HESSIAN_IDENTITY, g, b)
    if not b.is_real():
        rep.note("form has non-real entries")
    return rep


def _classify_forms(kind: str, check, prefix: str, g, forms) -> HyperTriple:
    pre = Report(f"{kind} preconditions")
    for idx, f in enumerate(forms):
        pre.merge(check(g, f), f"{prefix}{idx + 1}:")
    pre.require(f"not all forms are {kind}")
    return classify_hyper(_flat_rep(g), *(form_to_map(f) for f in forms))


def classify_hyper_symplectic(g: LieAlgebra, w1: BilForm, w2: BilForm, w3: BilForm) -> HyperTriple:
    return _classify_forms("symplectic", is_symplectic, "w", g, (w1, w2, w3))


def classify_hyper_hessian(g: PreLieAlgebra, b1: BilForm, b2: BilForm, b3: BilForm) -> HyperTriple:
    return _classify_forms("Hessian", is_hessian, "B", g, (b1, b2, b3))


HERMITIAN = "hermitian"
PARA_HERMITIAN = "para-hermitian"
ANTI_HERMITIAN = "anti-hermitian"
PARA_ANTI_HERMITIAN = "para-anti-hermitian"

_VARIANTS = {
    # variant: (form symmetry, I-square sign, invariance sign)
    HERMITIAN: (SYMMETRIC, -1, 1),
    PARA_HERMITIAN: (SYMMETRIC, 1, -1),
    ANTI_HERMITIAN: (SKEW, -1, 1),
    PARA_ANTI_HERMITIAN: (SKEW, 1, -1),
}


def check_hermitian_variant(g: LieAlgebra, f: BilForm, i_map: LinMap, variant: str) -> Report:
    """f(Ix, Iy) = +/- f(x, y) per variant; I must be the variant's (para-)complex kind."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    symmetry, sq_sign, inv_sign = _VARIANTS[variant]
    if f.symmetry != symmetry:
        raise ValueError(f"{variant} requires a {symmetry} form")
    pre = Report(f"{variant} preconditions")
    pre.record("nondegenerate", (), f.is_nondegenerate())
    pre.record("I Nijenhuis", (), is_nijenhuis(g, i_map).passed)
    pre.record("I square sign", (), nijenhuis_square_sign(g, i_map) == sq_sign)
    pre.require(f"{variant} preconditions failed")
    rep = Report(variant)
    # f(Ix, Iy) = inv_sign * f(x,y)  <=>  I^T M I = inv_sign * M
    im = i_map.matrix
    ok = im.transpose() * f.matrix * im == f.matrix.scale(inv_sign)
    rep.record("invariance", (), ok)
    return rep


HYPER_KAHLER = "hyper-kahler"
PARA_HYPER_KAHLER = "para-hyper-kahler"
HYPER_ANTI_KAHLER = "hyper-anti-kahler"
PARA_HYPER_ANTI_KAHLER = "para-hyper-anti-kahler"

_KAHLER_EPS = {
    HYPER_KAHLER: (-1, -1, -1),
    PARA_HYPER_KAHLER: (1, 1, -1),
    HYPER_ANTI_KAHLER: (-1, -1, -1),
    PARA_HYPER_ANTI_KAHLER: (1, 1, -1),
}
_ANTI_KAHLER = (HYPER_ANTI_KAHLER, PARA_HYPER_ANTI_KAHLER)


@dataclass(frozen=True)
class KahlerQuad:
    form: BilForm
    i1: LinMap
    i2: LinMap
    i3: LinMap
    variant: str


def _quad_preconditions(q: KahlerQuad, dim: int) -> Report:
    pre = Report("quad preconditions")
    anti = q.i1.compose(q.i2).matrix == -(q.i2.compose(q.i1).matrix)
    pre.record("I1∘I2=-I2∘I1", (), anti)
    pre.record("I3=I1∘I2", (), q.i3.matrix == q.i1.compose(q.i2).matrix)
    want = _KAHLER_EPS[q.variant]
    ident = Matrix.identity(dim)
    for idx, ii in enumerate((q.i1, q.i2, q.i3)):
        pre.record("I square sign", (idx + 1,),
                   ii.compose(ii).matrix == ident.scale(want[idx]))
    return pre


def induced_form(f: BilForm, i_map: LinMap, symmetry: str) -> BilForm:
    """form(I(x), y) as a bilinear form with the declared symmetry."""
    return BilForm(i_map.matrix.transpose() * f.matrix, symmetry)


def check_kahler_quad(g, q: KahlerQuad) -> Report:
    """Build the three induced forms, check them symplectic (Kahler variants on a
    Lie algebra) or Hessian (anti variants on a pre-Lie algebra), classify the
    flat maps of the forms so proved, and assert the predicted signature."""
    if q.variant not in _KAHLER_EPS:
        raise ValueError(f"unknown variant {q.variant!r}")
    anti = q.variant in _ANTI_KAHLER
    if anti and not isinstance(g, PreLieAlgebra):
        raise ValueError("anti-Kahler variants need an explicit pre-Lie algebra")
    if not anti and not isinstance(g, LieAlgebra):
        raise ValueError("Kahler variants need a Lie algebra")
    _quad_preconditions(q, g.dim).require("quad preconditions failed")
    rep = Report(f"{q.variant} quad")
    target_symmetry = SYMMETRIC if anti else SKEW
    forms = []
    for idx, ii in enumerate((q.i1, q.i2, q.i3)):
        try:
            f = induced_form(q.form, ii, target_symmetry)
        except ValueError:
            rep.record("induced form symmetry", (idx + 1,), False)
            return rep
        rep.record("induced form symmetry", (idx + 1,), True)
        sub = is_hessian(g, f) if anti else is_symplectic(g, f)
        rep.record("induced form Hessian" if anti else "induced form symplectic",
                   (idx + 1,), sub.passed)
        forms.append(f)
    if not rep.passed:
        return rep
    try:
        triple = classify_hyper(_flat_rep(g), *(form_to_map(f) for f in forms))
    except ClassificationError as exc:
        rep.record("induced triple classifies", (), False, detail=str(exc))
        return rep
    rep.record("induced triple classifies", (), True)
    rep.record("predicted signature", tuple(_KAHLER_EPS[q.variant]),
               triple.eps == _KAHLER_EPS[q.variant],
               detail=f"got eps={triple.eps}")
    return rep


def kahler_suite(g, triple: HyperTriple) -> Report:
    """The Kahler-type quad of a signature-product -1 triple over g: decompose
    the triple, check the quad (h, I1, I2, I3) in the variant named by the
    normalized signature and by g's kind, and record whether the decomposition
    rebuilds the triple."""
    dec = decompose_hyper(triple)
    eps = tuple(triple.eps[p] for p in dec.permutation)
    anti = isinstance(g, PreLieAlgebra)
    variant = next(v for v, want in _KAHLER_EPS.items()
                   if want == eps and (v in _ANTI_KAHLER) == anti)
    # the quad's base form has the opposite symmetry from the induced forms:
    # a symmetric pseudo-metric induces the skew forms, a skew form the
    # symmetric ones
    form = BilForm(dec.hflat.matrix.transpose(), SKEW if anti else SYMMETRIC)
    rep = check_kahler_quad(g, KahlerQuad(form, dec.i1, dec.i2, dec.i3, variant))
    rebuilt = reconstruct_hyper(triple.rho, dec.hflat, dec.i1, dec.i2)
    same = all(rebuilt.d[k].matrix == triple.d[p].matrix for k, p in enumerate(dec.permutation))
    rep.record("round-trip rebuilds the triple", (), same)
    return rep


def is_invariant_form(g, f: BilForm) -> Report:
    """Invariance of a form: ad-invariance of a symmetric form on a Lie algebra,
    or the pre-Lie invariance of a skew form; each cross-checked through the
    flat-map conjugation identity."""
    rep = Report("invariant form")
    rep.record("nondegenerate", (), f.is_nondegenerate())
    if isinstance(g, LieAlgebra):
        identity, what = AD_INVARIANCE, "ad-invariance"
    elif isinstance(g, PreLieAlgebra):
        identity, what = PRELIE_INVARIANCE, "pre-Lie invariance"
    else:
        raise TypeError("expected a LieAlgebra or PreLieAlgebra")
    if f.symmetry != identity.symmetry:
        raise ValueError(f"{what} check needs a {identity.symmetry} form")
    direct_ok = identity.check(rep, g, f, failures_only=True)
    if direct_ok:
        rep.record(identity.claim, (), True)
    # conjugation identity: rho(x) f#(y) = f#([x,y]) for the coadjoint (Lie) or
    # coregular (pre-Lie, sub-adjacent bracket) action rho, stacked over the
    # basis: rho(e_i) f# against f# ad(e_i) = (ad(e_i)^T f)^T, as f# = f^T
    rho = _flat_rep(g)
    conj_ok = rho.st * f.transposed == block_transpose(rho.algebra.unfolded[2] * f.matrix)
    rep.record("conjugation identity (cross-check)", (), conj_ok)
    rep.record("routes agree", (), direct_ok == conj_ok)
    return rep


def endomorphism_symmetry(f: BilForm, phi: LinMap, kind: str) -> bool:
    """Whether the composite form f(phi(x), y) is symmetric or skew."""
    if not f.is_nondegenerate():
        raise PreconditionError("form must be nondegenerate")
    m = phi.matrix.transpose() * f.matrix  # entry (i,j) = f(phi(e_i), e_j)
    if kind == SYMMETRIC:
        return m.transpose() == m
    if kind == SKEW:
        return m.transpose() == -m
    raise ValueError(f"unknown kind {kind!r}")


def _is_derivation(g, d: LinMap) -> Report:
    """d[x, y] = [dx, y] + [x, dy] for i < j on a Lie algebra, or
    d(xy) = (dx)y + x(dy) for all i, j on a pre-Lie algebra."""
    rep = Report("derivation")
    n, dm = g.dim, d.matrix
    st, row, _ = g.unfolded
    # d(e_i e_j) - (d e_i)e_j - e_i(d e_j)
    rep.record_tuples("derivation", identity_test({"i": n, "j": n, "r": n}, [
        (1, dm * row, "rij"), (-1, combine(st, dm), "irj"), (-1, st * dm, "irj")],
        ordered=2 if isinstance(g, LieAlgebra) else 0))
    return rep


LIE_B = "lie-B"
PRELIE_OMEGA = "prelie-omega"


def endo_triple_correspondence(g, f: BilForm, d1: LinMap, d2: LinMap, d3: LinMap,
                               setting: str) -> Report:
    """Both directions of the correspondence between endomorphism triples and
    hyper form triples, plus the flat-map factorization corollaries.

    lie-B: ad-invariant symmetric B, skew endomorphism Lie derivations, induced
    skew forms checked as a hyper symplectic structure.
    prelie-omega: invariant skew omega, symmetric endomorphism pre-Lie
    derivations, induced symmetric forms checked as a hyper Hessian structure.
    """
    if setting not in (LIE_B, PRELIE_OMEGA):
        raise ValueError(f"unknown setting {setting!r}")
    lie = setting == LIE_B
    if not isinstance(g, LieAlgebra if lie else PreLieAlgebra):
        raise TypeError(f"{setting} setting needs a {'Lie' if lie else 'pre-Lie'} algebra")
    # the endomorphisms and the forms they induce share one symmetry
    symmetry = SKEW if lie else SYMMETRIC
    ds = (d1, d2, d3)
    pre = Report("correspondence preconditions")
    pre.merge(is_invariant_form(g, f), "B:" if lie else "omega:")
    for idx, d in enumerate(ds):
        pre.record(f"{symmetry} endomorphism", (idx + 1,), endomorphism_symmetry(f, d, symmetry))
        pre.merge(_is_derivation(g, d), f"d{idx + 1}:")
    for idx, d in enumerate(ds):
        try:
            d.inv()
            pre.record("invertible", (idx + 1,), True)
        except SingularMatrixError:
            pre.record("invertible", (idx + 1,), False)
    pre.require("correspondence preconditions failed")

    rep = Report(f"endomorphism-triple correspondence ({setting})")
    # endomorphism direction: classify (d1,d2,d3) against the adjoint action,
    # or the regular action of the sub-adjacent algebra
    action = adjoint_rep(g) if lie else regular_rep(g)
    endo_maps = tuple(LinMap(d.matrix, ALGEBRA, MODULE) for d in ds)
    endo_ok, endo_eps, endo_detail = True, None, ""
    try:
        endo_triple = classify_hyper(action, *endo_maps)
        endo_eps = endo_triple.eps
    except ClassificationError as exc:
        endo_ok, endo_detail = False, str(exc)
    rep.record("endomorphism triple classifies", (), endo_ok, detail=endo_detail)

    # form direction: induced forms omega_i / B_i and their classification
    forms = []
    forms_ok, forms_eps, forms_detail = True, None, ""
    try:
        for d in ds:
            forms.append(induced_form(f, d, symmetry))
    except ValueError as exc:
        forms_ok, forms_detail = False, str(exc)
    if forms_ok:
        try:
            form_triple = (classify_hyper_symplectic(g, *forms) if lie
                           else classify_hyper_hessian(g, *forms))
            forms_eps = form_triple.eps
        except (ClassificationError, PreconditionError) as exc:
            forms_ok, forms_detail = False, str(exc)
    rep.record("form triple classifies", (), forms_ok, detail=forms_detail)
    rep.record("directions agree", (), endo_ok == forms_ok and endo_eps == forms_eps,
               detail=f"endo eps={endo_eps}, forms eps={forms_eps}")

    # factorization corollaries (only decided in the product -1 regimes)
    if endo_ok and forms_ok and endo_eps is not None:
        fac = ds[2].matrix * ds[0].matrix.inv() * ds[1].matrix
        # factor the triple's canonical map through the invariant form's flat map
        flat = f.transposed.inv() * form_triple.hflat.matrix
        if endo_eps == (-1, -1, -1):
            rep.record("flat factorization d3∘d1^-1∘d2", (), flat == fac)
        elif endo_eps == (1, 1, -1):
            rep.record("flat factorization -d3∘d1^-1∘d2", (), flat == -fac)
    return rep
