"""Solve for the full space of forms of a given kind on an algebra and
decide whether a nondegenerate solution exists.

The identity is linear in the form, so its solutions are the kernel of an
integer system over the identity's coordinates (`FormIdentity.coords`).  Its
rows are the instances that the form checks evaluate too
(`FormIdentity.instances`), read off the algebra's nonzero structure
columns, so a basis tuple whose instance vanishes costs nothing.  Divided by
their content and deduplicated, they go in chunks of at most len(coords)
rows under the RREF so far through the one exact elimination, so at most
about 2 len(coords) dense rows are held at once; the RREF is canonical, so
its kernel is the full system's.  Each kernel row is embedded once, in
integers, as an n x n form matrix.  The forms are the pencil sum t_k basis_k
of these matrices.  A skew target on an odd dimension has no nondegenerate
form, as det A = det(-A^T) = -det A.  Otherwise existence is decided witness
first (`linalg.det_witness`): a nonzero determinant of the pencil at a small
integer point t proves that a nondegenerate form exists and is kept as
`FormSpaceResult.witness`.  Only when every tried point gives 0 is the
determinant expanded as a polynomial in t, which proves nonexistence when it
is zero and yields a witness otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import gcd

from .geometry import (
    AD_INVARIANCE,
    COCYCLE,
    HESSIAN_IDENTITY,
    PRELIE_INVARIANCE,
    SKEW,
    BilForm,
    FormIdentity,
)
from .linalg import (
    DimensionError,
    Matrix,
    Poly,
    _hstack,
    _kernel,
    det_witness,
    generic_determinant,
    pencil,
)

SYMPLECTIC = "symplectic"
HESSIAN = "hessian"
AD_INVARIANT = "ad-invariant"
PRELIE_INVARIANT = "prelie-invariant"

_TARGETS = {
    SYMPLECTIC: COCYCLE,
    HESSIAN: HESSIAN_IDENTITY,
    AD_INVARIANT: AD_INVARIANCE,
    PRELIE_INVARIANT: PRELIE_INVARIANCE,
}


@dataclass(frozen=True)
class FormSpaceResult:
    algebra: object
    target: str
    symmetry: str
    coords: tuple  # coordinate index pairs (0-indexed)
    basis: tuple  # n x n form matrices; the solutions are their combinations
    witness: tuple | None  # parameters of a nondegenerate form; None when none exists

    @property
    def exists_nondegenerate(self) -> bool:
        return self.witness is not None

    @cached_property
    def generic_det(self) -> Poly:
        """det(sum t_k basis_k) as a polynomial in t, expanded by cofactors
        on first access."""
        return generic_determinant(self.basis, self.algebra.dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, f: BilForm) -> bool:
        """Does f's full matrix lie in the span of the basis?  Exactly when the
        last column of [vec basis_1 | ... | vec f] is not a pivot."""
        n = self.algebra.dim
        if f.dim != n:
            raise DimensionError(f"form dim {f.dim} != algebra dim {n}")
        cols = [Matrix._make(n * n, 1, b.re, b.im, b.den, reduce=False)
                for b in (*self.basis, f.matrix)]
        return self.dim not in _hstack(*cols)._rref()[1]


def _distinct_rows(g, identity: FormIdentity):
    """The identity's nonzero instances as sparse rows ((m, re, im), ...), each
    divided by the gcd of its numerators, signed so that its first entry has
    re > 0 or re = 0 < im, with repeats dropped."""
    rows = {}
    for inst in identity.instances(g).values():
        entries = sorted(inst.items())
        d = gcd(*(v for _, ab in entries for v in ab))
        d = -d if entries[0][1] < (0, 0) else d
        rows[tuple((m, re // d, im // d) for m, (re, im) in entries)] = None
    return list(rows)


def _reduced(rows: list, c: int) -> tuple[Matrix, list]:
    """The RREF of the span of sparse rows over c coordinates and its pivots:
    each chunk of at most c rows goes under the RREF's nonzero rows so far,
    divided by their content, into one `Matrix._rref`, until the rank is c."""
    m, pivots, rows = Matrix.zero(0, c), [], iter(rows)
    while len(pivots) < c and (chunk := list(islice(rows, c))):
        re, im = [], []
        for r in range(len(pivots)):
            row_re, row_im = m.re[r * c:(r + 1) * c], m.im[r * c:(r + 1) * c]
            d = gcd(*row_re, *row_im)
            re += [v // d for v in row_re]
            im += [v // d for v in row_im]
        for row in chunk:
            vr, vi = [0] * c, [0] * c
            for k, a, b in row:
                vr[k], vi[k] = a, b
            re += vr
            im += vi
        m = Matrix._make(len(re) // c, c, re, im, 1)
        del re, im  # the earlier RREF and these lists go before the elimination
        m, pivots = m._rref()
    return m, pivots


def solve_forms(g, target: str) -> FormSpaceResult:
    """Parametrize the symmetry class, assemble the linear system from basis
    identities, solve exactly, and find a nondegenerate witness if one exists."""
    identity = _TARGETS.get(target)
    if identity is None:
        raise ValueError(f"unknown target {target!r}")
    identity.check_algebra(g, f"target {target}")
    n = g.dim
    coords = identity.coords(n)
    k = _kernel(*_reduced(_distinct_rows(g, identity), len(coords)), len(coords))
    sign = -1 if identity.symmetry == SKEW else 1
    basis = []
    for r in range(k.rows):
        re, im = [0] * (n * n), [0] * (n * n)
        row = slice(r * k.cols, (r + 1) * k.cols)
        for (i, j), a, b in zip(coords, k.re[row], k.im[row]):
            re[i * n + j], im[i * n + j] = a, b
            re[j * n + i], im[j * n + i] = sign * a, sign * b
        basis.append(Matrix._make(n, n, re, im, k.den))
    # no odd skew matrix is invertible, so there is no witness to search for
    witness = None if sign < 0 and n % 2 else det_witness(basis, n)
    return FormSpaceResult(g, target, identity.symmetry, tuple(coords), tuple(basis), witness)


def instantiate(result: FormSpaceResult, params) -> BilForm:
    """The form sum params_k basis_k with its symmetry tag."""
    return BilForm(pencil(result.basis, params, result.algebra.dim), result.symmetry)
