"""Solve for the full space of forms of a given kind on an algebra and
decide whether a nondegenerate solution exists.

The identity is linear in the form, so its solutions are the kernel of an
integer system over the identity's coordinates (`FormIdentity.coords`), one
row per basis tuple: the `FormIdentity.row` that the form checks evaluate
too, which scatters the algebra's integer structure constants onto the
coordinates named by the identity's index terms.  The kernel comes from one
exact elimination, and each of its rows is embedded once, in integers, as an
n x n form matrix.  The forms are the pencil sum t_k basis_k of these
matrices.  A skew target on an odd dimension has no nondegenerate form, as
det A = det(-A^T) = -det A.  Otherwise existence is decided witness first
(`linalg.det_witness`): a nonzero determinant of the pencil at a small
integer point t proves that a nondegenerate form exists and is kept as
`FormSpaceResult.witness`.  Only when every tried point gives 0 is the
determinant expanded as a polynomial in t, which proves nonexistence when it
is zero and yields a witness otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _system(g, identity: FormIdentity, coords) -> Matrix:
    """The identity's rows at every basis tuple, stacked in one integer
    matrix over coords.  Each row is an instance scaled by a positive
    integer, which keeps the kernel."""
    rows = [identity.row(g, t) for t in identity.tuples(g.dim)]
    if not rows:
        return Matrix.zero(1, len(coords))
    return Matrix._make(len(rows), len(coords), [v for re, _ in rows for v in re],
                        [v for _, im in rows for v in im], 1)


def solve_forms(g, target: str) -> FormSpaceResult:
    """Parametrize the symmetry class, assemble the linear system from basis
    identities, solve exactly, and find a nondegenerate witness if one exists."""
    identity = _TARGETS.get(target)
    if identity is None:
        raise ValueError(f"unknown target {target!r}")
    identity.check_algebra(g, f"target {target}")
    n = g.dim
    coords = identity.coords(n)
    k = _system(g, identity, coords).kernel()
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
