"""Solve for the full space of forms of a given kind on an algebra and
decide whether a nondegenerate solution exists.

The identity is linear in the form, so its solutions are the kernel of an
integer system over the identity's coordinates (`FormIdentity.coords`), one
row per basis tuple: the `FormIdentity.row` that the form checks evaluate
too.  The kernel comes from one exact elimination; the particular solution
is zero.  Existence is decided witness first (`linalg.det_witness`): a
nonzero determinant at a small integer parameter point proves that a
nondegenerate form exists and is kept as `FormSpaceResult.witness`.  Only
when every tried point gives 0 is the determinant of the generic solution
expanded as a polynomial, which proves nonexistence when it is zero and
yields a witness otherwise.
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
    AffineSolutionSpace,
    DimensionError,
    Matrix,
    Poly,
    det_witness,
    generic_determinant,
    solve_affine,
    unit_columns,
)
from .scalars import ZERO

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


def _embed(n: int, symmetry: str, coords, coord_vector) -> Matrix:
    """Coordinate vector over the upper triangle -> full n x n matrix."""
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), v in zip(coords, coord_vector):
        rows[i][j] = v
        if symmetry == SKEW:
            rows[j][i] = -v
        elif i != j:
            rows[j][i] = v
    return Matrix.from_rows(rows)


def _matrix_space(n: int, symmetry: str, coords, space: AffineSolutionSpace) -> AffineSolutionSpace:
    """The coordinate space embedded as full n x n matrices, flattened row-major."""
    return AffineSolutionSpace(
        _embed(n, symmetry, coords, space.particular).entries(),
        tuple(_embed(n, symmetry, coords, b).entries() for b in space.basis),
    )


@dataclass(frozen=True)
class FormSpaceResult:
    algebra: object
    target: str
    symmetry: str
    coords: tuple  # coordinate index pairs (0-indexed)
    space: AffineSolutionSpace
    witness: tuple | None  # parameters of a nondegenerate form; None when none exists

    @property
    def exists_nondegenerate(self) -> bool:
        return self.witness is not None

    @cached_property
    def generic_det(self) -> Poly:
        """The determinant of the generic solution as a polynomial in the
        parameters, expanded by cofactors on first access."""
        n = self.algebra.dim
        return generic_determinant(_matrix_space(n, self.symmetry, self.coords, self.space), n)

    @property
    def dim(self) -> int:
        return self.space.dim

    def form_matrix(self, coord_vector) -> Matrix:
        return _embed(self.algebra.dim, self.symmetry, self.coords, coord_vector)

    def coords_of(self, f: BilForm):
        return tuple(f.matrix[i, j] for (i, j) in self.coords)

    def contains(self, f: BilForm) -> bool:
        """Membership test: does the solution space contain this form's coordinates?"""
        target = self.coords_of(f)
        a = Matrix(len(target), self.space.dim,
                   [b[k] for k in range(len(target)) for b in self.space.basis])
        return solve_affine(a, target) is not None


def _system(g, identity: FormIdentity, coords) -> Matrix:
    """The identity's rows at every basis tuple, stacked in one integer
    matrix over coords.  Each row is an instance scaled by a positive
    integer, which keeps the kernel."""
    eb = unit_columns(g.dim)
    rows = [identity.row(g, eb, t, coords) for t in identity.tuples(g.dim)]
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
    symmetry = identity.symmetry
    coords = identity.coords(n)
    kernel = _system(g, identity, coords).kernel_basis()
    space = AffineSolutionSpace((ZERO,) * len(coords), tuple(kernel))
    witness = det_witness(_matrix_space(n, symmetry, coords, space), n)
    return FormSpaceResult(g, target, symmetry, tuple(coords), space, witness)


def instantiate(result: FormSpaceResult, params) -> BilForm:
    """Concrete form particular + sum params_k basis_k with its symmetry tag."""
    if len(params) != result.dim:
        raise DimensionError(f"need {result.dim} parameters, got {len(params)}")
    coord_vector = result.space.point(list(params))
    return BilForm(result.form_matrix(coord_vector), result.symmetry)
