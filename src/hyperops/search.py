"""Solve for the full affine space of forms of a given kind on an algebra and
decide whether a nondegenerate solution exists.

Coordinates for the symmetry classes are row-major over the upper triangle:
skew uses the n(n-1)/2 strict upper entries, symmetric the n(n+1)/2 entries
on or above the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra
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


def _coords(n: int, symmetry: str) -> list[tuple[int, int]]:
    if symmetry == SKEW:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(i, n)]


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


@dataclass(frozen=True)
class FormSpaceResult:
    algebra: object
    target: str
    symmetry: str
    coords: tuple  # coordinate index pairs (0-indexed)
    space: AffineSolutionSpace
    generic_det: Poly

    @property
    def exists_nondegenerate(self) -> bool:
        return not self.generic_det.is_zero()

    @property
    def dim(self) -> int:
        return self.space.dim

    def form_matrix(self, coord_vector) -> Matrix:
        return _embed(self.algebra.dim, self.symmetry, self.coords, coord_vector)

    def coords_of(self, f: BilForm):
        return tuple(f.matrix[i, j] for (i, j) in self.coords)

    def contains(self, f: BilForm) -> bool:
        """Membership test: does the affine space contain this form's coordinates?"""
        target = self.coords_of(f)
        diff = [t - p for t, p in zip(target, self.space.particular)]
        if not self.space.basis:
            return all(v.is_zero() for v in diff)
        a = Matrix(len(target), self.space.dim,
                   [b[k] for k in range(len(target)) for b in self.space.basis])
        return solve_affine(a, diff) is not None


def _system(g, identity: FormIdentity, coords) -> Matrix:
    """One row per basis tuple: the identity at each coordinate's unit form.

    The terms of an instance sum to <P, f> = sum_ij P_ij f(e_i, e_j) with
    P = sum(sign * a b^T), so coordinate (i, j) gets P_ij - P_ji (skew),
    P_ij + P_ji (symmetric, i < j) or P_ii."""
    n = g.dim
    eb = unit_columns(n)
    flip = -1 if identity.symmetry == SKEW else 1
    rows = []
    for t in identity.tuples(n):
        p = Matrix.zero(n, n)
        for sign, a, b in identity.terms(g, *(eb[i] for i in t)):
            p = p + (a * b.transpose()).scale(sign)
        rows.append([p[i, j] + flip * p[j, i] if i != j else p[i, i] for i, j in coords])
    return Matrix.from_rows(rows) if rows else Matrix.zero(1, len(coords))


def solve_forms(g, target: str) -> FormSpaceResult:
    """Parametrize the symmetry class, assemble the linear system from basis
    identities, solve exactly, and decide nondegeneracy symbolically."""
    identity = _TARGETS.get(target)
    if identity is None:
        raise ValueError(f"unknown target {target!r}")
    if not isinstance(g, identity.algebra):
        kind = "Lie" if identity.algebra is LieAlgebra else "pre-Lie"
        raise TypeError(f"target {target} needs a {kind} algebra")
    n = g.dim
    symmetry = identity.symmetry
    coords = _coords(n, symmetry)
    a = _system(g, identity, coords)
    space = solve_affine(a, [ZERO] * a.rows)
    # homogeneous system is always feasible
    assert space is not None

    # embed coordinates as full matrices for the generic determinant
    matrix_space = AffineSolutionSpace(
        _embed(n, symmetry, coords, space.particular).entries(),
        tuple(_embed(n, symmetry, coords, b).entries() for b in space.basis),
    )
    det = generic_determinant(matrix_space, n)
    return FormSpaceResult(g, target, symmetry, tuple(coords), space, det)


def instantiate(result: FormSpaceResult, params) -> BilForm:
    """Concrete form particular + sum params_k basis_k with its symmetry tag."""
    if len(params) != result.dim:
        raise DimensionError(f"need {result.dim} parameters, got {len(params)}")
    coord_vector = result.space.point(list(params))
    return BilForm(result.form_matrix(coord_vector), result.symmetry)
