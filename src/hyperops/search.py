"""Solve for the full affine space of forms of a given kind on an algebra and
decide whether a nondegenerate solution exists.

Coordinates for the symmetry classes are row-major over the upper triangle:
skew uses the n(n-1)/2 strict upper entries, symmetric the n(n+1)/2 entries
on or above the diagonal.

The identity is linear in the form, so the solution space comes from one
exact elimination of an integer system.  Existence is decided witness first
(`linalg.det_witness`): a nonzero determinant at a small integer parameter
point proves that a nondegenerate form exists and is kept as
`FormSpaceResult.witness`.  Only when every tried point gives 0 is the
determinant of the generic solution expanded as a polynomial, which proves
nonexistence when it is zero and yields a witness otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

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
    P_ij + P_ji (symmetric, i < j) or P_ii.  P is accumulated on the
    Gaussian-integer numerators of a and b, each row scaled by the lcm of
    its terms' denominators; scaling a row of a homogeneous system keeps its
    solutions, and the RREF they are read from is unique."""
    n = g.dim
    eb = unit_columns(n)
    flip = -1 if identity.symmetry == SKEW else 1
    at = [(i * n + j, j * n + i) for i, j in coords]
    re, im, nrows = [], [], 0
    for t in identity.tuples(n):
        terms = identity.terms(g, *(eb[i] for i in t))
        den = lcm(*(a.den * b.den for _, a, b in terms))
        pr, pi = [0] * (n * n), [0] * (n * n)
        for sign, a, b in terms:
            f = sign * (den // (a.den * b.den))
            real = a.is_real() and b.is_real()
            for i in range(n):
                ar, ai = f * a.re[i], f * a.im[i]
                if not (ar or ai):
                    continue
                for j in range(n):
                    br, bi = b.re[j], b.im[j]
                    pr[i * n + j] += ar * br - ai * bi
                    if not real:
                        pi[i * n + j] += ar * bi + ai * br
        re.extend(pr[k] + flip * pr[kt] if k != kt else pr[k] for k, kt in at)
        im.extend(pi[k] + flip * pi[kt] if k != kt else pi[k] for k, kt in at)
        nrows += 1
    if not nrows:
        return Matrix.zero(1, len(coords))
    return Matrix._make(nrows, len(coords), re, im, 1)


def solve_forms(g, target: str) -> FormSpaceResult:
    """Parametrize the symmetry class, assemble the linear system from basis
    identities, solve exactly, and find a nondegenerate witness if one exists."""
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
    witness = det_witness(_matrix_space(n, symmetry, coords, space), n)
    return FormSpaceResult(g, target, symmetry, tuple(coords), space, witness)


def instantiate(result: FormSpaceResult, params) -> BilForm:
    """Concrete form particular + sum params_k basis_k with its symmetry tag."""
    if len(params) != result.dim:
        raise DimensionError(f"need {result.dim} parameters, got {len(params)}")
    coord_vector = result.space.point(list(params))
    return BilForm(result.form_matrix(coord_vector), result.symmetry)
