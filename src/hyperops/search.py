"""Solve for the full space of forms of a given kind on an algebra and
decide whether a nondegenerate solution exists.

The identity is linear in the form, so its solutions are the kernel of an
integer system over the identity's coordinates (`FormIdentity.coords`).  Its
rows are the instances (`FormIdentity.instances`), the identity at each basis
tuple as a function of the coordinates (a form check evaluates it on one form
through `linalg.identity_test`), read off the nonzero entries of the
algebra's stack st, so a basis tuple whose instance vanishes costs nothing.
Divided by their content and deduplicated, they go in chunks of at most
len(coords) rows under the RREF so far through the one exact elimination, so
its dense working rows number at most about 2 len(coords); the RREF is
canonical, so its kernel is the full system's.  The space is that kernel, one solution a
row over the coordinates.  Every form the search writes is a product with
the placement matrix P of `geometry._coordinates`, whose row m is coordinate
m's form flattened: the form with parameters t is (t kernel P).reshape(n, n),
and the n x n basis, built only when asked for, is kernel P cut into n x n
blocks.  A skew target on an odd dimension has no nondegenerate form, as
det A = det(-A^T) = -det A.  Otherwise existence is decided witness first
(`linalg.det_witness`): a nonzero determinant of the form at a small integer
point t proves that a nondegenerate form exists and is kept as
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
    _coordinates,
)
from .linalg import (
    DimensionError,
    Matrix,
    Poly,
    _kernel,
    cut,
    det_witness,
    generic_determinant,
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
    kernel: Matrix  # dim x len(coords); the solutions are combinations of its rows
    place: Matrix  # len(coords) x n^2: row m is coordinate m's form, flattened
    witness: tuple | None  # parameters of a nondegenerate form; None when none exists

    @property
    def exists_nondegenerate(self) -> bool:
        return self.witness is not None

    @cached_property
    def basis(self) -> tuple:
        """The n x n form of each kernel row, cut from kernel P on first access."""
        n, k = self.algebra.dim, self.kernel
        return tuple(cut(k * self.place, n, n)) if k.rows else ()

    @cached_property
    def generic_det(self) -> Poly:
        """det(sum t_k basis_k) as a polynomial in t, expanded by cofactors
        on first access."""
        return generic_determinant(self.basis, self.algebra.dim)

    @property
    def dim(self) -> int:
        return self.kernel.rows

    def contains(self, f: BilForm) -> bool:
        """Does f's full matrix lie in the space?  Each kernel row is 1 at its
        last nonzero coordinate, where every other row is 0 (`linalg._kernel`),
        so exactly when f's matrix is (t kernel P).reshape(n, n), t its
        entries there."""
        n, k = self.algebra.dim, self.kernel
        if f.dim != n:
            raise DimensionError(f"form dim {f.dim} != algebra dim {n}")
        t = Matrix(1, k.rows, [f.matrix[self.coords[max(k.re[r])]] for r in range(k.rows)])
        return (t * k * self.place).reshape(n, n) == f.matrix


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
        re, im = {}, {}
        for r in range(len(pivots)):
            d = gcd(*m.re.get(r, {}).values(), *m.im.get(r, {}).values())
            for part, x in ((re, m.re), (im, m.im)):
                if r in x:
                    part[r] = {j: v // d for j, v in x[r].items()}
        for r, row in enumerate(chunk, len(pivots)):
            for part, nums in ((re, {k: a for k, a, _ in row if a}),
                               (im, {k: b for k, _, b in row if b})):
                if nums:
                    part[r] = nums
        m = Matrix._make(len(pivots) + len(chunk), c, re, im, 1)
        del re, im  # the earlier RREF and these rows go before the elimination
        m, pivots = m._rref()
    return m, pivots


def solve_forms(g, target: str) -> FormSpaceResult:
    """Parametrize the symmetry class, assemble the linear system from basis
    identities, solve exactly, and find a nondegenerate witness if one exists."""
    identity = _TARGETS.get(target)
    if identity is None:
        raise ValueError(f"unknown target {target!r}")
    identity.check_algebra(g, f"target {target}")
    n, skew = g.dim, identity.symmetry == SKEW
    coords, _, place = _coordinates(n, skew)
    k = _kernel(*_reduced(_distinct_rows(g, identity), len(coords)), len(coords))
    # no odd skew matrix is invertible, so there is no witness to search for
    witness = None if skew and n % 2 else det_witness(k, place)
    return FormSpaceResult(g, target, identity.symmetry, coords, k, place, witness)


def instantiate(result: FormSpaceResult, params) -> BilForm:
    """The form sum params_k basis_k, (params kernel P).reshape(n, n), with its symmetry tag."""
    n = result.algebra.dim
    return BilForm((Matrix(1, result.dim, params) * result.kernel * result.place).reshape(n, n),
                   result.symmetry)
