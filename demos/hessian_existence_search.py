"""Decide, exactly, whether a pre-Lie algebra carries a nondegenerate Hessian
form.

The Hessian condition is linear in the form's coefficients, so the set of
solutions is a linear space we can compute by exact elimination: the forms
sum t_k B_k over a basis B_1, ..., B_d of form matrices.  The only nonlinear
question, nondegeneracy, reduces to whether det(sum t_k B_k) is the zero
polynomial in t.  The search answers it witness first: a parameter point
where the determinant is nonzero proves existence, and the form at that
point is a concrete nondegenerate Hessian form.
"""

from hyperops.bundle import parse_bundle
from hyperops.corpus import export_bundle
from hyperops.search import HESSIAN, instantiate, solve_forms

for name in ("prelie.I4", "prelie.A4", "prelie.B4"):
    bundle = parse_bundle(export_bundle(name))
    g = bundle.algebra("g")
    res = solve_forms(g, HESSIAN)
    print(f"{name}: solution space has dimension {res.dim}")
    print(f"  generic determinant is {'zero' if res.generic_det.is_zero() else 'nonzero'}"
          f" as a polynomial")
    print(f"  nondegenerate Hessian form exists: {res.exists_nondegenerate}")
    if "B" in bundle.forms:
        member = res.contains(bundle.form("B"))
        print(f"  the stored form B lies in the solution space: {member}")
    if res.exists_nondegenerate:
        # the witness the search found, and the determinant of its form
        f = instantiate(res, res.witness)
        print(f"  witness parameters {res.witness}: det = {f.matrix.det().render()}")
    print()
