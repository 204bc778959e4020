"""Walk through the symplectic triple on the four-dimensional solvable algebra.

We load the built-in example, check each form is symplectic, turn the forms
into invertible operators, classify the resulting triple, and run every
identity suite on it.  All arithmetic is exact, so "passed" means an identity
holds on the nose, not up to rounding.
"""

from hyperops.algebra import coadjoint_rep
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import export_bundle
from hyperops.geometry import form_to_map, is_symplectic
from hyperops.hyper import (
    derived_structures_report,
    verify_composition_table,
    verify_hflat_identities,
)
from hyperops.operators import is_rdo

bundle = parse_bundle(export_bundle("lie.L4sym"))
g = bundle.algebra("g")

print("Step 1: the three stored 2-forms are symplectic.")
for name in ("w1", "w2", "w3"):
    rep = is_symplectic(g, bundle.form(name))
    print(f"  {name}: {'symplectic' if rep.passed else 'NOT symplectic'}")

print("\nStep 2: each flat map is an invertible differential operator")
print("relative to the coadjoint representation.")
rho = coadjoint_rep(g)
for name in ("w1", "w2", "w3"):
    d = form_to_map(bundle.form(name))
    print(f"  {name}-flat: {'differential operator' if is_rdo(rho, d).passed else 'no'}")

print("\nStep 3: classify the triple; the signature is computed, never assumed.")
triple = classify_triple(bundle, "omega")
print(f"  signature eps = {triple.eps}, product = {triple.eps_product}")

print("\nStep 4: run the identity suites.")
for label, fn in (("flat-map identities", verify_hflat_identities),
                  ("composition table", verify_composition_table),
                  ("derived structures", derived_structures_report)):
    rep = fn(triple)
    print(f"  {label}: {'PASS' if rep.passed else 'FAIL'}"
          f" ({len(rep.results)} claims checked)")
