"""Split a signature-product -1 triple into a single pseudo-metric plus two
anticommuting structures, then rebuild it and verify nothing was lost.

The quaternion example lives on an abelian algebra, so every structural
statement is about the three operators alone; the example with signature
(1, 1, -1) mixes square-roots of +Id and -Id.
"""

from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import export_bundle
from hyperops.geometry import (
    HYPER_KAHLER,
    PARA_HYPER_KAHLER,
    SYMMETRIC,
    BilForm,
    KahlerQuad,
    check_kahler_quad,
)
from hyperops.hyper import decompose_hyper, reconstruct_hyper

CASES = (
    ("abelian.quat", "quat", "a", HYPER_KAHLER),
    ("lie.L4sym", "omega", "g", PARA_HYPER_KAHLER),
)

for name, tname, aname, variant in CASES:
    bundle = parse_bundle(export_bundle(name))
    triple = classify_triple(bundle, tname)
    print(f"{name}: eps = {triple.eps}, product = {triple.eps_product}")

    dec = decompose_hyper(triple)
    print(f"  decomposition permutes the operators as {tuple(p + 1 for p in dec.permutation)}")
    for label, op in (("I1", dec.i1), ("I2", dec.i2), ("I3", dec.i3)):
        sq = op.compose(op).matrix
        sign = "+Id" if sq == sq.identity(sq.rows) else "-Id"
        print(f"  {label}^2 = {sign}")

    rebuilt = reconstruct_hyper(triple.rho, dec.hflat, dec.i1, dec.i2)
    same = all(rebuilt.d[k].matrix == triple.d[dec.permutation[k]].matrix
               for k in range(3))
    print(f"  reconstruction reproduces the original operators: {same}")

    h = BilForm(dec.hflat.matrix.transpose(), SYMMETRIC)
    quad = KahlerQuad(h, dec.i1, dec.i2, dec.i3, variant)
    rep = check_kahler_quad(bundle.algebra(aname), quad)
    print(f"  quadruple (h, I1, I2, I3) satisfies the {variant} conditions: {rep.passed}")
    print()
