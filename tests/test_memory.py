"""Peak memory of the checks at MAX_DIM, traced with tracemalloc in this
process.  Each check keeps only the nonzero entries of its matrices, so the
peaks follow the few nonzero structure constants, not n^3."""

import tracemalloc

from hyperops.algebra import LieAlgebra, PreLieAlgebra, check_lie, coadjoint_rep
from hyperops.bundle import parse_bundle
from hyperops.linalg import Matrix
from hyperops.operators import ALGEBRA, MODULE, LinMap, is_nijenhuis, is_rdo
from hyperops.search import HESSIAN, solve_forms

MIB = 2 ** 20


def _peak(call):
    """call()'s result and the peak traced allocation while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _lie64():
    """[e_2a-1, e_2a] = e_64 for a <= 31: 62 nonzero structure constants."""
    return LieAlgebra.from_constants(64, [(2 * a - 1, 2 * a, 64, 1) for a in range(1, 32)])


def test_nijenhuis_identity_at_n_64_peaks_within_1_2_mib():
    g, n_map = _lie64(), LinMap(Matrix.identity(64), ALGEBRA, ALGEBRA)
    rep, peak = _peak(lambda: is_nijenhuis(g, n_map))
    assert rep.passed
    assert peak <= 1.2 * MIB, peak / MIB


def test_bundle_with_the_identity_map_at_n_64_loads_within_0_3_mib():
    # the n = 64 Nijenhuis bundle: 62 structure constants and a map of 4 096
    # literals, 64 of them nonzero
    constants = [{"i": 2 * a - 1, "j": 2 * a, "k": 64, "coeff": "1"} for a in range(1, 32)]
    doc = {"algebras": {"g": {"kind": "lie", "dim": 64, "constants": constants}},
           "maps": {"N": {"domain": "algebra", "codomain": "algebra",
                          "matrix": [["1" if r == c else "0" for c in range(64)]
                                     for r in range(64)]}}}
    b, peak = _peak(lambda: parse_bundle(doc))
    assert b.map("N").matrix == Matrix.identity(64) and b.algebra("g") == _lie64()
    assert peak <= 0.3 * MIB, peak / MIB


def test_rdo_identity_on_the_coadjoint_at_n_64_peaks_within_1_0_mib():
    g = _lie64()
    rho = coadjoint_rep(g)
    d = LinMap(Matrix.identity(64), ALGEBRA, MODULE)
    rep, peak = _peak(lambda: is_rdo(rho, d))
    assert not rep.passed  # d[e_1, e_2] = e_64^*, while rho(e_1) e_2^* = rho(e_2) e_1^* = 0
    assert peak <= 1.0 * MIB, peak / MIB


def test_lie_check_at_n_64_peaks_within_12_4_mib():
    g = _lie64()
    rep, peak = _peak(lambda: check_lie(g))
    assert rep.passed
    assert peak <= 12.4 * MIB, peak / MIB


def test_lie_check_failing_at_every_jacobi_triple_peaks_within_1_0_mib():
    # (7i + 3j + k) mod 5 + 1 at every i < j and k: all 220 Jacobi triples
    # fail, so the check keeps a failing set and a claim for each of them
    n = 12
    g = LieAlgebra.from_constants(n, [(i, j, k, (7 * i + 3 * j + k) % 5 + 1)
                                      for i in range(1, n + 1) for j in range(i + 1, n + 1)
                                      for k in range(1, n + 1)])
    rep, peak = _peak(lambda: check_lie(g))
    assert [r.passed for r in rep.results] == [False] * 220
    assert {r.claim for r in rep.results} == {"jacobi"}
    assert peak <= 1.0 * MIB, peak / MIB


def test_abelian_hessian_search_at_n_64_peaks_within_25_mib():
    g = PreLieAlgebra.from_constants(64, [])
    res, peak = _peak(lambda: solve_forms(g, HESSIAN))
    assert (res.dim, res.exists_nondegenerate) == (2080, True)
    assert peak <= 25 * MIB, peak / MIB
