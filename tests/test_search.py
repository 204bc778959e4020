"""Linear form searches: solution spaces, membership, and nondegeneracy."""

import pytest

from hyperops.bundle import parse_bundle
from hyperops.corpus import export_bundle
from hyperops.geometry import is_hessian, is_invariant_form, is_symplectic
from hyperops.linalg import Matrix
from hyperops.scalars import Scalar
from hyperops.search import (
    AD_INVARIANT,
    HESSIAN,
    PRELIE_INVARIANT,
    SYMPLECTIC,
    instantiate,
    solve_forms,
)


def _prelie(name):
    return parse_bundle(export_bundle(name)).algebra("g")


def test_hessian_existence_and_membership_i4():
    b = parse_bundle(export_bundle("prelie.I4"))
    res = solve_forms(b.algebra("g"), HESSIAN)
    assert res.exists_nondegenerate
    assert res.contains(b.form("B"))


def test_hessian_existence_a4():
    b = parse_bundle(export_bundle("prelie.A4"))
    res = solve_forms(b.algebra("g"), HESSIAN)
    assert res.exists_nondegenerate
    assert res.contains(b.form("B"))


def test_hessian_nonexistence_b4():
    res = solve_forms(_prelie("prelie.B4"), HESSIAN)
    assert res.generic_det.is_zero()
    assert not res.exists_nondegenerate
    # every instantiation is degenerate
    for params in ([Scalar(0)] * res.dim, [Scalar(k + 1) for k in range(res.dim)]):
        f = instantiate(res, params)
        assert f.matrix.det().is_zero()


def test_symplectic_space_contains_corpus_forms():
    b = parse_bundle(export_bundle("lie.L4sym"))
    res = solve_forms(b.algebra("g"), SYMPLECTIC)
    for name in ("w1", "w2", "w3"):
        assert res.contains(b.form(name))


def test_instantiated_forms_recheck_via_geometry():
    # independent code path: everything the solver returns passes the direct check
    b = parse_bundle(export_bundle("lie.L4sym"))
    g = b.algebra("g")
    res = solve_forms(g, SYMPLECTIC)
    for k in range(res.dim):
        params = [Scalar(1 if t == k else 0) for t in range(res.dim)]
        f = instantiate(res, params)
        rep = is_symplectic(g, f)
        cocycle = [r for r in rep.results if r.claim == "cocycle"]
        assert all(r.passed for r in cocycle)
    g4 = _prelie("prelie.I4")
    res = solve_forms(g4, HESSIAN)
    for k in range(res.dim):
        params = [Scalar(2 if t == k else 0) for t in range(res.dim)]
        f = instantiate(res, params)
        rep = is_hessian(g4, f)
        ident = [r for r in rep.results if r.claim == "hessian-identity"]
        assert all(r.passed for r in ident)


def test_generic_det_matches_concrete_det():
    res = solve_forms(_prelie("prelie.I4"), HESSIAN)
    samples = [
        [Scalar(0)] * res.dim,
        [Scalar(1)] * res.dim,
        [Scalar(k - 2, k) for k in range(res.dim)],
    ]
    for params in samples:
        f = instantiate(res, params)
        assert res.generic_det.evaluate(params) == f.matrix.det()


def test_invariant_targets():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra
    sl2 = LieAlgebra.from_brackets(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
    res = solve_forms(sl2, AD_INVARIANT)
    assert res.exists_nondegenerate
    assert res.dim == 1  # the invariant form on a simple algebra is unique up to scale
    f = instantiate(res, [Scalar(1)])
    assert is_invariant_form(sl2, f).passed or f.matrix.det().is_zero()

    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    g = PreLieAlgebra(2, zero)
    res = solve_forms(g, PRELIE_INVARIANT)
    assert res.exists_nondegenerate
    f = instantiate(res, [Scalar(3)])
    assert is_invariant_form(g, f).passed


def test_coordinate_ordering_is_row_major_upper_triangle():
    res = solve_forms(_prelie("prelie.I4"), HESSIAN)
    assert res.coords == tuple((i, j) for i in range(4) for j in range(i, 4))
    b = parse_bundle(export_bundle("lie.L4sym"))
    res = solve_forms(b.algebra("g"), SYMPLECTIC)
    assert res.coords == tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def test_wrong_algebra_kind_rejected():
    b = parse_bundle(export_bundle("lie.L4sym"))
    with pytest.raises(TypeError):
        solve_forms(b.algebra("g"), HESSIAN)
    with pytest.raises(TypeError):
        solve_forms(_prelie("prelie.I4"), SYMPLECTIC)
    with pytest.raises(ValueError):
        solve_forms(b.algebra("g"), "no-such-target")


def test_instantiate_length_check():
    res = solve_forms(_prelie("prelie.I4"), HESSIAN)
    with pytest.raises(Exception):
        instantiate(res, [Scalar(1)] * (res.dim + 1))


# -- the linear systems, rebuilt independently ----------------------------


def _unit_forms(n, skew):
    """One matrix per coordinate, row-major over the upper triangle."""
    out = []
    for i in range(n):
        for j in range(i + 1 if skew else i, n):
            m = [[0] * n for _ in range(n)]
            m[i][j] = 1
            if i != j:
                m[j][i] = -1 if skew else 1
            out.append(Matrix.from_rows(m))
    return out


def _independent_system(g, target):
    """Each row is one basis-tuple instance of the target identity, evaluated
    at every coordinate's unit form U as f(a, b) = a^T U b."""
    from hyperops.algebra import subadjacent

    n = g.dim
    e = [Matrix.column([1 if i == t else 0 for i in range(n)]) for t in range(n)]
    units = _unit_forms(n, target in (SYMPLECTIC, PRELIE_INVARIANT))
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = e[i], e[j], e[k]
                if target == SYMPLECTIC and i < j < k:
                    def ident(f, br=g.bracket):
                        return f(br(x, y), z) + f(br(z, x), y) + f(br(y, z), x)
                elif target == HESSIAN and i < j:
                    def ident(f, p=g.product):
                        return f(p(x, y), z) - f(x, p(y, z)) - f(p(y, x), z) + f(y, p(x, z))
                elif target == AD_INVARIANT:
                    def ident(f, br=g.bracket):
                        return f(br(x, y), z) - f(x, br(y, z))
                elif target == PRELIE_INVARIANT:
                    def ident(f, p=g.product, br=subadjacent(g).bracket):
                        return f(p(x, y), z) + f(y, br(x, z))
                else:
                    continue
                rows.append([ident(lambda a, b, u=u: (a.transpose() * u * b)[0, 0])
                             for u in units])
    return Matrix.from_rows(rows) if rows else Matrix.zero(1, len(units))


def _family_i(n, perm):
    """I_n (e1·e1 = 2e1, e1·ei = ei, ei·ei = e1) with its basis relabelled by perm."""
    from hyperops.algebra import PreLieAlgebra

    products = {(perm[0], perm[0]): {perm[0]: 2}}
    for i in perm[1:]:
        products[(perm[0], i)] = {i: 1}
        products[(i, i)] = {perm[0]: 1}
    return PreLieAlgebra.from_products(n, products)


def _search_cases():
    from hyperops.algebra import LieAlgebra, check_prelie
    from hyperops.corpus import list_examples

    cases = []
    for eid, _, _ in list_examples():
        for name, g in parse_bundle(export_bundle(eid)).algebras.items():
            lie = isinstance(g, LieAlgebra)
            for target in ((SYMPLECTIC, AD_INVARIANT) if lie else (HESSIAN, PRELIE_INVARIANT)):
                cases.append(pytest.param(g, target, id=f"{eid}:{name}-{target}"))
    i5 = _family_i(5, [3, 5, 1, 4, 2])
    assert check_prelie(i5).passed
    cases += [pytest.param(i5, t, id=f"I5-relabelled-{t}") for t in (HESSIAN, PRELIE_INVARIANT)]
    return cases


@pytest.mark.parametrize("g,target", _search_cases())
def test_solve_forms_matches_independent_system(g, target):
    from hyperops.linalg import solve_affine

    a = _independent_system(g, target)
    want = solve_affine(a, [0] * a.rows)
    res = solve_forms(g, target)
    assert res.space.particular == want.particular
    assert res.space.basis == want.basis
    assert len(res.coords) == len(_unit_forms(g.dim, target in (SYMPLECTIC, PRELIE_INVARIANT)))
    if g.dim == 5 and target == HESSIAN:
        assert res.dim == 1 and res.exists_nondegenerate
