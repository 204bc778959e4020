"""Linear form searches: solution spaces, membership, and nondegeneracy."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperops.bundle import parse_bundle
from hyperops.corpus import export_bundle
from hyperops.geometry import (
    SKEW, BilForm, _coordinates, is_hessian, is_invariant_form, is_symplectic)
from hyperops.linalg import (
    DimensionError, Matrix, _hstack, det_witness, generic_determinant, witness_points)
from hyperops.scalars import ZERO, Scalar
from hyperops.search import (
    AD_INVARIANT,
    HESSIAN,
    PRELIE_INVARIANT,
    SYMPLECTIC,
    _TARGETS,
    _distinct_rows,
    _reduced,
    instantiate,
    solve_forms,
)
from test_linalg import pencil_kernel, pencil_sum, ref_det_witness, within_hadamard_bound


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
    sl2 = LieAlgebra.from_constants(3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)])
    res = solve_forms(sl2, AD_INVARIANT)
    assert res.exists_nondegenerate
    assert res.dim == 1  # the invariant form on a simple algebra is unique up to scale
    f = instantiate(res, [Scalar(1)])
    assert is_invariant_form(sl2, f).passed or f.matrix.det().is_zero()

    g = PreLieAlgebra.from_constants(2, [])
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


@pytest.mark.parametrize("skew", [False, True], ids=["symmetric", "skew"])
@pytest.mark.parametrize("n", range(1, 7))
def test_placement_rows_are_the_coordinate_forms(n, skew):
    """Row m of P, reshaped to n x n, is 1 at coords[m], +1 (symmetric) or -1
    (skew) at its mirror and 0 elsewhere; a skew form has no diagonal coordinate."""
    coords, _, place = _coordinates(n, skew)
    assert (place.rows, place.cols) == (len(coords), n * n)
    for m, (i, j) in enumerate(coords):
        want = [[0] * n for _ in range(n)]
        want[j][i] = -1 if skew else 1
        want[i][j] = 1
        form = place._block(m, m + 1, 0, n * n).reshape(n, n)
        assert form == Matrix.from_rows(want), (m, i, j)
        assert not skew or all(form[r, r].is_zero() for r in range(n))


def test_wrong_algebra_kind_rejected():
    b = parse_bundle(export_bundle("lie.L4sym"))
    with pytest.raises(TypeError):
        solve_forms(b.algebra("g"), HESSIAN)
    with pytest.raises(TypeError):
        solve_forms(_prelie("prelie.I4"), SYMPLECTIC)
    with pytest.raises(ValueError):
        solve_forms(b.algebra("g"), "no-such-target")


def test_wrong_algebra_kind_message():
    g = parse_bundle(export_bundle("lie.L4sym")).algebra("g")
    with pytest.raises(TypeError, match=r"^target hessian needs a pre-Lie algebra$"):
        solve_forms(g, HESSIAN)
    with pytest.raises(TypeError, match=r"^target symplectic needs a Lie algebra$"):
        solve_forms(_prelie("prelie.I4"), SYMPLECTIC)


def test_instantiate_length_check():
    res = solve_forms(_prelie("prelie.I4"), HESSIAN)
    with pytest.raises(Exception):
        instantiate(res, [Scalar(1)] * (res.dim + 1))


def test_contains_rejects_a_form_of_another_dimension():
    b = parse_bundle(export_bundle("prelie.I4"))
    res = solve_forms(b.algebra("g"), HESSIAN)
    # B in the upper-left block of a 5 x 5 form, and a 3 x 3 form
    big = Matrix(5, 5, [b.form("B").matrix[i, j] if i < 4 and j < 4 else 0
                        for i in range(5) for j in range(5)])
    for m in (big, Matrix.identity(3)):
        with pytest.raises(DimensionError, match=rf"^form dim {m.rows} != algebra dim 4$"):
            res.contains(BilForm(m, "symmetric"))


def test_contains_decides_on_the_full_matrix():
    from hyperops.algebra import LieAlgebra

    res = solve_forms(LieAlgebra.from_constants(4, []), SYMPLECTIC)
    assert res.dim == 6
    # above the diagonal the identity has the entries of the zero skew form
    assert not res.contains(BilForm(Matrix.identity(4), "symmetric"))
    skew = Matrix.from_rows([[0, 1, 0, 2], [-1, 0, 3, 0], [0, -3, 0, 0], [-2, 0, 0, 0]])
    assert res.contains(BilForm(skew, "skew"))


def test_zero_dimensional_space():
    from hyperops.algebra import LieAlgebra

    res = solve_forms(LieAlgebra.from_constants(1, []), SYMPLECTIC)
    assert res.dim == 0 and res.basis == ()
    assert res.witness is None and not res.exists_nondegenerate
    assert res.generic_det.is_zero()
    f = instantiate(res, ())
    assert f.matrix == Matrix.zero(1, 1)
    assert res.contains(f)
    assert not res.contains(BilForm(Matrix.identity(1), "symmetric"))


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

    one = perm[0]
    return PreLieAlgebra.from_constants(n, [(one, one, one, 2)] + [
        r for i in perm[1:] for r in ((one, i, i, 1), (i, i, one, 1))])


def _search_cases():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra, check_prelie
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
    # isomorphic copies in a complex basis: structure constants with imaginary
    # parts and unequal denominators
    i5c = _transport(i5, PreLieAlgebra, "product")
    cases += [pytest.param(i5c, t, id=f"I5-complex-basis-{t}") for t in (HESSIAN, PRELIE_INVARIANT)]
    l4c = _transport(parse_bundle(export_bundle("lie.L4sym")).algebra("g"), LieAlgebra, "bracket")
    cases += [pytest.param(l4c, t, id=f"L4sym-complex-basis-{t}")
              for t in (SYMPLECTIC, AD_INVARIANT)]
    return cases


def _transport(g, kind, op):
    """The algebra x *' y = P^-1 (Px * Py) for an upper triangular complex P."""
    n = g.dim
    p = Matrix(n, n, [Scalar(1 + i % 2) if i == j else
                      Scalar(Fraction(1, 2 + i), Fraction(j - i, 3)) if i < j else 0
                      for i in range(n) for j in range(n)])
    pinv = p.inv()
    cols = [p * Matrix.column([1 if i == t else 0 for i in range(n)]) for t in range(n)]
    mul = getattr(g, op)
    # every pair (i, j) is given, so a Lie algebra mirrors none
    return kind.from_constants(n, [
        (i + 1, j + 1, k + 1, v) for i in range(n) for j in range(n)
        for k, v in enumerate((pinv * mul(cols[i], cols[j])).col(0))])


def _stacked_system(identity, g):
    """Every instance the identity's rows hold, one dense integer row each:
    the system before content division, deduplication and chunking."""
    c = len(identity.coords(g.dim))
    rows = []
    for row in identity.instances(g).values():
        v = [ZERO] * c
        for m, (a, b) in row.items():
            v[m] = Scalar(a, b)
        rows.append(v)
    return Matrix(len(rows), c, [v for row in rows for v in row])


def _rref_inputs(monkeypatch):
    """The matrices `Matrix._rref` is called on from now on, in call order."""
    seen, rref = [], Matrix._rref

    def spy(self):
        seen.append(self)
        return rref(self)

    monkeypatch.setattr(Matrix, "_rref", spy)
    return seen


@pytest.mark.parametrize("g,target", _search_cases())
def test_solve_forms_matches_independent_system(g, target):
    n = g.dim
    units = _unit_forms(n, target in (SYMPLECTIC, PRELIE_INVARIANT))
    want = _independent_system(g, target).kernel()
    res = solve_forms(g, target)
    assert len(res.coords) == len(units)
    # the basis read back on the coordinates is the canonical kernel itself
    assert Matrix(res.dim, len(res.coords),
                  [b[i, j] for b in res.basis for (i, j) in res.coords]) == want
    # and each basis matrix is its kernel row spread over the unit forms
    assert res.basis == tuple(
        sum((u.scale(want[r, c]) for c, u in enumerate(units)), Matrix.zero(n, n))
        for r in range(want.rows))
    if g.dim == 5 and target == HESSIAN:
        assert res.dim == 1 and res.exists_nondegenerate


def _random_algebra(kind, n, seed):
    """Random integer constants in -2..2, not an algebra's: the systems are
    defined for any tensor."""
    rng = random.Random(seed)
    return kind.from_constants(n, [(i, j, k, rng.randint(-2, 2)) for i, j, k in
                                   itertools.product(range(1, n + 1), repeat=3)])


def _chunk_cases():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra

    i5c = _transport(_family_i(5, [3, 5, 1, 4, 2]), PreLieAlgebra, "product")
    l4c = _transport(parse_bundle(export_bundle("lie.L4sym")).algebra("g"), LieAlgebra, "bracket")
    lie4 = _random_algebra(LieAlgebra, 4, 1)
    # (algebra, target, chunks run, whether the rank reached len(coords) with
    # rows left unread)
    return [
        pytest.param(PreLieAlgebra.from_constants(4, [
            (3, 2, 4, -1), (3, 4, 3, 2), (4, 2, 1, 2), (2, 4, 3, -1), (3, 2, 1, 2), (2, 1, 3, 2)]),
            HESSIAN, 2, False, id="sparse-real-hessian"),
        pytest.param(i5c, HESSIAN, 4, False, id="I5-complex-basis-hessian"),
        pytest.param(l4c, AD_INVARIANT, 3, False, id="L4sym-complex-basis-ad-invariant"),
        pytest.param(lie4, AD_INVARIANT, 1, True, id="random-lie4-ad-invariant"),
        pytest.param(_transport(lie4, LieAlgebra, "bracket"), AD_INVARIANT, 1, True,
                     id="random-lie4-complex-basis-ad-invariant"),
        pytest.param(i5c, PRELIE_INVARIANT, 7, True, id="I5-complex-basis-prelie-invariant"),
    ]


@pytest.mark.parametrize("g,target,chunks,early", _chunk_cases())
def test_streamed_elimination_matches_independent_system(g, target, chunks, early, monkeypatch):
    want = _independent_system(g, target).kernel()
    eliminated = _rref_inputs(monkeypatch)
    res = solve_forms(g, target)
    monkeypatch.undo()
    c = len(res.coords)
    rows = list(_distinct_rows(g, _TARGETS[target]))
    assert len(eliminated) == chunks
    # each chunk adds at most len(coords) rows to at most len(coords) carried
    # ones, and every row eliminated, carried or new, is divided by its content
    assert all(m.cols == c and m.rows <= 2 * c for m in eliminated)
    assert all(gcd(*(int(v.re * m.den) for v in m.row(r)), *(int(v.im * m.den) for v in m.row(r)))
               == 1 for m in eliminated for r in range(m.rows))
    assert early == (len(rows) > chunks * c)
    if early:
        assert res.dim == 0
    assert Matrix(res.dim, c, [b[i, j] for b in res.basis for (i, j) in res.coords]) == want


def test_distinct_rows_are_primitive_signed_and_unrepeated():
    from hyperops.algebra import PreLieAlgebra

    g = _transport(_family_i(5, [3, 5, 1, 4, 2]), PreLieAlgebra, "product")
    for target, identity in _TARGETS.items():
        if not isinstance(g, identity.algebra):
            continue
        rows = list(_distinct_rows(g, identity))
        assert len(set(rows)) == len(rows) > 0
        for row in rows:
            assert gcd(*(v for _, a, b in row for v in (a, b))) == 1
            assert row[0][1:] > (0, 0)
            assert [m for m, _, _ in row] == sorted({m for m, _, _ in row})
        # the span is the full system's: the same kernel
        assert _reduced(rows, len(identity.coords(g.dim)))[1] == \
            _stacked_system(identity, g)._rref()[1]


def test_hessian_search_on_large_i_n_is_bounded_by_its_coordinates():
    # 15 872 basis triples at n = 32 and 31 200 at n = 40 over 528 and 820
    # coordinates; a dense system of either would take hundreds of MB
    import tracemalloc

    g32, g40 = _family_i(32, list(range(1, 33))), _family_i(40, list(range(1, 41)))
    tracemalloc.start()
    try:
        res = solve_forms(g32, HESSIAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.dim == 1 and res.exists_nondegenerate
    assert peak < 32 * 2 ** 20, peak
    res = solve_forms(g40, HESSIAN)
    assert res.dim == 1 and res.exists_nondegenerate
    assert not instantiate(res, res.witness).matrix.det().is_zero()


def test_transported_sum_of_l4sym_keeps_its_symplectic_forms(monkeypatch):
    # 56 basis triples over 28 coordinates, 55 of them non-real integer rows
    # of rank 17 (a zero row adds nothing to the bound): the entries of the last
    # elimination, on the rows carried from earlier chunks and the last chunk,
    # stay within the Hadamard bound of the full system instead of growing
    # with every pivot or chunk
    from hyperops.algebra import LieAlgebra
    from hyperops.geometry import COCYCLE

    g = parse_bundle(export_bundle("lie.L4sym")).algebra("g")
    n = g.dim
    # g + g: every pair within a summand is given, so none is mirrored
    total = LieAlgebra.from_constants(2 * n, [
        (s + i + 1, s + j + 1, s + k + 1, v) for s in (0, n) for i in range(n)
        for j in range(n) for k, v in enumerate(g.basis_bracket(i, j).entries())])
    plain = solve_forms(total, SYMPLECTIC)
    assert (plain.dim, plain.exists_nondegenerate) == (11, True)
    moved = _transport(total, LieAlgebra, "bracket")
    eliminated = _rref_inputs(monkeypatch)
    res = solve_forms(moved, SYMPLECTIC)
    monkeypatch.undo()
    assert (res.dim, res.exists_nondegenerate) == (11, True)
    system = _stacked_system(COCYCLE, moved)
    assert system.rows == 55 and not system.is_real()
    assert len(eliminated) >= 2
    assert within_hadamard_bound(eliminated[-1], system)


# -- witness-first existence ---------------------------------------------------

_CHECK = {SYMPLECTIC: is_symplectic, HESSIAN: is_hessian,
          AD_INVARIANT: is_invariant_form, PRELIE_INVARIANT: is_invariant_form}


def _witness_cases():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra
    from hyperops.corpus import list_examples

    cases = []
    for eid, _, _ in list_examples():
        for name, g in parse_bundle(export_bundle(eid)).algebras.items():
            lie = isinstance(g, LieAlgebra)
            for target in ((SYMPLECTIC, AD_INVARIANT) if lie else (HESSIAN, PRELIE_INVARIANT)):
                cases.append(pytest.param(g, target, id=f"{eid}:{name}-{target}"))
    for n in range(3, 9):
        cases.append(pytest.param(_family_i(n, list(range(1, n + 1))), HESSIAN, id=f"I{n}"))
        cases.append(pytest.param(PreLieAlgebra.from_constants(n, []), HESSIAN,
                                  id=f"abelian-prelie{n}"))
    for n in (4, 6, 8):
        cases.append(pytest.param(LieAlgebra.from_constants(n, []), SYMPLECTIC,
                                  id=f"abelian-lie{n}"))
    return cases


@pytest.mark.parametrize("g,target", _witness_cases())
def test_witness_is_a_nondegenerate_solution(g, target):
    res = solve_forms(g, target)
    assert res.exists_nondegenerate == (res.witness is not None)
    if res.witness is not None:
        f = instantiate(res, res.witness)
        assert not f.matrix.det().is_zero()
        assert res.contains(f)
        assert _CHECK[target](g, f).passed
    if g.dim <= 6:
        assert res.exists_nondegenerate == (not res.generic_det.is_zero())


def test_corpus_existence_decisions():
    for eid, target, exists in (
            ("prelie.B4", HESSIAN, False), ("lie.heis4", AD_INVARIANT, False),
            ("prelie.rot4", PRELIE_INVARIANT, False), ("prelie.I4", HESSIAN, True),
            ("prelie.A4", HESSIAN, True), ("prelie.rot4", HESSIAN, True)):
        g = parse_bundle(export_bundle(eid)).algebra("g")
        assert solve_forms(g, target).exists_nondegenerate is exists, (eid, target)


def _heisenberg(m):
    """h_{2m+1}: [x_i, y_i] = z on the basis x_1..x_m, y_1..y_m, z."""
    from hyperops.algebra import LieAlgebra

    return LieAlgebra.from_constants(2 * m + 1, [(i, m + i, 2 * m + 1, 1)
                                                 for i in range(1, m + 1)])


def _odd_skew_cases():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra

    # every skew form of an abelian algebra solves the identity; the
    # symplectic forms of h_{2m+1}, m >= 2, are the 2-forms on x, y
    cases = [pytest.param(LieAlgebra.from_constants(n, []), SYMPLECTIC, n * (n - 1) // 2,
                          id=f"abelian-lie{n}") for n in (3, 5, 7, 9, 11)]
    cases += [pytest.param(_heisenberg(m), SYMPLECTIC, dim, id=f"h{2 * m + 1}")
              for m, dim in ((1, 3), (2, 6), (3, 15))]
    cases += [pytest.param(PreLieAlgebra.from_constants(n, []), PRELIE_INVARIANT,
                           n * (n - 1) // 2, id=f"abelian-prelie{n}") for n in (3, 5, 7)]
    return cases


@pytest.mark.parametrize("g,target,dim", _odd_skew_cases())
def test_odd_skew_targets_have_no_nondegenerate_form(g, target, dim, monkeypatch):
    from hyperops import search

    def no_witness_search(*_):
        raise AssertionError("det_witness called on an odd skew target")

    monkeypatch.setattr(search, "det_witness", no_witness_search)
    res = solve_forms(g, target)
    assert res.dim == dim
    assert res.witness is None and not res.exists_nondegenerate
    if g.dim <= 5:
        assert res.generic_det.is_zero()


def _vanishing_form(nvars):
    """The rows are the coefficients (b_1, ..., b_nvars) of linear forms
    sum b_k t_k that vanish at every point of `witness_points(nvars)`; there
    is a nonzero one when nvars >= 5."""
    return Matrix.from_rows([list(p) for p in witness_points(nvars)]).kernel()


def _pencil(n, nvars, entries):
    size = n * n
    return tuple(Matrix(n, n, entries[k * size:(k + 1) * size]) for k in range(nvars))


def _check_witness_against_oracle(mats, n):
    w = det_witness(*pencil_kernel(mats, n))
    assert w == ref_det_witness(mats, n)
    det = generic_determinant(mats, n)
    assert (w is None) == det.is_zero()
    if w is not None:
        # the pencil at w, summed entry by entry
        value = Matrix(n, n, [sum((m[i, j] * t for m, t in zip(mats, w)), ZERO)
                              for i in range(n) for j in range(n)]).det()
        assert not value.is_zero()
        assert value == det.evaluate(w)
    return w, det


def test_witness_read_off_reaches_the_degree_bound():
    # a 1 x 1 pencil whose entry, a linear form in t_1..t_5, vanishes at
    # every tried point: the read-off keeps t_1..t_4 = 0 and must give t_5
    # its top value 1
    kernel = _vanishing_form(5)
    assert kernel.rows == 1 and kernel[0, 4] == Scalar(1)
    w, _ = _check_witness_against_oracle(_pencil(1, 5, kernel.row(0)), 1)
    assert w == (0, 0, 0, 0, 1)


@st.composite
def _families(draw):
    """(mats, n, kind): a random integer pencil of n x n matrices, or one
    built to be singular (a zero row, two equal rows), or one whose (1, 1)
    entry vanishes at every tried point with the rest of its row and column
    zero, so its determinant does too."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("random", "zero-row", "equal-rows", "vanishing")))
    nvars = draw(st.integers(5, 6) if kind == "vanishing" else st.integers(0, 5))
    entries = draw(st.lists(st.integers(-2, 2), min_size=nvars * n * n,
                            max_size=nvars * n * n))
    for k in range(nvars):
        block = k * n * n
        if kind == "zero-row":
            for j in range(n):
                entries[block + j] = 0
        elif kind == "equal-rows" and n > 1:
            for j in range(n):
                entries[block + n + j] = entries[block + j]
        elif kind == "vanishing":
            for j in range(1, n):
                entries[block + j] = entries[block + j * n] = 0
    if kind == "vanishing":
        kernel = _vanishing_form(nvars)
        coeffs = kernel.row(draw(st.integers(0, kernel.rows - 1)))
        for k in range(nvars):
            entries[k * n * n] = coeffs[k]
    return _pencil(n, nvars, entries), n, kind


@settings(max_examples=150, deadline=None)
@given(_families())
def test_witness_first_matches_cofactor_oracle(family):
    mats, n, kind = family
    w, det = _check_witness_against_oracle(mats, n)
    if kind == "zero-row" or (kind == "equal-rows" and n > 1) or not mats:
        assert w is None
    if kind == "vanishing":
        assert all(det.evaluate(p).is_zero() for p in witness_points(len(mats)))
        if w is not None:  # read off the polynomial: every value in {0, ..., n}
            assert all(0 <= v <= n for v in w)


# -- the kernel as the form space ----------------------------------------------


def _basis_from_kernel(res):
    """Each kernel row written entry by entry into an n x n matrix: the
    coordinate (i, j) at (i, j), and at (j, i), negated for a skew form."""
    n, skew = res.algebra.dim, res.symmetry == SKEW
    basis = []
    for r in range(res.dim):
        rows = [[ZERO] * n for _ in range(n)]
        for c, (i, j) in enumerate(res.coords):
            v = res.kernel[r, c]
            rows[i][j], rows[j][i] = v, -v if skew else v
        basis.append(Matrix.from_rows(rows))
    return tuple(basis)


def _targets(g):
    from hyperops.algebra import LieAlgebra

    return (SYMPLECTIC, AD_INVARIANT) if isinstance(g, LieAlgebra) else (HESSIAN, PRELIE_INVARIANT)


@st.composite
def _small_algebras(draw):
    """I_n with its basis relabelled, or an abelian Lie or pre-Lie algebra,
    n <= 6, optionally transported to a complex basis."""
    from hyperops.algebra import LieAlgebra, PreLieAlgebra

    n = draw(st.integers(1, 6))
    family = draw(st.sampled_from(("I", "abelian-prelie", "abelian-lie")))
    kind, op = (LieAlgebra, "bracket") if family == "abelian-lie" else (PreLieAlgebra, "product")
    g = (_family_i(n, draw(st.permutations(range(1, n + 1)))) if family == "I"
         else kind.from_constants(n, []))
    return _transport(g, kind, op) if draw(st.booleans()) else g


@settings(max_examples=40, deadline=None)
@given(_small_algebras())
def test_witness_matches_the_reference_pencil_on_the_embedded_basis(g):
    for target in _targets(g):
        res = solve_forms(g, target)
        assert res.witness == ref_det_witness(_basis_from_kernel(res), g.dim), target


def _space_cases():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra

    l4 = parse_bundle(export_bundle("lie.L4sym")).algebra("g")
    return [
        pytest.param(_prelie("prelie.I4"), HESSIAN, id="I4-hessian"),
        pytest.param(_prelie("prelie.B4"), HESSIAN, id="B4-hessian-none"),
        pytest.param(l4, SYMPLECTIC, id="L4sym-symplectic"),
        pytest.param(_transport(l4, LieAlgebra, "bracket"), SYMPLECTIC,
                     id="L4sym-complex-basis-symplectic"),
        pytest.param(_transport(_family_i(4, [2, 4, 1, 3]), PreLieAlgebra, "product"),
                     HESSIAN, id="I4-complex-basis-hessian"),
        pytest.param(LieAlgebra.from_constants(4, []), AD_INVARIANT, id="abelian-lie4-ad-invariant"),
        pytest.param(LieAlgebra.from_constants(1, []), SYMPLECTIC, id="dim-0"),
    ]


@pytest.mark.parametrize("g,target", _space_cases())
def test_space_is_its_kernel_with_a_lazy_basis(g, target):
    n = g.dim
    res = solve_forms(g, target)
    if res.witness is not None:
        assert "basis" not in res.__dict__
    ref = _basis_from_kernel(res)
    params = [Scalar(k - 1, k % 3) for k in range(res.dim)]
    f = instantiate(res, params)
    assert (f.matrix, f.symmetry) == (pencil_sum(ref, params, n), res.symmetry)
    with pytest.raises(DimensionError, match=rf"^1x{res.dim} matrix needs {res.dim} entries"):
        instantiate(res, params + [Scalar(1)])
    assert res.generic_det == generic_determinant(ref, n)
    assert res.basis == ref
    # membership: exactly when the form's entries add no rank to the reference basis's
    def rank(mats):
        return Matrix.from_rows([m.entries() for m in mats]).rank() if mats else 0

    for m in (f.matrix, f.matrix + Matrix.identity(n), Matrix.identity(n)):
        assert res.contains(BilForm(m, "none")) == (rank((*ref, m)) == rank(ref))


# -- membership against the basis elimination it replaced -----------------


def ref_contains(res, f):
    """Reference membership: the last column of [vec basis_1 | ... | vec f]
    is not a pivot."""
    n = res.algebra.dim
    cols = [b.reshape(n * n, 1) for b in (*res.basis, f.matrix)]
    return res.dim not in _hstack(*cols)._rref()[1]


def _membership_cases():
    from hyperops.algebra import LieAlgebra, PreLieAlgebra
    from hyperops.corpus import list_examples

    cases = []
    for eid, _, _ in list_examples():
        b = parse_bundle(export_bundle(eid))
        for name, g in b.algebras.items():
            lie = isinstance(g, LieAlgebra)
            forms = [f.matrix for f in b.forms.values() if f.dim == g.dim]
            for target in ((SYMPLECTIC, AD_INVARIANT) if lie else (HESSIAN, PRELIE_INVARIANT)):
                cases.append(pytest.param(g, target, forms, id=f"{eid}:{name}-{target}"))
    for n in range(3, 7):
        cases.append(pytest.param(_family_i(n, list(range(1, n + 1))), HESSIAN, [], id=f"I{n}"))
        for kind, targets in ((PreLieAlgebra, (HESSIAN, PRELIE_INVARIANT)),
                              (LieAlgebra, (SYMPLECTIC, AD_INVARIANT))):
            cases += [pytest.param(kind.from_constants(n, []), t, [],
                                   id=f"abelian-{kind.__name__}{n}-{t}") for t in targets]
    return cases


@pytest.mark.parametrize("g,target,forms", _membership_cases())
def test_contains_matches_the_basis_elimination(g, target, forms):
    res = solve_forms(g, target)
    n = g.dim
    member = instantiate(res, [Scalar(k + 1, k % 2) for k in range(res.dim)]).matrix
    one = Matrix.identity(n)
    corner = Matrix(n, n, [(r == 0 and c == n - 1) - (r == n - 1 and c == 0)
                           for r in range(n) for c in range(n)])
    candidates = [member, member.scale(Scalar(0, 1)), member + one, member + corner, one,
                  corner, Matrix.zero(n, n), *forms]
    got = [res.contains(BilForm(m, "none")) for m in candidates]
    assert got == [ref_contains(res, BilForm(m, "none")) for m in candidates]
    assert got[0] and got[1]
