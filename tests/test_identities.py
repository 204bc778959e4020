"""Every basis-tuple identity evaluated by `linalg.identity_test` against the
per-tuple reference it replaced.

The reference predicates below are the per-tuple lambdas that the checks in
`algebra`, `operators`, `hyper` and `geometry` used before they read their
residuals off products with the unfolded structure constants.  Brackets,
products and actions are summed here from the basis matrices with `Scalar`
coefficients, so they share no code with the unfoldings.  Each check is run
once with `Report.record_tuples` spied on; every (claims, members, failing
sets) it passes must list the member tuples its call site used before, and
is then replayed in both recording modes, next to the reference holds
recorded tuple by tuple (`test_linalg.ref_record`); the two reports must
serialize identically.  The key identity, which `product_one_suite` records as one
claim, is compared with the reference's first failing pair.
"""

import contextlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperops import hyper, operators
from hyperops.algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    check_lie,
    check_prelie,
)
from hyperops.bundle import classify_triple, parse_bundle
from hyperops.corpus import broken_variant, export_bundle
from hyperops.geometry import _is_derivation
from hyperops.hyper import HyperTriple, product_one_suite
from hyperops.linalg import Matrix, identity_test
from hyperops.operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    _coincidence,
    are_compatible,
    is_dual_nijenhuis_pair,
    is_nijenhuis,
    is_o_operator,
    is_rdo,
)
from hyperops.reporting import Report
from hyperops.scalars import Scalar
from test_linalg import ref_record

# -- the reference: scalar sums over basis matrices, and the old lambdas -------


def unit_columns(n):
    return [Matrix.column([int(i == t) for i in range(n)]) for t in range(n)]


def _mats(g):
    return g.c if isinstance(g, LieAlgebra) else g.p


def multiply(g, x, y):
    """sum_i x_i L(e_i) y from the left multiplications."""
    out = Matrix.zero(g.dim, 1)
    for i, m in enumerate(_mats(g)):
        if not x[i, 0].is_zero():
            out = out + (m * y).scale(x[i, 0])
    return out


def act(r, x):
    """rho(x) = sum_p x_p rho(e_p)."""
    out = Matrix.zero(r.module_dim, r.module_dim)
    for p, m in enumerate(r.mats):
        out = out + m.scale(x[p, 0])
    return out


def ref_rep_hom(r):
    g, mats = r.algebra, r.mats
    return lambda i, j: (
        act(r, g.basis_bracket(i, j)) == mats[i] * mats[j] - mats[j] * mats[i])


def ref_antisymmetry(g):
    c, neg = g.c, [-m for m in g.c]
    return lambda i, j, k: c[i][k, j] == neg[j][k, i]


def ref_jacobi(g):
    eb = unit_columns(g.dim)

    def br(x, y):
        return multiply(g, x, y)

    def jacobi(i, j, k):
        x, y, z = eb[i], eb[j], eb[k]
        return (br(br(x, y), z) + br(br(z, x), y) + br(br(y, z), x)).is_zero()

    return jacobi


def ref_left_symmetry(g):
    eb = unit_columns(g.dim)

    def pr(x, y):
        return multiply(g, x, y)

    def left_symmetric(i, j, k):
        x, y, z = eb[i], eb[j], eb[k]
        return pr(pr(x, y), z) - pr(x, pr(y, z)) == pr(pr(y, x), z) - pr(y, pr(x, z))

    return left_symmetric


def ref_rdo(rho, d):
    eb = unit_columns(rho.algebra.dim)
    dm = d.matrix
    return lambda i, j: (
        dm * rho.algebra.basis_bracket(i, j) == rho.mats[i] * (dm * eb[j])
        - rho.mats[j] * (dm * eb[i]))


def ref_o_operator(rho, t):
    vb, tm = unit_columns(rho.module_dim), t.matrix

    def holds(i, j):
        tu, tv = tm * vb[i], tm * vb[j]
        return multiply(rho.algebra, tu, tv) == tm * (act(rho, tu) * vb[j]
                                                      - act(rho, tv) * vb[i])

    return holds


def ref_nijenhuis(g, n_map):
    eb, nm = unit_columns(g.dim), n_map.matrix

    def holds(i, j):
        nx, ny = nm * eb[i], nm * eb[j]
        inner = multiply(g, nx, eb[j]) + multiply(g, eb[i], ny) - nm * g.basis_bracket(i, j)
        return multiply(g, nx, ny) == nm * inner

    return holds


def ref_dual_nijenhuis(rho, n_map, s_map):
    eb, vb = unit_columns(rho.algebra.dim), unit_columns(rho.module_dim)
    nm, sm = n_map.matrix, s_map.matrix
    rho_n = [act(rho, nm * x) for x in eb]

    def holds(i, a):
        rho_nx, rho_x, v = rho_n[i], rho.mats[i], vb[a]
        return (rho_nx * (sm * v) == sm * (rho_nx * v) + rho_x * (sm * (sm * v))
                - sm * (rho_x * (sm * v)))

    return holds


def ref_coincidence(rho, t, sm, nt, varrho):
    vb, tm = unit_columns(rho.module_dim), t.matrix

    def matrixwise(x, u, v):
        return act(rho, x * u) * v - act(rho, x * v) * u

    def holds(a, b):
        u, v = vb[a], vb[b]
        b_nt = matrixwise(nt.matrix, u, v)
        b_ts = (matrixwise(tm, sm * u, v) + matrixwise(tm, u, sm * v)
                - sm * matrixwise(tm, u, v))
        b_vr = act(varrho, tm * u) * v - act(varrho, tm * v) * u
        return b_nt == b_ts, b_nt == b_vr

    return holds


def ref_mixed(rho, t1, t2):
    vb, a, b = unit_columns(rho.module_dim), t1.matrix, t2.matrix

    def holds(i, j):
        u, v = vb[i], vb[j]
        lhs = multiply(rho.algebra, a * u, b * v) + multiply(rho.algebra, b * u, a * v)
        return lhs == (a * (act(rho, b * u) * v - act(rho, b * v) * u)
                       + b * (act(rho, a * u) * v - act(rho, a * v) * u))

    return holds


def ref_key_identity(rho, t_map, s_map):
    vb, tm, sm = unit_columns(rho.module_dim), t_map.matrix, s_map.matrix

    def holds(a, b):
        u, v = vb[a], vb[b]
        rho_u, rho_v = act(rho, tm * u), act(rho, tm * v)
        return (sm * (rho_u * v) - sm * (rho_v * u)
                - rho_u * (sm * v) + rho_v * (sm * u)).is_zero()

    return holds


def ref_derivation(g, d):
    eb, dm = unit_columns(g.dim), d.matrix
    basis_op = g.basis_bracket if isinstance(g, LieAlgebra) else g.basis_product
    return lambda i, j: (
        dm * basis_op(i, j) == multiply(g, dm * eb[i], eb[j]) + multiply(g, eb[i], dm * eb[j]))


# -- replaying both in every recording mode -------------------------------------


@contextlib.contextmanager
def _patched(*changes):
    """Set (owner, name, value) attributes for the block, then restore them."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in changes]
    for owner, name, value in changes:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _recorded(call) -> list:
    """The (claims, member tuples, failing sets) of every record_tuples call
    that call() makes."""
    seen, original = [], Report.record_tuples

    def spy(self, claims, test, *args, **kwargs):
        tuples, failing = test
        tuples = list(tuples)
        seen.append((claims, tuples, failing))
        return original(self, claims, (tuples, failing), *args, **kwargs)

    with _patched((Report, "record_tuples", spy)):
        call()
    return seen


_MODES = ({}, {"failures_only": True})


def _same_reports(call, *refs):
    """call() makes one record_tuples call per (reference holds, member
    tuples) pair, at those members, and each records what the reference
    records in both modes."""
    seen = _recorded(call)
    assert len(seen) == len(refs)
    for (claims, tuples, failing), (ref, members) in zip(seen, refs):
        assert tuples == list(members), claims
        for mode in _MODES:
            new, old = Report(), Report()
            got = new.record_tuples(claims, (tuples, failing), **mode)
            want = ref_record(old, claims, tuples, ref, **mode)
            assert (got, new.to_json()) == (want, old.to_json()), (claims, mode)


def _pairs(n):
    return itertools.combinations(range(n), 2)


def _derivation_members(g):
    n = g.dim
    return _pairs(n) if isinstance(g, LieAlgebra) else itertools.product(range(n), repeat=2)


def _lie_members(g):
    n = g.dim
    return itertools.product(range(n), repeat=3), itertools.combinations(range(n), 3)


_PASS = Report()  # a passing precondition report


def _check_all(rho, d, t, n_map, s_map, t2, varrho):
    """Every identity on one input: d algebra -> module, t and t2 module ->
    algebra, n_map on the algebra, s_map on the module, varrho a
    representation of some algebra of rho's dimension on the module."""
    g, r, n, m = rho.algebra, rho, rho.algebra.dim, rho.module_dim
    _same_reports(lambda: r.check(), (ref_rep_hom(r), _pairs(n)))
    _same_reports(lambda: check_lie(g), *zip((ref_antisymmetry(g), ref_jacobi(g)),
                                             _lie_members(g)))
    _same_reports(lambda: is_rdo(rho, d), (ref_rdo(rho, d), _pairs(n)))
    _same_reports(lambda: is_o_operator(rho, t), (ref_o_operator(rho, t), _pairs(m)))
    _same_reports(lambda: is_nijenhuis(g, n_map), (ref_nijenhuis(g, n_map), _pairs(n)))
    _same_reports(lambda: _is_derivation(g, n_map),
                  (ref_derivation(g, n_map), _derivation_members(g)))
    # the pair predicates proved their preconditions first; stub those out
    with _patched((operators, "is_nijenhuis", lambda *a: _PASS),
                  (operators, "is_o_operator", lambda *a: _PASS)):
        _same_reports(lambda: is_dual_nijenhuis_pair(rho, n_map, s_map),
                      (ref_dual_nijenhuis(rho, n_map, s_map),
                       itertools.product(range(n), range(m))))
        _same_reports(lambda: are_compatible(rho, t, t2), (ref_mixed(rho, t, t2), _pairs(m)))
    nt = n_map.compose(t)
    _same_reports(lambda: _coincidence(rho, t, s_map.matrix, nt, varrho),
                  (ref_coincidence(rho, t, s_map.matrix, nt, varrho), _pairs(m)))
    if n == m:  # product_one_suite inverts hflat, here the identity
        triple = HyperTriple(rho, (d,) * 3, (t,) * 3, (n_map,) * 3, (s_map,) * 3, (1, 1, 1),
                             LinMap(Matrix.identity(n), ALGEBRA, MODULE))
        stubs = [(hyper, f, lambda *a: _PASS)
                 for f in ("is_dn", "is_kd", "is_kn", "are_compatible", "is_rdo")]
        with _patched(*stubs):
            got = product_one_suite(triple)
        # one claim per i, its first failing pair as counterexample
        want, ref = Report(), ref_key_identity(rho, t, s_map)
        for i in range(3):
            ref_record(want, "key identity", _pairs(m), ref, at=(i + 1,))
        assert [c.to_json() for c in got.results if c.claim == "key identity"] == [
            c.to_json() for c in want.results]


# -- inputs ----------------------------------------------------------------------


@st.composite
def gaussian_matrix(draw, rows, cols, real=False):
    """Sparse small Gaussian integers; non-real unless `real`."""
    part = st.sampled_from((0, 0, 0, 1, -1, 2))
    entries = [Scalar(Fraction(draw(part)), Fraction(0 if real else draw(part)))
               for _ in range(rows * cols)]
    return Matrix(rows, cols, entries)


def _gl2():
    """gl_2 on the basis E11, E12, E21, E22: the left multiplications of its
    associative product (a pre-Lie algebra) and of its commutator (a Lie
    algebra), and its natural two-dimensional representation."""
    basis = [Matrix(2, 2, [int(r == k // 2 and c == k % 2) for r in range(2) for c in range(2)])
             for k in range(4)]

    def left(op):
        return [Matrix(4, 4, [op(x, basis[j])[k // 2, k % 2] for k in range(4)
                              for j in range(4)]) for x in basis]

    return left(lambda x, y: x * y), left(lambda x, y: x * y - y * x), basis


def _transported(mats, p, p_inv):
    """The structure matrices in the basis p e_1, ..., p e_n: P^-1 L(P e_i) P."""
    return [p_inv * _combination(mats, p, i) * p for i in range(p.rows)]


def _combination(mats, p, i):
    out = Matrix.zero(mats[0].rows, mats[0].cols)
    for k, m in enumerate(mats):
        out = out + m.scale(p[k, i])
    return out


@st.composite
def perturbed(draw, mats, mirror):
    """mats with one entry moved by a Gaussian integer (and, with mirror, the
    entry that antisymmetry pairs with it moved back), or unchanged."""
    mats = list(mats)
    if draw(st.booleans()):
        return mats
    i, j, k = (draw(st.integers(0, len(mats) - 1)) for _ in range(3))
    k %= mats[0].rows
    j %= mats[0].cols
    delta = draw(gaussian_matrix(1, 1))
    mats[i] = mats[i] + Matrix(mats[i].rows, mats[i].cols, [
        delta[0, 0] if (r, c) == (k, j) else 0 for r in range(mats[i].rows)
        for c in range(mats[i].cols)])
    if mirror and j < len(mats) and j != i:
        mats[j] = mats[j] - Matrix(mats[j].rows, mats[j].cols, [
            delta[0, 0] if (r, c) == (k, i) else 0 for r in range(mats[j].rows)
            for c in range(mats[j].cols)])
    return mats


@st.composite
def transport(draw):
    """A unimodular 4 x 4 Gaussian-integer basis change P = LU and its inverse."""
    lower, upper = (draw(gaussian_matrix(4, 4)) for _ in range(2))
    p = (Matrix(4, 4, [1 if r == c else lower[r, c] if r > c else 0
                       for r in range(4) for c in range(4)])
         * Matrix(4, 4, [1 if r == c else upper[r, c] if r < c else 0
                         for r in range(4) for c in range(4)]))
    return p, p.inv()


@st.composite
def operator_inputs(draw):
    """A Lie algebra: gl_2 in a random basis, possibly with one bracket
    perturbed, or random constants, antisymmetric or not (so Jacobi is the
    literal cyclic sum); a representation: the natural one of gl_2, the
    adjoint or coadjoint, possibly perturbed, or random on a module of any
    dimension; and maps of every shape."""
    real = draw(st.booleans())
    kind = draw(st.sampled_from(("gl2", "random", "antisymmetric")))
    if kind == "gl2":
        p, p_inv = draw(transport())
        _, lie, natural = _gl2()
        n, m = 4, draw(st.sampled_from((2, 4)))
        g = LieAlgebra(n, draw(perturbed(_transported(lie, p, p_inv), True)))
        coadjoint = draw(st.booleans())
        mats = draw(perturbed([_combination(natural, p, i) for i in range(n)] if m == 2 else [
            -a.transpose() if coadjoint else a for a in g.c], False))
    else:
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        c = [draw(gaussian_matrix(n, n, real)) for _ in range(n)]
        if kind == "antisymmetric":
            c = [Matrix(n, n, [c[i][k, j] - c[j][k, i] for k in range(n) for j in range(n)])
                 for i in range(n)]
        g = LieAlgebra(n, c)
        mats = [draw(gaussian_matrix(m, m, real)) for _ in range(n)]

    def mat(rows, cols):
        return draw(gaussian_matrix(rows, cols, real))

    rho = Representation(g, m, mats)
    h = LieAlgebra(n, [mat(n, n) for _ in range(n)])
    varrho = Representation(h, m, [mat(m, m) for _ in range(n)])
    return (rho, LinMap(mat(m, n), ALGEBRA, MODULE), LinMap(mat(n, m), MODULE, ALGEBRA),
            LinMap(mat(n, n), ALGEBRA, ALGEBRA), LinMap(mat(m, m), MODULE, MODULE),
            LinMap(mat(n, m), MODULE, ALGEBRA), varrho)


@given(operator_inputs())
@settings(max_examples=60, deadline=None)
def test_identities_match_the_reference_on_random_inputs(inputs):
    _check_all(*inputs)


@given(st.integers(1, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_prelie_identities_match_the_reference_on_random_inputs(n, data):
    """The associative (so pre-Lie) gl_2 in a random basis, possibly with one
    product perturbed, or random constants."""
    if data.draw(st.booleans()):
        n, (q, q_inv) = 4, data.draw(transport())
        p = PreLieAlgebra(4, data.draw(perturbed(_transported(_gl2()[0], q, q_inv), False)))
    else:
        p = PreLieAlgebra(n, [data.draw(gaussian_matrix(n, n)) for _ in range(n)])
    d = LinMap(data.draw(gaussian_matrix(n, n)), ALGEBRA, ALGEBRA)
    _same_reports(lambda: check_prelie(p),
                  (ref_left_symmetry(p), itertools.product(range(n), repeat=3)))
    _same_reports(lambda: _is_derivation(p, d), (ref_derivation(p, d), _derivation_members(p)))


_TRIPLES = [("lie.L4sym", "omega"), ("prelie.rot4", "B"), ("abelian.quat", "quat"),
            ("abelian.para", "para")]


@pytest.mark.parametrize("eid,name", _TRIPLES)
def test_identities_match_the_reference_on_corpus_triples(eid, name):
    t = classify_triple(parse_bundle(export_bundle(eid)), name)
    for i in range(3):
        j = (i + 1) % 3
        varrho = operators._deformed_representation(t.rho, t.n[i].matrix, t.s[i].matrix)
        _check_all(t.rho, t.d[i], t.t[i], t.n[i], t.s[i], t.t[j], varrho)


@pytest.mark.parametrize("variant", ["non-jacobi", "non-derivation"])
def test_identities_match_the_reference_on_broken_variants(variant):
    b = parse_bundle(broken_variant(variant))
    for g in b.algebras.values():
        if isinstance(g, LieAlgebra):
            _same_reports(lambda: check_lie(g), *zip((ref_antisymmetry(g), ref_jacobi(g)),
                                                     _lie_members(g)))
        else:
            _same_reports(lambda: check_prelie(g), (ref_left_symmetry(g),
                                                    itertools.product(range(g.dim), repeat=3)))
        for d in b.maps.values():
            if d.matrix.rows == d.matrix.cols == g.dim:
                _same_reports(lambda: _is_derivation(g, d),
                              (ref_derivation(g, d), _derivation_members(g)))


@given(transport())
@settings(max_examples=10, deadline=None)
def test_gl2_in_any_basis_satisfies_its_axioms(p):
    assoc, lie, natural = _gl2()
    g = LieAlgebra(4, _transported(lie, *p))
    assert check_lie(g).passed
    assert check_prelie(PreLieAlgebra(4, _transported(assoc, *p))).passed
    assert Representation(g, 2, [_combination(natural, p[0], i) for i in range(4)]).check().passed


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_last_index_read_as_a_vector_in_any_tuple_order(data):
    """Without an output index, identity_test reads t's last index as one
    vector per value of the others, whichever tuple comes first for them."""
    n = data.draw(st.integers(1, 4))
    x = data.draw(gaussian_matrix(n, n * n))
    for ordered in (0, 2, 3):
        tuples, (fails,) = identity_test({"i": n, "j": n, "k": n},
                                         [(1, x, "kij"), (-1, x, "kji")], ordered=ordered)
        assert fails == {(i, j, k) for i, j, k in tuples
                         if x[k, i * n + j] != x[k, j * n + i]}, ordered
