"""The stacked builders against the per-element formulas they replaced, and
the work one derived-suite request does.

An algebra or representation keeps its structure constants as one stack
st = [M_1; ...; M_n], and the deformed, dual and sub-adjacent structures are
built straight into it.  The references here build the same structures one
matrix at a time: n matrices cut from unfoldings made by n transposes, then
summed block by block as a + b - c^T."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperops import cli, operators
from hyperops.algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    coregular_rep,
    dual_rep,
    regular_rep,
    subadjacent,
)
from hyperops.corpus import export_bundle
from hyperops.linalg import Matrix, _hstack, combine, cut
from hyperops.operators import (
    _deformed_bracket,
    _deformed_representation,
    inner_rdo,
)
from hyperops.scalars import ZERO, Scalar


# -- the per-element references ---------------------------------------

def ref_unfold(mats, d):
    """[M_1; ...; M_n], [M_1 | ... | M_n] and [M_1^T; ...; M_n^T] of n d x d
    matrices, the first made by n transposes."""
    if not mats:
        return Matrix.zero(0, d), Matrix.zero(d, 0), Matrix.zero(0, d)
    row = _hstack(*mats)
    return _hstack(*(m.transpose() for m in mats)).transpose(), row, row.transpose()


def ref_deformed_bracket(g, nm):
    """ad_N(e_i) = ad(N e_i) + ad(e_i) N - N ad(e_i), one block at a time."""
    n = g.dim
    st_, _, ts = ref_unfold(g.c, n)
    return LieAlgebra(n, [a + b - c.transpose() for a, b, c in zip(
        cut(combine(st_, nm), n, n), cut(st_ * nm, n, n), cut(ts * nm.transpose(), n, n))])


def ref_deformed_representation(rho, nm, sm):
    """varrho(e_i) = rho(N e_i) - rho(e_i) S + S rho(e_i), one block at a time."""
    m = rho.module_dim
    st_, _, ts = ref_unfold(rho.mats, m)
    return Representation(ref_deformed_bracket(rho.algebra, nm), m, [
        a - b + c.transpose() for a, b, c in zip(
            cut(combine(st_, nm), m, m), cut(st_ * sm, m, m), cut(ts * sm.transpose(), m, m))])


def ref_dual_rep(r):
    """rho*(e_i) = -rho(e_i)^T, one transpose per basis vector."""
    return Representation(r.algebra, r.module_dim, tuple(-m.transpose() for m in r.mats))


def ref_subadjacent(g):
    """ad(e_i) = L_i - R_i, with R_i assembled from column i of every L_j."""
    n, p = g.dim, g.p
    return LieAlgebra(n, [p[i] - _hstack(*(q._block(0, n, i, i + 1) for q in p))
                          for i in range(n)])


def ref_inner_rdo(rho, u):
    """x -> rho(x) u, side by side over the basis."""
    return _hstack(*(m * u for m in rho.mats))


# -- stacked against per-element ----------------------------------------

@st.composite
def matrices(draw, rows, cols, real):
    """Sparse entries over the denominators 1, 2 and 3, with imaginary parts
    over 1, 2 and 5 unless real."""
    entry = st.builds(lambda a, da, b, db: Scalar(Fraction(a, da), Fraction(0 if real else b, db)),
                      st.integers(-4, 4), st.sampled_from([1, 2, 3]),
                      st.integers(-2, 2), st.sampled_from([1, 2, 5]))
    return Matrix(rows, cols, [draw(st.just(ZERO) | entry) for _ in range(rows * cols)])


@st.composite
def structures(draw):
    """An n-dimensional bracket and product from one tensor (the builders
    assume no axiom), a representation on an m-dimensional module, N, S and
    a module vector u."""
    n, m, real = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.booleans())
    blocks = [draw(matrices(n, n, real)) for _ in range(n)]
    g = LieAlgebra(n, blocks)
    rho = [draw(matrices(m, m, real)) for _ in range(n)]
    action = Representation(g, m, rho)
    return (blocks, rho, g, PreLieAlgebra(n, blocks), action, draw(matrices(n, n, real)),
            draw(matrices(m, m, real)), draw(matrices(m, 1, real)))


@given(structures())
@settings(max_examples=120, deadline=None)
def test_stacked_builders_match_their_per_element_references(data):
    blocks, rho, g, p, action, nm, sm, u = data
    n, m = g.dim, action.module_dim
    assert g.c == p.p == tuple(blocks) and action.mats == tuple(rho)
    for x, mats, d in ((g, blocks, n), (p, blocks, n), (action, rho, m)):
        assert x.unfolded == ref_unfold(mats, d)
    built = {
        "deformed bracket": (_deformed_bracket(g, nm), ref_deformed_bracket(g, nm)),
        "deformed representation": (_deformed_representation(action, nm, sm),
                                    ref_deformed_representation(action, nm, sm)),
        "dual": (dual_rep(action), ref_dual_rep(action)),
        "coadjoint": (coadjoint_rep(g), ref_dual_rep(adjoint_rep(g))),
        "coregular": (coregular_rep(p), ref_dual_rep(regular_rep(p))),
        "sub-adjacent": (subadjacent(p), ref_subadjacent(p)),
    }
    for what, (got, want) in built.items():
        assert got == want and hash(got) == hash(want), what
        mats, d = (got.mats, got.module_dim) if isinstance(got, Representation) else (got.c, n)
        assert got.unfolded == ref_unfold(mats, d), what
    assert inner_rdo(action, u).matrix == ref_inner_rdo(action, u)


# -- the work of one derived-suite request ------------------------------

@pytest.mark.parametrize("example, triple, transposes",
                         [("lie.L4sym", "omega", 36), ("prelie.rot4", "B", 38)])
def test_derived_suite_builds_each_deformed_representation_once(
        tmp_path, monkeypatch, example, triple, transposes):
    """`suite --which derived` asks is_kn for each of its three dual-Nijenhuis
    pairs twice; the request builds each pair's deformed representation (and
    with it the deformed bracket) once, and makes at most the transposes
    counted when the structures moved into their stacks."""
    path = tmp_path / f"{example}.json"
    path.write_text(json.dumps(export_bundle(example)))
    counts = {"deformed": 0, "transpose": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(operators, "_deformed_bracket",
                        counted("deformed", operators._deformed_bracket))
    monkeypatch.setattr(Matrix, "transpose", counted("transpose", Matrix.transpose))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["suite", str(path), "--triple", triple, "--which", "derived",
                         "--format", "json"])
    assert code == cli.EXIT_PASS and json.loads(out.getvalue())["report"]["pass"] is True
    assert counts["deformed"] == 3
    assert counts["transpose"] <= transposes, counts
