"""Built-in registry of worked examples: each entry is a self-contained bundle
plus the expected results, so reloading and re-checking an entry is a full
regression test.  Also ships deliberately broken variants for negative-path
tests.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from .algebra import LieAlgebra, PreLieAlgebra, check_lie, check_prelie
from .bundle import Bundle, classify_triple, parse_bundle
from .geometry import check_hermitian_variant, is_hessian, is_symplectic
from .reporting import Report
from .search import HESSIAN, solve_forms


def _lie(dim, *constants):
    return {"kind": "lie", "dim": dim,
            "constants": [{"i": i, "j": j, "k": k, "coeff": c} for (i, j, k, c) in constants]}


def _prelie(dim, *constants):
    return {"kind": "prelie", "dim": dim,
            "constants": [{"i": i, "j": j, "k": k, "coeff": c} for (i, j, k, c) in constants]}


def _form(algebra, symmetry, *terms):
    return {"algebra": algebra, "symmetry": symmetry,
            "terms": [{"term": t, "coeff": c} for (t, c) in terms]}


def _map(rows, domain="algebra", codomain="module"):
    return {"domain": domain, "codomain": codomain, "matrix": rows}


class ExampleEntry(NamedTuple):
    id: str
    kind: str
    description: str
    bundle: dict
    expected: dict


_ID4 = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]

# left multiplication by the imaginary quaternion units on the basis (1, i, j, k)
_MI = [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
_MJ = [["0", "0", "-1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "-1", "0", "0"]]
_MK = [["0", "0", "0", "-1"], ["0", "0", "-1", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"]]


_REGISTRY: list[ExampleEntry] = [
    ExampleEntry(
        "lie.L4sym",
        "lie",
        "4-dim solvable Lie algebra with three symplectic forms of signature (1,1,-1)",
        {
            "field": "gaussian_rational",
            "algebras": {"g": _lie(4, (1, 2, 2, "1"), (1, 3, 3, "-1"), (1, 4, 4, "1"))},
            "forms": {
                "w1": _form("g", "skew", ("e1^*∧e2^*", "1"), ("e1^*∧e3^*", "1"),
                            ("e3^*∧e4^*", "1")),
                "w2": _form("g", "skew", ("e1^*∧e4^*", "1"), ("e2^*∧e3^*", "1")),
                "w3": _form("g", "skew", ("e1^*∧e2^*", "-1"), ("e1^*∧e3^*", "1"),
                            ("e3^*∧e4^*", "1")),
            },
            "triples": {"omega": {"kind": "forms", "algebra": "g",
                                  "members": ["w1", "w2", "w3"]}},
        },
        {"symplectic": ["w1", "w2", "w3"], "triple": "omega", "eps": (1, 1, -1)},
    ),
    ExampleEntry(
        "prelie.I4",
        "prelie",
        "4-dim pre-Lie algebra with a diagonal Hessian form",
        {
            "field": "gaussian_rational",
            "algebras": {"g": _prelie(4, (1, 1, 1, "2"), (1, 2, 2, "1"), (1, 3, 3, "1"),
                                      (1, 4, 4, "1"), (2, 2, 1, "1"), (3, 3, 1, "1"),
                                      (4, 4, 1, "1"))},
            "forms": {"B": _form("g", "symmetric", ("e1^*⊗e1^*", "2"), ("e2^*⊗e2^*", "1"),
                                 ("e3^*⊗e3^*", "1"), ("e4^*⊗e4^*", "1"))},
        },
        {"hessian": ["B"], "hessian_exists": True, "hessian_member": "B"},
    ),
    ExampleEntry(
        "prelie.A4",
        "prelie",
        "4-dim pre-Lie family at parameters (2,1) with its Hessian form",
        {
            "field": "gaussian_rational",
            # parameters (a1, a2) = (2, 1); the family constraints force a3 = 1, a4 = 1
            "algebras": {"g": _prelie(4, (1, 1, 1, "2"), (1, 2, 2, "1"), (1, 3, 3, "1"),
                                      (1, 4, 4, "1"), (2, 4, 1, "1"), (3, 3, 1, "1"),
                                      (4, 2, 1, "1"))},
            "forms": {"B": _form("g", "symmetric", ("e1^*⊗e1^*", "2"), ("e2^*⊗e4^*", "1"),
                                 ("e4^*⊗e2^*", "1"), ("e3^*⊗e3^*", "1"))},
        },
        {"hessian": ["B"], "hessian_exists": True, "hessian_member": "B"},
    ),
    ExampleEntry(
        "prelie.B4",
        "prelie",
        "4-dim pre-Lie algebra with no nondegenerate Hessian form",
        {
            "field": "gaussian_rational",
            "algebras": {"g": _prelie(4, (1, 2, 4, "1"), (2, 1, 4, "1"), (2, 3, 1, "2"),
                                      (3, 2, 1, "1"), (4, 2, 2, "-1"), (4, 3, 3, "1"),
                                      (4, 4, 4, "-1"))},
        },
        {"hessian_exists": False},
    ),
    ExampleEntry(
        "prelie.rot4",
        "prelie",
        "4-dim pre-Lie algebra with three Hessian forms of signature (-1,-1,1)",
        {
            "field": "gaussian_rational",
            "algebras": {"g": _prelie(4, (3, 1, 2, "1"), (3, 2, 1, "-1"))},
            "forms": {
                "B1": _form("g", "symmetric", ("e1^*⊗e1^*", "1"), ("e2^*⊗e2^*", "1"),
                            ("e3^*⊗e3^*", "2"), ("e3^*⊗e4^*", "1"), ("e4^*⊗e3^*", "1")),
                "B2": _form("g", "symmetric", ("e1^*⊗e1^*", "-1"), ("e2^*⊗e2^*", "-1"),
                            ("e3^*⊗e3^*", "2"), ("e4^*⊗e4^*", "1"), ("e3^*⊗e4^*", "1"),
                            ("e4^*⊗e3^*", "1")),
                "B3": _form("g", "symmetric", ("e1^*⊗e1^*", "i"), ("e2^*⊗e2^*", "i"),
                            ("e3^*⊗e3^*", "2i"), ("e4^*⊗e4^*", "i"), ("e3^*⊗e4^*", "i"),
                            ("e4^*⊗e3^*", "i")),
            },
            "triples": {"B": {"kind": "forms", "algebra": "g",
                              "members": ["B1", "B2", "B3"]}},
        },
        {"hessian": ["B1", "B2", "B3"], "triple": "B", "eps": (-1, -1, 1),
         "hessian_exists": True, "hessian_member": "B1"},
    ),
    ExampleEntry(
        "lie.heis4",
        "lie",
        "Heisenberg algebra plus a line, with a symplectic form and a compatible complex structure",
        {
            "field": "gaussian_rational",
            "algebras": {"g": _lie(4, (1, 2, 3, "1"))},
            "forms": {"w": _form("g", "skew", ("e2^*∧e3^*", "1"), ("e1^*∧e4^*", "-1"))},
            "maps": {"I": _map([["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                                ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
                               "algebra", "algebra")},
        },
        {"symplectic": ["w"], "anti_hermitian": ("w", "I")},
    ),
    ExampleEntry(
        "abelian.quat",
        "abelian",
        "4-dim abelian witness: quaternion-unit triple with signature (-1,-1,-1)",
        {
            "field": "gaussian_rational",
            "algebras": {"a": _lie(4)},
            "reps": {"triv": {"algebra": "a", "constructor": "adjoint"}},
            "maps": {"mi": _map(_MI), "mj": _map(_MJ), "mk": _map(_MK)},
            "forms": {"B": _form("a", "symmetric", ("e1^*⊗e1^*", "1"), ("e2^*⊗e2^*", "1"),
                                 ("e3^*⊗e3^*", "1"), ("e4^*⊗e4^*", "1"))},
            "triples": {"quat": {"kind": "maps", "algebra": "a", "rep": "triv",
                                 "members": ["mi", "mj", "mk"]}},
        },
        {"triple": "quat", "eps": (-1, -1, -1)},
    ),
    ExampleEntry(
        "abelian.para",
        "abelian",
        "2-dim abelian witness: (Id, Id, diag(1,-1)) triple with signature (1,1,1)",
        {
            "field": "gaussian_rational",
            "algebras": {"a": _lie(2)},
            "reps": {"triv": {"algebra": "a", "constructor": "adjoint"}},
            "maps": {
                "m1": _map([["1", "0"], ["0", "1"]]),
                "m2": _map([["1", "0"], ["0", "1"]]),
                "m3": _map([["1", "0"], ["0", "-1"]]),
            },
            "forms": {"w": _form("a", "skew", ("e1^*∧e2^*", "1"))},
            "triples": {"para": {"kind": "maps", "algebra": "a", "rep": "triv",
                                 "members": ["m1", "m2", "m3"]}},
        },
        {"triple": "para", "eps": (1, 1, 1)},
    ),
]

_BY_ID = {e.id: e for e in _REGISTRY}


def list_examples() -> list[tuple[str, str, str]]:
    return [(e.id, e.kind, e.description) for e in _REGISTRY]


def load_example(example_id: str) -> tuple[ExampleEntry, Bundle]:
    if example_id not in _BY_ID:
        raise KeyError(f"unknown example {example_id!r} (have: {sorted(_BY_ID)})")
    entry = _BY_ID[example_id]
    return entry, parse_bundle(entry.bundle)


def export_bundle(example_id: str) -> dict:
    """The entry's bundle as a plain JSON-ready document."""
    if example_id not in _BY_ID:
        raise KeyError(f"unknown example {example_id!r}")
    return copy.deepcopy(_BY_ID[example_id].bundle)


def run_example(example_id: str) -> Report:
    """Re-derive the entry's expected results from scratch."""
    entry, b = load_example(example_id)
    rep = Report(f"corpus {example_id}")
    for name, g in b.algebras.items():
        check = check_lie(g) if isinstance(g, LieAlgebra) else check_prelie(g)
        rep.record(f"algebra {name} valid", (), check.passed)
    exp = entry.expected
    for fname in exp.get("symplectic", []):
        rep.record(f"{fname} symplectic", (),
                   is_symplectic(b.algebra(b.form_algebra[fname]), b.form(fname)).passed)
    for fname in exp.get("hessian", []):
        rep.record(f"{fname} Hessian", (),
                   is_hessian(b.algebra(b.form_algebra[fname]), b.form(fname)).passed)
    if "triple" in exp:
        triple = classify_triple(b, exp["triple"])
        rep.record("signature", tuple(exp["eps"]), triple.eps == tuple(exp["eps"]),
                   detail=f"got eps={triple.eps}")
    if "hessian_exists" in exp:
        (g,) = [g for g in b.algebras.values() if isinstance(g, PreLieAlgebra)]
        res = solve_forms(g, HESSIAN)
        rep.record("nondegenerate Hessian exists", (),
                   res.exists_nondegenerate == exp["hessian_exists"])
        if "hessian_member" in exp:
            rep.record("stored form lies in solution space", (),
                       res.contains(b.form(exp["hessian_member"])))
    if "anti_hermitian" in exp:
        fname, mname = exp["anti_hermitian"]
        g = b.algebra(b.form_algebra[fname])
        rep.record("anti-Hermitian pair", (),
                   check_hermitian_variant(g, b.form(fname), b.map(mname),
                                           "anti-hermitian").passed)
    return rep


# -- deliberately broken inputs for negative-path tests ----------------

_BROKEN: dict[str, dict] = {
    # fails the Jacobi identity at basis triple (1,2,3)
    "non-jacobi": {
        "field": "gaussian_rational",
        "algebras": {"broken": _lie(3, (1, 2, 3, "1"), (1, 3, 1, "1"), (2, 3, 2, "1"))},
    },
    # I1 = I2 = a quaternion unit: I1∘I2 = -Id fails anticommutation
    "non-anticommuting": {
        "field": "gaussian_rational",
        "algebras": {"a": _lie(4)},
        "reps": {"triv": {"algebra": "a", "constructor": "adjoint"}},
        "maps": {"hflat": _map(_ID4), "i1": _map(_MI, "algebra", "algebra"),
                 "i2": _map(_MI, "algebra", "algebra")},
    },
    # identity endomorphisms on sl2: invertible but neither skew nor derivations
    "non-derivation": {
        "field": "gaussian_rational",
        "algebras": {"g": _lie(3, (1, 2, 2, "2"), (1, 3, 3, "-2"), (2, 3, 1, "1"))},
        "forms": {"B": _form("g", "symmetric", ("e1^*⊗e1^*", "2"), ("e2^*⊗e3^*", "1"),
                             ("e3^*⊗e2^*", "1"))},
        "maps": {"d1": _map([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                            "algebra", "algebra"),
                 "d2": _map([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                            "algebra", "algebra"),
                 "d3": _map([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                            "algebra", "algebra")},
    },
}


def broken_variants() -> list[str]:
    return sorted(_BROKEN)


def broken_variant(name: str) -> dict:
    if name not in _BROKEN:
        raise KeyError(f"unknown broken variant {name!r} (have: {broken_variants()})")
    return copy.deepcopy(_BROKEN[name])
