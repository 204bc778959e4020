"""JSON bundle format: one document carrying named algebras, representations,
maps, forms, and triples, with every scalar written in the exact text grammar.

Schema (all scalar values are strings in the grammar of scalars.parse_scalar):

    {
      "field": "gaussian_rational",
      "algebras": {name: {"kind": "lie"|"prelie", "dim": n,
                          "constants": [{"i":., "j":., "k":., "coeff": s}]}},
      "reps":     {name: {"algebra": name,
                          "constructor": "adjoint"|"coadjoint"|"regular"|"coregular"}
                 | {name: {"algebra": name, "module_dim": m, "matrices": [rows...]}}},
      "maps":     {name: {"domain": "algebra"|"module", "codomain": ...,
                          "matrix": [[s, ...], ...]}},
      "forms":    {name: {"algebra": name, "symmetry": "skew"|"symmetric",
                          "terms": [{"term": "e1^*∧e2^*"|"e1^*⊗e2^*", "coeff": s}]}},
      "triples":  {name: {"kind": "maps", "algebra": name, "rep": name,
                          "members": [m1, m2, m3]}
                 | {name: {"kind": "forms", "algebra": name,
                          "members": [f1, f2, f3]}}}
    }

Structure constants are sparse: Lie entries list i < j pairs and the mirrored
pair is filled by antisymmetry unless it is given explicitly; pre-Lie entries
list every nonzero product.  Indices are 1-based throughout.

Every section and record must have the shape above, or parsing raises
BundleError.  Algebra ``dim`` and module ``module_dim`` are capped at
MAX_DIM, checked before any tensor is allocated: an algebra holds dim^3
structure constants, and the operator checks loop over basis tuples.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    coregular_rep,
    regular_rep,
)
from .geometry import SKEW, SYMMETRIC, BilForm
from .linalg import Matrix
from .operators import ALGEBRA, MODULE, LinMap, OperatorContext
from .scalars import ZERO, ScalarParseError, parse_scalar


class BundleError(ValueError):
    """The bundle document is malformed; message names the offending field."""


MAX_DIM = 64


_TERM_RE = re.compile(r"^e(\d+)\^?\*([∧⊗])e(\d+)\^?\*$")

_CONSTRUCTORS = {
    "adjoint": (LieAlgebra, adjoint_rep),
    "coadjoint": (LieAlgebra, coadjoint_rep),
    "regular": (PreLieAlgebra, regular_rep),
    "coregular": (PreLieAlgebra, coregular_rep),
}


@dataclass(frozen=True)
class TripleRef:
    kind: str  # "maps" | "forms"
    algebra: str
    members: tuple
    rep: str | None = None


@dataclass
class Bundle:
    raw: dict
    algebras: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    form_algebra: dict = field(default_factory=dict)
    triples: dict = field(default_factory=dict)

    def algebra(self, name: str):
        return _lookup(self.algebras, name, "algebra")

    def rep(self, name: str) -> Representation:
        return _lookup(self.reps, name, "representation")

    def map(self, name: str) -> LinMap:
        return _lookup(self.maps, name, "map")

    def form(self, name: str) -> BilForm:
        return _lookup(self.forms, name, "form")

    def triple(self, name: str) -> TripleRef:
        return _lookup(self.triples, name, "triple")

    def context(self, rep_name: str) -> OperatorContext:
        r = self.rep(rep_name)
        return OperatorContext(r.algebra, r)


def _lookup(table: dict, name: str, what: str):
    if not isinstance(name, str) or name not in table:
        raise BundleError(f"unknown {what} {name!r} (have: {sorted(table)})")
    return table[name]


def _scalar(text, where: str):
    try:
        return parse_scalar(str(text))
    except ScalarParseError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _matrix(rows, where: str) -> Matrix:
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and r and len(r) == len(rows[0]) for r in rows)):
        raise BundleError(f"{where}: matrix must be a list of equal-length nonempty rows")
    return Matrix.from_rows(
        [[_scalar(v, where) for v in row] for row in rows]
    )


def _dim(value, where: str) -> int:
    if type(value) is not int or not 1 <= value <= MAX_DIM:
        raise BundleError(f"{where}: need an integer dimension from 1 to {MAX_DIM}, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise BundleError(f"{where} must be a list, got {type(value).__name__}")
    return value


def _parse_algebra(name: str, rec: dict):
    kind = rec.get("kind")
    if kind not in ("lie", "prelie"):
        raise BundleError(f"algebra {name!r}: need kind lie|prelie")
    dim = _dim(rec.get("dim"), f"algebra {name!r}")
    constants = _list(rec.get("constants", []), f"algebra {name!r}: constants")
    tensor = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    explicit = set()
    for rec_ijk in constants:
        try:
            i, j, k = int(rec_ijk["i"]), int(rec_ijk["j"]), int(rec_ijk["k"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(f"algebra {name!r}: bad constant record {rec_ijk!r}") from exc
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise BundleError(f"algebra {name!r}: index out of range in {rec_ijk!r}")
        co = _scalar(rec_ijk.get("coeff", "1"), f"algebra {name!r}")
        tensor[i - 1][j - 1][k - 1] = tensor[i - 1][j - 1][k - 1] + co
        explicit.add((i - 1, j - 1))
    if kind == "prelie":
        return PreLieAlgebra(dim, tensor)
    # fill mirrored Lie entries by antisymmetry where not given explicitly
    for (i, j) in list(explicit):
        if (j, i) not in explicit:
            for k in range(dim):
                tensor[j][i][k] = -tensor[i][j][k]
    return LieAlgebra(dim, tensor)


def _parse_rep(name: str, rec: dict, algebras: dict) -> Representation:
    alg_name = rec.get("algebra")
    g = _lookup(algebras, alg_name, "algebra")
    ctor = rec.get("constructor")
    if ctor is not None:
        if not isinstance(ctor, str) or ctor not in _CONSTRUCTORS:
            raise BundleError(f"rep {name!r}: unknown constructor {ctor!r}")
        want_cls, fn = _CONSTRUCTORS[ctor]
        if not isinstance(g, want_cls):
            raise BundleError(
                f"rep {name!r}: constructor {ctor!r} needs a "
                f"{'Lie' if want_cls is LieAlgebra else 'pre-Lie'} algebra"
            )
        return fn(g)
    if not isinstance(g, LieAlgebra):
        raise BundleError(f"rep {name!r}: explicit matrices need a Lie algebra")
    mats = rec.get("matrices")
    if not isinstance(mats, list) or "module_dim" not in rec:
        raise BundleError(f"rep {name!r}: need module_dim and matrices (or a constructor)")
    mdim = _dim(rec["module_dim"], f"rep {name!r}")
    if len(mats) != g.dim:
        raise BundleError(f"rep {name!r}: {len(mats)} matrices for algebra of dim {g.dim}")
    return Representation(g, mdim, tuple(_matrix(m, f"rep {name!r}") for m in mats))


def _parse_map(name: str, rec: dict) -> LinMap:
    dom, cod = rec.get("domain"), rec.get("codomain")
    if dom not in (ALGEBRA, MODULE) or cod not in (ALGEBRA, MODULE):
        raise BundleError(f"map {name!r}: domain/codomain must be 'algebra' or 'module'")
    return LinMap(_matrix(rec.get("matrix", []), f"map {name!r}"), dom, cod)


def _parse_form(name: str, rec: dict, algebras: dict) -> tuple[BilForm, str]:
    alg_name = rec.get("algebra")
    g = _lookup(algebras, alg_name, "algebra")
    symmetry = rec.get("symmetry")
    if symmetry not in (SKEW, SYMMETRIC):
        raise BundleError(f"form {name!r}: symmetry must be 'skew' or 'symmetric'")
    terms = []
    for t in _list(rec.get("terms", []), f"form {name!r}: terms"):
        if not isinstance(t, dict):
            raise BundleError(f"form {name!r}: term records must be objects, got {t!r}")
        text = str(t.get("term", "")).replace(" ", "")
        m = _TERM_RE.match(text)
        if m is None:
            raise BundleError(f"form {name!r}: malformed term {t.get('term')!r}")
        i, op, j = int(m.group(1)), m.group(2), int(m.group(3))
        if not (1 <= i <= g.dim and 1 <= j <= g.dim):
            raise BundleError(f"form {name!r}: index out of range in {t.get('term')!r}")
        kind = "wedge" if op == "∧" else "tensor"
        terms.append((kind, i, j, _scalar(t.get("coeff", "1"), f"form {name!r}")))
    try:
        return BilForm.from_terms(g.dim, terms, symmetry), alg_name
    except ValueError as exc:
        raise BundleError(f"form {name!r}: {exc}") from exc


def _parse_triple(name: str, rec: dict, bundle: Bundle) -> TripleRef:
    kind = rec.get("kind")
    members = rec.get("members")
    if (kind not in ("maps", "forms") or not isinstance(members, list) or len(members) != 3
            or not all(isinstance(m, str) for m in members)):
        raise BundleError(f"triple {name!r}: need kind maps|forms and exactly three member names")
    alg_name = rec.get("algebra")
    _lookup(bundle.algebras, alg_name, "algebra")
    rep_name = rec.get("rep")
    if kind == "maps":
        if rep_name is None:
            raise BundleError(f"triple {name!r}: map triples need a rep")
        bundle.rep(rep_name)
        for m in members:
            bundle.map(m)
    else:
        for m in members:
            f_alg = bundle.form_algebra.get(m)
            bundle.form(m)
            if f_alg != alg_name:
                raise BundleError(
                    f"triple {name!r}: form {m!r} is over {f_alg!r}, not {alg_name!r}"
                )
    return TripleRef(kind, alg_name, tuple(members), rep_name)


def parse_bundle(doc: dict) -> Bundle:
    if not isinstance(doc, dict):
        raise BundleError("bundle document must be a JSON object")
    if doc.get("field", "gaussian_rational") != "gaussian_rational":
        raise BundleError(f"unsupported field {doc.get('field')!r}")
    b = Bundle(raw=doc)
    for name, rec in _records(doc, "algebras"):
        b.algebras[name] = _parse_algebra(name, rec)
    for name, rec in _records(doc, "reps"):
        b.reps[name] = _parse_rep(name, rec, b.algebras)
    for name, rec in _records(doc, "maps"):
        b.maps[name] = _parse_map(name, rec)
    for name, rec in _records(doc, "forms"):
        b.forms[name], b.form_algebra[name] = _parse_form(name, rec, b.algebras)
    for name, rec in _records(doc, "triples"):
        b.triples[name] = _parse_triple(name, rec, b)
    return b


def _records(doc: dict, section: str) -> list:
    """The (name, record) pairs of a section, each record a JSON object."""
    table = doc.get(section, {})
    if not isinstance(table, dict):
        raise BundleError(f"{section!r} must be an object of named records")
    for name, rec in table.items():
        if not isinstance(rec, dict):
            raise BundleError(f"{section} {name!r}: record must be an object, got {rec!r}")
    return list(table.items())


def load_bundle(path: str) -> Bundle:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BundleError(f"cannot read bundle {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle {path!r} is not valid JSON: {exc}") from exc
    return parse_bundle(doc)


def triple_flavor(bundle: Bundle, ref: TripleRef) -> str:
    """Natural flavor of a triple: rdo for map triples, symplectic/hessian for
    form triples over a Lie/pre-Lie algebra."""
    if ref.kind == "maps":
        return "rdo"
    g = bundle.algebra(ref.algebra)
    return "symplectic" if isinstance(g, LieAlgebra) else "hessian"


def classify_triple(bundle: Bundle, name: str, flavor: str | None = None):
    """Resolve and classify a named triple; returns the classified triple."""
    from .geometry import classify_hyper_hessian, classify_hyper_symplectic
    from .hyper import classify_hyper

    ref = bundle.triple(name)
    natural = triple_flavor(bundle, ref)
    flavor = flavor or natural
    if flavor != natural:
        raise BundleError(f"triple {name!r} is a {natural} triple, not {flavor}")
    if flavor == "rdo":
        ctx = bundle.context(ref.rep)
        return classify_hyper(ctx, *(bundle.map(m) for m in ref.members))
    g = bundle.algebra(ref.algebra)
    forms = [bundle.form(m) for m in ref.members]
    if flavor == "symplectic":
        return classify_hyper_symplectic(g, *forms)
    return classify_hyper_hessian(g, *forms)
