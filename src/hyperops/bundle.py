"""JSON bundle format: one document carrying named algebras, representations,
maps, forms, and triples, with every scalar written in the exact text grammar.

Schema (all scalar values are strings in the grammar of scalars.parse_gaussian):

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
list every nonzero product.  The indices i, j, k are JSON integers (not
floats, booleans or strings).  Indices are 1-based throughout.

A representation is kept as built, and the operator predicates take it as
`Bundle.rep(name)` returns it: it carries its algebra.

Each record is validated here and built by a public constructor, which sums
its literals, each distinct one parsed once per bundle, into integer matrices
without building a Scalar (a map or representation matrix from its nonzero
literals, every literal parsed); a ValueError becomes a BundleError naming where.

Every section and record must have the shape above, or parsing raises
BundleError.  Algebra ``dim`` and module ``module_dim`` are capped at
MAX_DIM, checked before any matrix is allocated: an algebra holds dim^3
structure constants, and the operator checks loop over basis tuples.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    coregular_rep,
    regular_rep,
)
from .geometry import SKEW, SYMMETRIC, BilForm, classify_hyper_hessian, classify_hyper_symplectic
from .hyper import classify_hyper
from .linalg import Matrix, accumulate
from .operators import ALGEBRA, MODULE, LinMap
from .scalars import parse_gaussian


class BundleError(ValueError):
    """The bundle document is malformed; message names the offending field."""


MAX_DIM = 64


_TERM_RE = re.compile(r"e(\d+)\^?\*([∧⊗])e(\d+)\^?\*")

_CONSTRUCTORS = {
    "adjoint": (LieAlgebra, adjoint_rep),
    "coadjoint": (LieAlgebra, coadjoint_rep),
    "regular": (PreLieAlgebra, regular_rep),
    "coregular": (PreLieAlgebra, coregular_rep),
}


class TripleRef(NamedTuple):
    kind: str  # "maps" | "forms"
    algebra: str
    members: tuple
    rep: str | None = None


class Bundle:
    def __init__(self, raw: dict, algebras=None, reps=None, maps=None, forms=None,
                 form_algebra=None, triples=None):
        """The document raw and its records by name, a new table for each not given."""
        self.raw, tables = raw, (algebras, reps, maps, forms, form_algebra, triples)
        (self.algebras, self.reps, self.maps, self.forms, self.form_algebra,
         self.triples) = ({} if t is None else t for t in tables)

    def algebra(self, name: str):
        return _lookup(self.algebras, name, "algebra")

    def rep(self, name: str) -> Representation:
        return _lookup(self.reps, name, "representation")

    def map(self, name: str) -> LinMap:
        return _lookup(self.maps, name, "map")

    def form(self, name: str) -> BilForm:
        return _lookup(self.forms, name, "form")

    def form_over(self, name: str, algebra: str) -> BilForm:
        """The form `name`, which must be declared over the algebra named `algebra`."""
        if (over := self.form_algebra.get(name, algebra)) != algebra:
            raise BundleError(f"form {name!r} is over {over!r}, not {algebra!r}")
        return self.form(name)

    def triple(self, name: str) -> TripleRef:
        return _lookup(self.triples, name, "triple")


def _lookup(table: dict, name: str, what: str):
    if not isinstance(name, str) or name not in table:
        raise BundleError(f"unknown {what} {name!r} (have: {sorted(table)})")
    return table[name]


def _build(where: str, make, *args):
    """make(*args), with a ValueError raised as a BundleError naming where."""
    try:
        return make(*args)
    except ValueError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _literal(parsed: dict, value, where: str) -> tuple:
    """parse_gaussian(str(value)) once per bundle, kept in `parsed`; errors name where."""
    if (text := str(value)) not in parsed:
        parsed[text] = _build(where, parse_gaussian, text)
    return parsed[text]


def _matrix(rows, where: str, parsed: dict) -> Matrix:
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and r and len(r) == len(rows[0]) for r in rows)):
        raise BundleError(f"{where}: matrix must be a list of equal-length nonempty rows")
    # every literal is parsed, and only the nonzero ones are summed
    return Matrix._make(len(rows), len(rows[0]), *accumulate(
        [((i, j), 1, v) for i, r in enumerate(rows) for j, text in enumerate(r)
         if (v := _literal(parsed, text, where))[0] or v[1]]))


def _dim(value, where: str) -> int:
    if type(value) is not int or not 1 <= value <= MAX_DIM:
        raise BundleError(f"{where}: need an integer dimension from 1 to {MAX_DIM}, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise BundleError(f"{where} must be a list, got {type(value).__name__}")
    return value


def _parse_algebra(name: str, rec: dict, parsed: dict):
    kind = rec.get("kind")
    if kind not in ("lie", "prelie"):
        raise BundleError(f"algebra {name!r}: need kind lie|prelie")
    dim = _dim(rec.get("dim"), f"algebra {name!r}")
    constants = _list(rec.get("constants", []), f"algebra {name!r}: constants")
    records = []
    for rec_ijk in constants:
        if not isinstance(rec_ijk, dict) or any(type(rec_ijk.get(t)) is not int for t in "ijk"):
            raise BundleError(f"algebra {name!r}: bad constant record {rec_ijk!r}")
        i, j, k = rec_ijk["i"], rec_ijk["j"], rec_ijk["k"]
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise BundleError(f"algebra {name!r}: index out of range in {rec_ijk!r}")
        records.append((i, j, k, rec_ijk.get("coeff", "1")))
    records = [(i, j, k, _literal(parsed, co, f"algebra {name!r}")) for i, j, k, co in records]
    cls = LieAlgebra if kind == "lie" else PreLieAlgebra
    return _build(f"algebra {name!r}", cls.from_constants, dim, records)


def _parse_rep(name: str, rec: dict, algebras: dict, parsed: dict) -> Representation:
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
    mats = tuple(_matrix(m, f"rep {name!r}", parsed) for m in mats)
    return _build(f"rep {name!r}", Representation, g, mdim, mats)


def _parse_map(name: str, rec: dict, parsed: dict) -> LinMap:
    dom, cod = rec.get("domain"), rec.get("codomain")
    if dom not in (ALGEBRA, MODULE) or cod not in (ALGEBRA, MODULE):
        raise BundleError(f"map {name!r}: domain/codomain must be 'algebra' or 'module'")
    return LinMap(_matrix(rec.get("matrix", []), f"map {name!r}", parsed), dom, cod)


def _parse_form(name: str, rec: dict, algebras: dict, parsed: dict) -> tuple[BilForm, str]:
    alg_name = rec.get("algebra")
    g = _lookup(algebras, alg_name, "algebra")
    symmetry = rec.get("symmetry")
    if symmetry not in (SKEW, SYMMETRIC):
        raise BundleError(f"form {name!r}: symmetry must be 'skew' or 'symmetric'")
    n, terms = g.dim, []
    for t in _list(rec.get("terms", []), f"form {name!r}: terms"):
        if not isinstance(t, dict):
            raise BundleError(f"form {name!r}: term records must be objects, got {t!r}")
        m = _TERM_RE.fullmatch(str(t.get("term", "")).replace(" ", ""))
        if m is None:
            raise BundleError(f"form {name!r}: malformed term {t.get('term')!r}")
        i, op, j = int(m.group(1)), m.group(2), int(m.group(3))
        if not (1 <= i <= n and 1 <= j <= n):
            raise BundleError(f"form {name!r}: index out of range in {t.get('term')!r}")
        terms.append(("wedge" if op == "∧" else "tensor", i, j, t.get("coeff", "1")))
    terms = [(*t, _literal(parsed, co, f"form {name!r}")) for *t, co in terms]
    return _build(f"form {name!r}", BilForm.from_terms, n, terms, symmetry), alg_name


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
        r_alg = bundle.raw["reps"][rep_name]["algebra"]
        if r_alg != alg_name:
            raise BundleError(f"triple {name!r}: rep {rep_name!r} is over {r_alg!r}, "
                              f"not {alg_name!r}")
        for m in members:
            bundle.map(m)
    else:
        for m in members:
            bundle.form(m)
            _build(f"triple {name!r}", bundle.form_over, m, alg_name)
    return TripleRef(kind, alg_name, tuple(members), rep_name)


def parse_bundle(doc: dict) -> Bundle:
    if not isinstance(doc, dict):
        raise BundleError("bundle document must be a JSON object")
    if doc.get("field", "gaussian_rational") != "gaussian_rational":
        raise BundleError(f"unsupported field {doc.get('field')!r}")
    b, parsed = Bundle(raw=doc), {}
    for name, rec in _records(doc, "algebras"):
        b.algebras[name] = _parse_algebra(name, rec, parsed)
    for name, rec in _records(doc, "reps"):
        b.reps[name] = _parse_rep(name, rec, b.algebras, parsed)
    for name, rec in _records(doc, "maps"):
        b.maps[name] = _parse_map(name, rec, parsed)
    for name, rec in _records(doc, "forms"):
        b.forms[name], b.form_algebra[name] = _parse_form(name, rec, b.algebras, parsed)
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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past the interpreter's limit
        raise BundleError(f"bundle {path!r} is not valid JSON: {exc}") from exc
    return parse_bundle(doc)


def classify_triple(bundle: Bundle, name: str):
    """Resolve and classify a named triple: a map triple against its rep, a
    form triple as hyper symplectic (Lie algebra) or hyper Hessian (pre-Lie
    algebra)."""
    ref = bundle.triple(name)
    if ref.kind == "maps":
        return classify_hyper(bundle.rep(ref.rep), *(bundle.map(m) for m in ref.members))
    g = bundle.algebra(ref.algebra)
    forms = [bundle.form(m) for m in ref.members]
    if isinstance(g, LieAlgebra):
        return classify_hyper_symplectic(g, *forms)
    return classify_hyper_hessian(g, *forms)
