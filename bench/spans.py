"""Span recorder for the traced run.

The tracer wraps hyperops from outside: each public function of a layer is
replaced, in every hyperops module that holds a reference to it (``hyper``,
``geometry``, ``cli`` and others use ``from .operators import ...``), by a
wrapper that records a span; arithmetic methods of ``Scalar``, ``Matrix`` and
``Poly`` are wrapped on their classes. Scalar and polynomial operations are
too small and too many for a span each, so they are counted only.

A span is (name, start, end, parent index, job id). Spans stay in memory and
are written out when the run ends. Self time is a span's duration minus the
part its child spans cover; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter, defaultdict

# span name -> [(module, attribute path)]
SPANS = {
    "algebra.bracket": [("algebra", "LieAlgebra.bracket"), ("algebra", "LieAlgebra.basis_bracket")],
    "algebra.product": [("algebra", "PreLieAlgebra.product"),
                        ("algebra", "PreLieAlgebra.basis_product")],
    "algebra.act": [("algebra", "Representation.act")],
    "algebra.check": [("algebra", "check_lie"), ("algebra", "check_prelie"),
                      ("algebra", "Representation.check")],
    "linalg.matmul": [("linalg", "Matrix.__mul__")],
    "linalg.elim": [("linalg", "Matrix._rref"), ("linalg", "Matrix.det")],
    "linalg.solve_affine": [("linalg", "solve_affine")],
    "linalg.generic_det": [("linalg", "generic_determinant")],
    "hyper.classify": [("hyper", "classify_hyper")],
    "hyper.suites": [("hyper", "verify_hflat_identities"), ("hyper", "verify_composition_table"),
                     ("hyper", "product_one_suite"), ("hyper", "derived_structures_report")],
    "hyper.decompose": [("hyper", "decompose_hyper"), ("hyper", "reconstruct_hyper")],
    "geometry.form_checks": [("geometry", "is_symplectic"), ("geometry", "is_hessian"),
                             ("geometry", "is_invariant_form"),
                             ("geometry", "check_hermitian_variant")],
    "geometry.kahler": [("geometry", "check_kahler_quad")],
    "geometry.classify": [("geometry", "classify_hyper_symplectic"),
                          ("geometry", "classify_hyper_hessian")],
    "search.solve_forms": [("search", "solve_forms")],
    "search.contains": [("search", "FormSpaceResult.contains")],
    "bundle.parse": [("bundle", "load_bundle"), ("bundle", "parse_bundle")],
    "bundle.classify_triple": [("bundle", "classify_triple")],
    "reporting.to_json": [("reporting", "Report.to_json")],
    "corpus.run_example": [("corpus", "run_example")],
    "corpus.load": [("corpus", "load_example"), ("corpus", "list_examples")],
    "cli.main": [("cli", "main")],
    "cli.run": [("cli", "run")],
}

# operator functions get a span of their own name; the predicates among them
# (those returning a Report) also record their arguments
PREDICATES = ("is_rdo", "is_o_operator", "is_nijenhuis", "is_dual_nijenhuis_pair",
              "brackets_coincide", "is_dn", "is_kd", "is_kn", "are_compatible")
OPERATORS = PREDICATES + ("deformed_bracket", "deformed_representation", "bracket_T",
                          "dn_powers", "kn_hierarchy", "inner_rdo", "nijenhuis_square_sign")
for _fn in OPERATORS:
    SPANS[f"operators.{_fn}"] = [("operators", _fn)]

# counter name -> [(module, attribute path)]
COUNTS = {
    "scalars.ops": [("scalars", f"Scalar.{m}") for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
        "__truediv__", "__rtruediv__", "__pow__", "conj")],
    "scalars.inv": [("scalars", "Scalar.inv")],
    "scalars.parse": [("scalars", "parse_scalar")],
    "scalars.render": [("scalars", "Scalar.render")],
    "linalg.poly.ops": [("linalg", f"Poly.{m}") for m in ("__add__", "__sub__", "__neg__", "__mul__")],
}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent, job)
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.pred_args = []    # (span index, predicate, args key)
        self.det_terms = []    # (span index, number of terms)
        self.missing = []      # wrap targets not found in the program
        self._undo = []
        self._originals = []
        self._own = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            if on_call is not None:
                on_call(idx, args, kwargs)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            if on_result is not None:
                on_result(idx, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _predicate_hook(self, pred):
        def hook(idx, args, kwargs):
            self.pred_args.append((idx, pred, (args, tuple(sorted(kwargs.items())))))
        return hook

    def _det_hook(self, idx, args, kwargs, result):
        self.det_terms.append((idx, len(result.terms)))

    # -- installing --------------------------------------------------------
    def install(self, package: str = "hyperops") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for name, targets in table.items():
                for mod_name, path in targets:
                    mod = sys.modules.get(f"{package}.{mod_name}")
                    owner_name, _, attr = path.rpartition(".")
                    owner = getattr(mod, owner_name, None) if owner_name else mod
                    fn = owner.__dict__.get(attr) if owner is not None else None
                    if fn is None:
                        self.missing.append(f"{mod_name}.{path}")
                        continue
                    if kind == "count":
                        w = self._counter(name, fn)
                    elif name.startswith("operators.") and attr in PREDICATES:
                        w = self._span(name, fn, on_call=self._predicate_hook(attr))
                    elif name == "linalg.generic_det":
                        w = self._span(name, fn, on_result=self._det_hook)
                    else:
                        w = self._span(name, fn)
                    self._originals.append(fn)
                    self._own.append(w)
                    if owner_name:  # a method: patch it on its class
                        self._patch(owner, attr, fn, w)
                    else:  # a function: patch every module that imported it
                        for m in modules:
                            for key, val in list(vars(m).items()):
                                if val is fn:
                                    self._patch(m, key, fn, w)

    def _patch(self, owner, attr, fn, w):
        setattr(owner, attr, w)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def unwrapped_refs(self) -> list:
        """Objects outside the tracer that still reference an unwrapped original,
        such as a dispatch table; calls through them would go unrecorded."""
        gc.collect()
        mine = {id(self._originals), id(self._own), id(self._undo)}
        mine.update(id(c) for w in self._own for c in (w.__closure__ or ()))
        mine.update(id(t) for t in self._undo)
        found = []
        for ref in gc.get_referrers(*self._originals):
            if id(ref) in mine or type(ref).__name__ == "frame":
                continue
            found.append(f"{type(ref).__name__} {str(ref)[:80]}")
        return found

    # -- jobs and passes -----------------------------------------------------
    def mark(self) -> tuple:
        return len(self.spans), len(self.pred_args), len(self.det_terms), Counter(self.counts)

    def reduce(self, since: tuple) -> dict:
        """Per-name calls and self time, predicate repeats and counts, over the
        spans recorded since `since` (a value of mark())."""
        s0, p0, d0, c0 = since
        spans = self.spans
        child = defaultdict(float)
        for k in range(s0, len(spans)):
            name, t0, t1, parent, _ = spans[k]
            if parent >= s0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), defaultdict(float)
        for k in range(s0, len(spans)):
            name, t0, t1, _, _ = spans[k]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[k]
        # distinct (predicate, arguments) within each job
        distinct = set()
        for idx, pred, key in self.pred_args[p0:]:
            distinct.add((spans[idx][4], pred, _hashable(key)))
        counts = Counter(self.counts)
        counts.subtract(c0)
        return {
            "calls": calls,
            "self_s": self_s,
            "pred_calls": len(self.pred_args) - p0,
            "pred_distinct": len(distinct),
            "det_terms": sum(n for _, n in self.det_terms[d0:]),
            "counts": counts,
        }

    def job_calls(self, job) -> Counter:
        return Counter(s[0] for s in self.spans if s[4] == job)

    def write(self, path: str) -> None:
        """One span a line; the job column is <pass>:<request>."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, t0, t1, parent, (pass_no, key) in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{pass_no}:{key}\n")


def _hashable(key):
    try:
        hash(key)
        return key
    except TypeError:
        return repr(key)
