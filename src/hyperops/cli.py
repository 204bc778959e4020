"""Command-line front end.

Exit codes: 0 = all checks passed, 1 = a check failed, 2 = input/parse error,
3 = a stated precondition failed.  JSON is the canonical report format; text
output is a rendering of it.  Set HYPEROPS_COLOR=1 to colorize text output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import LieAlgebra, PreLieAlgebra, check_lie, check_prelie
from .bundle import BundleError, classify_triple, load_bundle, triple_flavor
from .corpus import list_examples, load_example, run_example
from .geometry import (
    _VARIANTS,
    HYPER_ANTI_KAHLER,
    HYPER_KAHLER,
    PARA_HYPER_ANTI_KAHLER,
    PARA_HYPER_KAHLER,
    SKEW,
    SYMMETRIC,
    BilForm,
    KahlerQuad,
    check_hermitian_variant,
    check_kahler_quad,
    is_hessian,
    is_invariant_form,
    is_symplectic,
)
from .hyper import (
    ClassificationError,
    decompose_hyper,
    derived_structures_report,
    product_one_suite,
    reconstruct_hyper,
    verify_composition_table,
    verify_hflat_identities,
)
from .linalg import DimensionError
from .operators import is_dn, is_kd, is_kn, is_nijenhuis, is_o_operator, is_rdo
from .reporting import PreconditionError, Report
from .scalars import ScalarParseError
from .search import solve_forms

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class InputError(ValueError):
    """Bad command-line input (wrong names, wrong arity); maps to exit 2."""


def _matrix_json(m):
    return [[m[i, j].render() for j in range(m.cols)] for i in range(m.rows)]


def _need_args(args, n, usage):
    if len(args) != n:
        raise InputError(f"expected {n} --args ({usage}), got {len(args)}")
    return args


def _algebra(bundle, name: str, kind: type):
    """The bundle's algebra `name`, which must be a Lie or pre-Lie algebra as
    `kind` says."""
    g = bundle.algebra(name)
    if not isinstance(g, kind):
        raise InputError(f"{name!r} is not a {'Lie' if kind is LieAlgebra else 'pre-Lie'} algebra")
    return g


def _check_dispatch(bundle, what: str, args: list[str]) -> Report:
    if what == "lie":
        (a,) = _need_args(args, 1, "algebra")
        return check_lie(_algebra(bundle, a, LieAlgebra))
    if what == "prelie":
        (a,) = _need_args(args, 1, "algebra")
        return check_prelie(_algebra(bundle, a, PreLieAlgebra))
    if what == "rep":
        (r,) = _need_args(args, 1, "rep")
        return bundle.rep(r).check()
    if what == "rdo":
        r, m = _need_args(args, 2, "rep map")
        return is_rdo(bundle.context(r), bundle.map(m))
    if what == "o-operator":
        r, m = _need_args(args, 2, "rep map")
        return is_o_operator(bundle.context(r), bundle.map(m))
    if what == "nijenhuis":
        a, m = _need_args(args, 2, "algebra map")
        return is_nijenhuis(_algebra(bundle, a, LieAlgebra), bundle.map(m))
    if what == "dn":
        r, d, n = _need_args(args, 3, "rep d n")
        return is_dn(bundle.context(r), bundle.map(d), bundle.map(n))
    if what == "kd":
        r, t, d = _need_args(args, 3, "rep t d")
        return is_kd(bundle.context(r), bundle.map(t), bundle.map(d))
    if what == "kn":
        r, t, s, n = _need_args(args, 4, "rep t s n")
        return is_kn(bundle.context(r), bundle.map(t), bundle.map(s), bundle.map(n))
    if what == "symplectic":
        a, f = _need_args(args, 2, "algebra form")
        return is_symplectic(_algebra(bundle, a, LieAlgebra), bundle.form(f))
    if what == "hessian":
        a, f = _need_args(args, 2, "algebra form")
        return is_hessian(_algebra(bundle, a, PreLieAlgebra), bundle.form(f))
    if what.startswith("hermitian:"):
        variant = what.split(":", 1)[1]
        if variant not in _VARIANTS:
            raise InputError(f"unknown hermitian variant {variant!r} "
                             f"(have: {sorted(_VARIANTS)})")
        a, f, m = _need_args(args, 3, "algebra form map")
        return check_hermitian_variant(_algebra(bundle, a, LieAlgebra), bundle.form(f),
                                       bundle.map(m), variant)
    if what == "invariant-form":
        a, f = _need_args(args, 2, "algebra form")
        return is_invariant_form(bundle.algebra(a), bundle.form(f))
    raise InputError(f"unknown check {what!r}")


def _cmd_check(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    report = _check_dispatch(bundle, ns.what, ns.args)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, {"report": report.to_json()}


def _cmd_classify(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    triple = classify_triple(bundle, ns.triple, ns.flavor)
    return EXIT_PASS, {"eps": list(triple.eps), "eps_product": triple.eps_product}


_SUITES = ("hflat", "table", "derived", "product-one", "kahler")

_KAHLER_VARIANT = {
    # (flavor, eps) -> quad variant
    ("symplectic", (-1, -1, -1)): HYPER_KAHLER,
    ("symplectic", (1, 1, -1)): PARA_HYPER_KAHLER,
    ("hessian", (-1, -1, -1)): HYPER_ANTI_KAHLER,
    ("hessian", (1, 1, -1)): PARA_HYPER_ANTI_KAHLER,
}


def _kahler_suite(bundle, name: str) -> Report:
    ref = bundle.triple(name)
    flavor = triple_flavor(bundle, ref)
    if flavor == "rdo":
        raise InputError("the kahler suite needs a form triple, not a map triple")
    triple = classify_triple(bundle, name)
    dec = decompose_hyper(triple)
    variant = _KAHLER_VARIANT.get((flavor, triple.eps))
    if variant is None:
        raise PreconditionError(f"no quad variant for eps={triple.eps}")
    # the quad's base form has the opposite symmetry from the induced forms:
    # a symmetric pseudo-metric induces the skew forms, a skew form the
    # symmetric ones
    symmetry = SYMMETRIC if flavor == "symplectic" else SKEW
    form = BilForm(dec.hflat.matrix.transpose(), symmetry)
    quad = KahlerQuad(form, dec.i1, dec.i2, dec.i3, variant)
    g = bundle.algebra(ref.algebra)
    rep = check_kahler_quad(g, quad)
    rebuilt = reconstruct_hyper(triple.ctx, dec.hflat, dec.i1, dec.i2)
    perm = dec.permutation
    same = all(rebuilt.d[k].matrix == triple.d[perm[k]].matrix for k in range(3))
    rep.record("round-trip rebuilds the triple", (), same)
    return rep


def _cmd_suite(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    if ns.which == "kahler":
        report = _kahler_suite(bundle, ns.triple)
    else:
        triple = classify_triple(bundle, ns.triple)
        fn = {"hflat": verify_hflat_identities,
              "table": verify_composition_table,
              "derived": derived_structures_report,
              "product-one": product_one_suite}[ns.which]
        report = fn(triple)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, {"report": report.to_json()}


def _cmd_decompose(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    triple = classify_triple(bundle, ns.triple)
    dec = decompose_hyper(triple)
    return EXIT_PASS, {
        "eps": list(triple.eps),
        "permutation": [p + 1 for p in dec.permutation],
        "hflat": _matrix_json(dec.hflat.matrix),
        "I1": _matrix_json(dec.i1.matrix),
        "I2": _matrix_json(dec.i2.matrix),
        "I3": _matrix_json(dec.i3.matrix),
    }


def _cmd_reconstruct(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    ctx = bundle.context(ns.rep)
    triple = reconstruct_hyper(ctx, bundle.map(ns.hflat),
                               bundle.map(ns.i1), bundle.map(ns.i2))
    return EXIT_PASS, {
        "eps": list(triple.eps),
        "d1": _matrix_json(triple.d[0].matrix),
        "d2": _matrix_json(triple.d[1].matrix),
        "d3": _matrix_json(triple.d[2].matrix),
    }


def _cmd_search_forms(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    g = bundle.algebra(ns.algebra)
    try:
        result = solve_forms(g, ns.target)
    except TypeError as exc:
        raise InputError(str(exc)) from exc
    return EXIT_PASS, {
        "target": ns.target,
        "space_dim": result.dim,
        "coordinates": [[i + 1, j + 1] for (i, j) in result.coords],
        "generic_det_nonzero": result.exists_nondegenerate,
        "exists_nondegenerate": result.exists_nondegenerate,
    }


def _cmd_corpus(ns) -> tuple[int, dict]:
    if ns.action == "list":
        return EXIT_PASS, {"entries": [
            {"id": i, "kind": k, "description": d} for (i, k, d) in list_examples()
        ]}
    ids = [ns.id] if ns.id else [i for (i, _, _) in list_examples()]
    reports = {}
    ok = True
    for example_id in ids:
        try:
            load_example(example_id)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
        rep = run_example(example_id)
        reports[example_id] = rep.to_json()
        ok = ok and rep.passed
    return (EXIT_PASS if ok else EXIT_FAIL), {"runs": reports}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperops",
        description="Exact checks for differential-operator structures on Lie "
                    "and pre-Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run a single named check from a bundle")
    p.add_argument("bundle")
    p.add_argument("--what", required=True)
    p.add_argument("--args", nargs="*", default=[])
    add_format(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("classify-hyper", help="classify a triple and print its signature")
    p.add_argument("bundle")
    p.add_argument("--triple", required=True)
    p.add_argument("--flavor", choices=("rdo", "symplectic", "hessian"))
    add_format(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("suite", help="run an identity suite on a classified triple")
    p.add_argument("bundle")
    p.add_argument("--triple", required=True)
    p.add_argument("--which", required=True, choices=_SUITES)
    add_format(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("decompose",
                       help="split a signature-product -1 triple into hflat and I1, I2, I3")
    p.add_argument("bundle")
    p.add_argument("--triple", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("reconstruct",
                       help="rebuild a triple from hflat and two anticommuting structures")
    p.add_argument("bundle")
    p.add_argument("--rep", required=True)
    p.add_argument("--hflat", required=True)
    p.add_argument("--i1", required=True)
    p.add_argument("--i2", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("search-forms", help="solve for all forms of a kind on an algebra")
    p.add_argument("bundle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True,
                   choices=("symplectic", "hessian", "ad-invariant", "prelie-invariant"))
    add_format(p)
    p.set_defaults(fn=_cmd_search_forms)

    p = sub.add_parser("corpus", help="list or re-run the built-in examples")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("id", nargs="?")
    add_format(p)
    p.set_defaults(fn=_cmd_corpus)

    return parser


_STATUS = {
    EXIT_PASS: "pass",
    EXIT_FAIL: "fail",
    EXIT_PARSE: "input-error",
    EXIT_PRECONDITION: "precondition-error",
}


def _use_color() -> bool:
    return os.environ.get("HYPEROPS_COLOR", "").lower() not in ("", "0", "no", "off", "false")


def _colorize(text: str) -> str:
    if not _use_color():
        return text
    return (text.replace("PASS", "\x1b[32mPASS\x1b[0m")
                .replace("FAIL", "\x1b[31mFAIL\x1b[0m"))


def _render_text(payload: dict) -> str:
    lines = [f"status: {payload['status']}"]
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
    for key in ("eps", "eps_product", "permutation", "space_dim",
                "exists_nondegenerate", "target"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    for key in ("hflat", "I1", "I2", "I3", "d1", "d2", "d3"):
        if key in payload:
            rows = "; ".join(" ".join(r) for r in payload[key])
            lines.append(f"{key}: [{rows}]")
    if "entries" in payload:
        for e in payload["entries"]:
            lines.append(f"{e['id']:14s} {e['kind']:8s} {e['description']}")
    if "runs" in payload:
        for example_id, rep in payload["runs"].items():
            lines.append(f"-- {example_id}: {'PASS' if rep['pass'] else 'FAIL'}")
            lines.append(_report_text(rep))
    if "report" in payload:
        lines.append(_report_text(payload["report"]))
    return _colorize("\n".join(lines))


def _report_text(rep_json: dict) -> str:
    lines = [f"== {rep_json.get('title', '')}: {'PASS' if rep_json['pass'] else 'FAIL'} =="]
    for c in rep_json["claims"]:
        mark = "ok " if c["pass"] else "FAIL"
        idx = ",".join(str(i) for i in c["indices"])
        line = f"[{mark}] {c['claim']}" + (f" @ ({idx})" if idx else "")
        if "counterexample" in c:
            line += f"  counterexample basis {tuple(c['counterexample'])}"
        if c.get("detail"):
            line += f"  ({c['detail']})"
        lines.append(line)
    for n in rep_json.get("notes", []):
        lines.append(f"note: {n}")
    return "\n".join(lines)


def run(argv: list[str]) -> tuple[int, dict]:
    """Parse and execute; returns (exit code, JSON-ready payload)."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = EXIT_PASS if exc.code == 0 else EXIT_PARSE
        return code, {"status": _STATUS[code], "error": "argument parsing failed"}
    payload: dict = {"command": ns.command}
    try:
        code, extra = ns.fn(ns)
        payload.update(extra)
    except (BundleError, ScalarParseError, InputError, DimensionError,
            ValueError) as exc:
        if isinstance(exc, PreconditionError):
            code = EXIT_PRECONDITION
            payload["error"] = str(exc)
            if exc.report is not None:
                payload["report"] = exc.report.to_json()
        elif isinstance(exc, ClassificationError):
            code = EXIT_FAIL
            payload["error"] = str(exc)
        else:
            code = EXIT_PARSE
            payload["error"] = str(exc)
    payload["status"] = _STATUS[code]
    payload["exit"] = code
    payload["format"] = getattr(ns, "format", "text")
    return code, payload


def main(argv: list[str] | None = None) -> int:
    code, payload = run(sys.argv[1:] if argv is None else argv)
    fmt = payload.pop("format", "text")
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_render_text(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
