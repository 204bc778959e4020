"""Command-line front end: a thin table over the library.

`_CHECKS` maps each `check --what` kind to one slot word per argument and the
library call; `_resolve` looks up every bundle name a request gives and checks
it against its `_SLOTS` word before any check runs.  `_SUITES` maps each `suite
--which` name to its suite, `_COMMANDS` lists the subcommands.  `run` builds
one parser on its first request and reuses it for every later request.

Exit codes: 0 = all checks passed, 1 = a check failed, 2 = input/parse error,
3 = a stated precondition failed.  JSON is the canonical report format, written
by `_json` byte for byte as ``json.dumps(indent=2, sort_keys=True)`` writes it;
text output is a rendering of it.  Set HYPEROPS_COLOR=1 to colorize text output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from .algebra import LieAlgebra, PreLieAlgebra, check_lie, check_prelie
from .bundle import classify_triple, load_bundle
from .corpus import list_examples, run_example
from .geometry import (
    _VARIANTS,
    check_hermitian_variant,
    is_hessian,
    is_invariant_form,
    is_symplectic,
    kahler_suite,
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
from .operators import (
    ALGEBRA, DUAL_S, MODULE, NIJENHUIS, O_OPERATOR, RDO, is_dn, is_kd, is_kn, is_nijenhuis,
    is_o_operator, is_rdo, memo_scope)
from .reporting import PreconditionError, Report
from .search import _TARGETS, solve_forms

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class InputError(ValueError):
    """Bad command-line input (wrong names, wrong arity); maps to exit 2."""


def _maps_json(**maps) -> dict:
    """Each map's matrix as rows of rendered entries, each distinct one rendered once."""
    out = {}
    for key, f in maps.items():
        m, rendered = f.matrix, {}
        rows = out[key] = [["0"] * m.cols for _ in range(m.rows)]
        for i, j, a, b in m.nonzeros():
            if (a, b) not in rendered:
                rendered[a, b] = m[i, j].render()
            rows[i][j] = rendered[a, b]
    return out


# slot word: (the Bundle lookup of its name, the algebra class or map type
# (domain, codomain, what) its value must have, or None for any).  `map` is
# lenient: a Hermitian check reads its map as an endomorphism of the algebra,
# whatever its tags; `hflat` has the type of the d_i = hflat∘I_i, `i` of an I_i.
_SLOTS = {"lie": ("algebra", LieAlgebra), "prelie": ("algebra", PreLieAlgebra),
          "algebra": ("algebra", None), "rep": ("rep", None), "form": ("form", None),
          "map": ("map", None), "d": ("map", RDO), "t": ("map", O_OPERATOR),
          "n": ("map", NIJENHUIS), "s": ("map", DUAL_S), "hflat": ("map", (ALGEBRA, MODULE, "hflat")),
          "i": ("map", (ALGEBRA, ALGEBRA, "(para-)complex structure"))}


def _resolve(bundle, words: str, names):
    """The bundle's value of each name, looked up and checked as its slot word
    says; a form must be declared over the first name, the algebra argument."""
    for word, name in zip(words.split(), names):
        lookup, need = _SLOTS[word]
        value = (bundle.form_over(name, names[0]) if lookup == "form"
                 else getattr(bundle, lookup)(name))
        if lookup == "algebra" and need and not isinstance(value, need):
            raise InputError(f"{name!r} is not a {'Lie' if word == 'lie' else 'pre-Lie'} algebra")
        yield value.check_tags(*need) if lookup == "map" and need else value


# kind: (one _SLOTS word per --args name, check(*their values)).  The checks
# call library functions by module name inside lambdas, so that a wrapper
# installed on the module attribute sees every call.
_CHECKS = {
    "lie": ("lie", lambda g: check_lie(g)),
    "prelie": ("prelie", lambda g: check_prelie(g)),
    "rep": ("rep", lambda r: r.check()),
    "rdo": ("rep d", lambda r, d: is_rdo(r, d)),
    "o-operator": ("rep t", lambda r, t: is_o_operator(r, t)),
    "nijenhuis": ("lie n", lambda g, n: is_nijenhuis(g, n)),
    "dn": ("rep d n", lambda r, d, n: is_dn(r, d, n)),
    "kd": ("rep t d", lambda r, t, d: is_kd(r, t, d)),
    "kn": ("rep t s n", lambda r, t, s, n: is_kn(r, t, s, n)),
    "symplectic": ("lie form", lambda g, f: is_symplectic(g, f)),
    "hessian": ("prelie form", lambda g, f: is_hessian(g, f)),
    **{f"hermitian:{v}": ("lie form map", lambda g, f, m, v=v: check_hermitian_variant(g, f, m, v))
       for v in _VARIANTS},
    "invariant-form": ("algebra form", lambda g, f: is_invariant_form(g, f)),
}


def _reported(report: Report) -> tuple[int, dict]:
    return (EXIT_PASS if report.passed else EXIT_FAIL), {"report": report.to_json()}


def _cmd_check(ns) -> tuple[int, dict]:
    bundle = load_bundle(ns.bundle)
    if ns.what not in _CHECKS:
        if ns.what.startswith("hermitian:"):
            raise InputError(f"unknown hermitian variant {ns.what.split(':', 1)[1]!r} "
                             f"(have: {sorted(_VARIANTS)})")
        raise InputError(f"unknown check {ns.what!r}")
    usage, check = _CHECKS[ns.what]
    n = len(usage.split())
    if len(ns.args) != n:
        raise InputError(f"expected {n} --args ({usage}), got {len(ns.args)}")
    return _reported(check(*_resolve(bundle, usage, ns.args)))


def _cmd_classify(ns) -> tuple[int, dict]:
    triple = classify_triple(load_bundle(ns.bundle), ns.triple)
    return EXIT_PASS, {"eps": list(triple.eps), "eps_product": triple.eps_product}


def _kahler(bundle, name: str) -> Report:
    ref = bundle.triple(name)
    if ref.kind == "maps":
        raise InputError("the kahler suite needs a form triple, not a map triple")
    return kahler_suite(bundle.algebra(ref.algebra), classify_triple(bundle, name))


# name: suite(bundle, triple name)
_SUITES = {
    "hflat": lambda b, t: verify_hflat_identities(classify_triple(b, t)),
    "table": lambda b, t: verify_composition_table(classify_triple(b, t)),
    "derived": lambda b, t: derived_structures_report(classify_triple(b, t)),
    "product-one": lambda b, t: product_one_suite(classify_triple(b, t)),
    "kahler": _kahler,
}


def _cmd_suite(ns) -> tuple[int, dict]:
    return _reported(_SUITES[ns.which](load_bundle(ns.bundle), ns.triple))


def _cmd_decompose(ns) -> tuple[int, dict]:
    triple = classify_triple(load_bundle(ns.bundle), ns.triple)
    dec = decompose_hyper(triple)
    return EXIT_PASS, {
        "eps": list(triple.eps),
        "permutation": [p + 1 for p in dec.permutation],
        **_maps_json(hflat=dec.hflat, I1=dec.i1, I2=dec.i2, I3=dec.i3),
    }


def _cmd_reconstruct(ns) -> tuple[int, dict]:
    triple = reconstruct_hyper(*_resolve(load_bundle(ns.bundle), "rep hflat i i",
                                         (ns.rep, ns.hflat, ns.i1, ns.i2)))
    d1, d2, d3 = triple.d
    return EXIT_PASS, {"eps": list(triple.eps), **_maps_json(d1=d1, d2=d2, d3=d3)}


def _cmd_search_forms(ns) -> tuple[int, dict]:
    kind = "lie" if _TARGETS[ns.target].algebra is LieAlgebra else "prelie"
    result = solve_forms(*_resolve(load_bundle(ns.bundle), kind, (ns.algebra,)), ns.target)
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
    for example_id in ids:
        try:
            reports[example_id] = run_example(example_id).to_json()
        except KeyError as exc:
            raise InputError(str(exc)) from exc
    ok = all(r["pass"] for r in reports.values())
    return (EXIT_PASS if ok else EXIT_FAIL), {"runs": reports}


_TRIPLE = ("--triple", {"required": True})

# command: (help, handler, arguments after the bundle); corpus reads no bundle
_COMMANDS = {
    "check": ("run a single named check from a bundle", _cmd_check, (
        ("--what", {"required": True}),
        ("--args", {"nargs": "*", "default": ()}))),
    "classify-hyper": ("classify a triple and print its signature", _cmd_classify, (_TRIPLE,)),
    "suite": ("run an identity suite on a classified triple", _cmd_suite, (
        _TRIPLE,
        ("--which", {"required": True, "choices": _SUITES}))),
    "decompose": ("split a signature-product -1 triple into hflat and I1, I2, I3",
                  _cmd_decompose, (_TRIPLE,)),
    "reconstruct": ("rebuild a triple from hflat and two anticommuting structures",
                    _cmd_reconstruct,
                    tuple((flag, {"required": True})
                          for flag in ("--rep", "--hflat", "--i1", "--i2"))),
    "search-forms": ("solve for all forms of a kind on an algebra", _cmd_search_forms, (
        ("--algebra", {"required": True}),
        ("--target", {"required": True, "choices": _TARGETS}))),
    "corpus": ("list or re-run the built-in examples", _cmd_corpus, (
        ("action", {"choices": ("list", "run")}),
        ("id", {"nargs": "?"}))),
}


class _Parser(argparse.ArgumentParser):
    """Raises InputError with argparse's reason instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _format_of(argv: list[str]) -> str:
    """The --format of a request that failed to parse: json if it asks for json."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--format", nargs="?")
    return "json" if parser.parse_known_args(argv)[0].format == "json" else "text"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperops",
        description="Exact checks for differential-operator structures on Lie "
                    "and pre-Lie algebras.",
    )
    # --format before or after the command; unset, it is text (see run), and
    # a command's default would overwrite the one given before it
    fmt = {"choices": ("text", "json"), "default": argparse.SUPPRESS}
    parser.add_argument("--format", **fmt)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name != "corpus":
            p.add_argument("bundle")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--format", **fmt)
        p.set_defaults(fn=fn)
    return parser


_parser = functools.cache(build_parser)

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


def run(argv: list[str]) -> tuple[int, dict | None]:
    """Parse and execute; returns (exit code, JSON-ready payload).  After
    --help, which argparse prints itself, the payload is None."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit:  # --help
        return EXIT_PASS, None
    except InputError as exc:
        return EXIT_PARSE, {"status": _STATUS[EXIT_PARSE], "exit": EXIT_PARSE,
                            "error": str(exc), "format": _format_of(argv)}
    payload: dict = {"command": ns.command}
    try:
        with memo_scope():  # each operator fact is proved once per request
            code, extra = ns.fn(ns)
        payload.update(extra)
    except ValueError as exc:
        code = (EXIT_PRECONDITION if isinstance(exc, PreconditionError)
                else EXIT_FAIL if isinstance(exc, ClassificationError) else EXIT_PARSE)
        payload["error"] = str(exc)
        if code == EXIT_PRECONDITION and exc.report is not None:
            payload["report"] = exc.report.to_json()
    payload["status"] = _STATUS[code]
    payload["exit"] = code
    payload["format"] = getattr(ns, "format", "text")
    return code, payload


def _json(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True) for what a payload holds: dicts
    with str keys, lists, str, int, bool and None; anything else is a TypeError."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    inner = indent + "  "
    if type(x) is list:
        items, ends = [_json(v, inner) for v in x], "[]"
    elif type(x) is dict:  # encode_basestring_ascii takes only a str key
        items = [f"{encode_basestring_ascii(k)}: {_json(x[k], inner)}" for k in sorted(x)]
        ends = "{}"
    else:
        raise TypeError(f"cannot write {type(x).__name__} {x!r} as JSON")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{indent}{ends[1]}" if items else ends


def main(argv: list[str] | None = None) -> int:
    code, payload = run(sys.argv[1:] if argv is None else argv)
    if payload is None:
        return code
    fmt = payload.pop("format", "text")
    if fmt == "json":
        print(_json(payload))
    else:
        print(_render_text(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
