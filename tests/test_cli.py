"""Command-line interface: exit codes, output formats, and stability."""

import contextlib
import copy
import functools
import gc
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import hyperops
from hyperops import cli, operators
from hyperops.bundle import classify_triple, load_bundle
from hyperops.corpus import broken_variant, export_bundle, list_examples
from hyperops.geometry import _VARIANTS
from hyperops.search import _TARGETS


@pytest.fixture()
def bundles(tmp_path):
    paths = {}
    for name in ("lie.L4sym", "prelie.rot4", "prelie.B4", "abelian.quat",
                 "abelian.para", "lie.heis4"):
        p = tmp_path / (name + ".json")
        p.write_text(json.dumps(export_bundle(name)))
        paths[name] = str(p)
    for name in ("non-jacobi", "non-anticommuting"):
        p = tmp_path / (name + ".json")
        p.write_text(json.dumps(broken_variant(name)))
        paths[name] = str(p)
    p = tmp_path / "malformed.json"
    p.write_text("{not json")
    paths["malformed"] = str(p)
    return paths


def test_passing_checks_exit_zero(bundles):
    for argv in (
        ["check", bundles["lie.L4sym"], "--what", "lie", "--args", "g"],
        ["check", bundles["prelie.rot4"], "--what", "prelie", "--args", "g"],
        ["check", bundles["lie.L4sym"], "--what", "symplectic", "--args", "g", "w1"],
        ["check", bundles["prelie.rot4"], "--what", "hessian", "--args", "g", "B2"],
        ["check", bundles["lie.heis4"], "--what", "hermitian:anti-hermitian",
         "--args", "g", "w", "I"],
        ["classify-hyper", bundles["abelian.quat"], "--triple", "quat"],
        ["suite", bundles["lie.L4sym"], "--triple", "omega", "--which", "table"],
        ["suite", bundles["abelian.para"], "--triple", "para", "--which", "product-one"],
        ["suite", bundles["lie.L4sym"], "--triple", "omega", "--which", "kahler"],
        ["decompose", bundles["abelian.quat"], "--triple", "quat"],
        ["search-forms", bundles["prelie.B4"], "--algebra", "g", "--target", "hessian"],
        ["corpus", "list"],
        ["corpus", "run", "lie.L4sym"],
    ):
        code, payload = cli.run(argv)
        assert code == cli.EXIT_PASS, (argv, payload.get("error"))
        assert payload["status"] == "pass"


def test_failed_check_exits_one(bundles):
    code, payload = cli.run(
        ["check", bundles["non-jacobi"], "--what", "lie", "--args", "broken"])
    assert code == cli.EXIT_FAIL
    assert payload["status"] == "fail"
    claims = payload["report"]["claims"]
    assert any(c["claim"] == "jacobi" and not c["pass"] for c in claims)


def test_classification_failure_exits_one(bundles):
    # d maps of the quaternion triple against a third member whose induced
    # endomorphism does not square to a multiple of the identity
    doc = export_bundle("abelian.quat")
    dg = dict(doc["maps"]["mi"])
    dg["matrix"] = [["1", "0", "0", "0"], ["0", "2", "0", "0"],
                    ["0", "0", "3", "0"], ["0", "0", "0", "4"]]
    doc["maps"]["dg"] = dg
    doc["triples"]["bad"] = {"kind": "maps", "algebra": "a", "rep": "triv",
                             "members": ["mi", "mj", "dg"]}
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh)
    code, payload = cli.run(["classify-hyper", path, "--triple", "bad"])
    os.unlink(path)
    assert code == cli.EXIT_FAIL
    assert "error" in payload


def test_parse_errors_exit_two(bundles):
    cases = (
        ["check", bundles["malformed"], "--what", "lie", "--args", "g"],
        ["check", bundles["lie.L4sym"], "--what", "no-such-check", "--args", "g"],
        ["check", bundles["lie.L4sym"], "--what", "lie", "--args", "g", "extra"],
        ["check", bundles["lie.L4sym"], "--what", "lie", "--args", "missing"],
        ["search-forms", bundles["lie.L4sym"], "--algebra", "g", "--target", "hessian"],
        ["corpus", "run", "no.such.example"],
    )
    for argv in cases:
        code, payload = cli.run(argv)
        assert code == cli.EXIT_PARSE, (argv, payload)
        assert payload["status"] == "input-error"
    code, _ = cli.run(["suite", bundles["lie.L4sym"], "--which", "table"])
    assert code == cli.EXIT_PARSE  # missing --triple


MALFORMED_BUNDLES = {
    # name: (document, part of the error message)
    "algebra-not-object": ({"algebras": {"g": 5}}, "record must be an object"),
    "constants-not-list": ({"algebras": {"g": {"kind": "lie", "dim": 2, "constants": 7}}},
                           "constants must be a list"),
    "dim-too-large": ({"algebras": {"g": {"kind": "lie", "dim": 1000000, "constants": []}}},
                      "dimension from 1 to"),
    "coeff-trailing-newline": (
        {"algebras": {"g": {"kind": "lie", "dim": 2,
                            "constants": [{"i": 1, "j": 2, "k": 1, "coeff": "3i\n"}]}}},
        "algebra 'g': malformed scalar '3i\\n'"),
    "rep-matrix-wrong-size": (
        {"algebras": {"g": {"kind": "lie", "dim": 1, "constants": []}},
         "reps": {"r": {"algebra": "g", "module_dim": 2,
                        "matrices": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]}}},
        "rep 'r': representation matrix 3x3 on module of dim 2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_BUNDLES))
def test_malformed_bundles_exit_two(tmp_path, name):
    doc, message = MALFORMED_BUNDLES[name]
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(doc))
    code, payload = cli.run(["check", str(p), "--what", "lie", "--args", "g"])
    assert code == cli.EXIT_PARSE, payload
    assert payload["status"] == "input-error"
    assert message in payload["error"]


def test_non_utf8_bundle_exits_two_naming_the_file(tmp_path):
    """A file that is not UTF-8 is an input error that names the file, read
    the same under every locale."""
    p = tmp_path / "bundle.json"
    p.write_bytes(b"\xff\xfe{}")
    code, payload = cli.run(["check", str(p), "--what", "lie", "--args", "g"])
    assert code == cli.EXIT_PARSE, payload
    assert payload["status"] == "input-error"
    assert payload["error"].startswith(f"cannot read bundle {str(p)!r}: 'utf-8' codec")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no limit on integer strings")
@pytest.mark.parametrize("quote, message", [
    ('"', "algebra 'g': integer of more than {limit} digits"),
    ("", "is not valid JSON: "),
])
def test_overlong_integer_exits_two_naming_where(tmp_path, quote, message):
    """A coefficient string or a JSON number with more digits than the
    interpreter converts is an input error that names its place."""
    digits = "7" * (sys.get_int_max_str_digits() + 700)
    p = tmp_path / "bundle.json"
    p.write_text('{"algebras": {"g": {"kind": "lie", "dim": 2, "constants": '
                 f'[{{"i": 1, "j": 2, "k": 1, "coeff": {quote}{digits}{quote}}}]}}}}}}')
    code, payload = cli.run(["check", str(p), "--what", "lie", "--args", "g"])
    assert code == cli.EXIT_PARSE, payload
    assert payload["status"] == "input-error"
    assert message.format(limit=sys.get_int_max_str_digits()) in payload["error"]
    assert (str(p) in payload["error"]) == (quote == "")


def test_precondition_failures_exit_three(bundles):
    # product-one suite on a signature-product -1 triple
    code, payload = cli.run(
        ["suite", bundles["abelian.quat"], "--triple", "quat", "--which", "product-one"])
    assert code == cli.EXIT_PRECONDITION
    assert payload["status"] == "precondition-error"

    # reconstruction from equal (non-anticommuting) structures
    code, payload = cli.run(
        ["reconstruct", bundles["non-anticommuting"], "--rep", "triv",
         "--hflat", "hflat", "--i1", "i1", "--i2", "i2"])
    assert code == cli.EXIT_PRECONDITION
    assert "report" in payload

    # decomposition needs signature product -1
    code, payload = cli.run(
        ["decompose", bundles["abelian.para"], "--triple", "para"])
    assert code == cli.EXIT_PRECONDITION


def test_json_payloads_are_valid_and_byte_stable(bundles):
    argv = ["suite", bundles["prelie.rot4"], "--triple", "B", "--which", "derived",
            "--format", "json"]
    outs = []
    for _ in range(3):
        code, payload = cli.run(argv)
        assert code == cli.EXIT_PASS
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]
    decoded = json.loads(outs[0])
    assert decoded["report"]["pass"] is True


def test_classify_payload_shape(bundles):
    code, payload = cli.run(
        ["classify-hyper", bundles["prelie.rot4"], "--triple", "B"])
    assert code == 0
    assert payload["eps"] == [-1, -1, 1] and payload["eps_product"] == 1


def test_decompose_payload_shape(bundles):
    code, payload = cli.run(["decompose", bundles["lie.L4sym"], "--triple", "omega"])
    assert code == 0
    assert sorted(payload["permutation"]) == [1, 2, 3]
    assert len(payload["hflat"]) == 4 and len(payload["I1"][0]) == 4


# the child interpreter imports hyperops from the same source tree as the tests
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hyperops.__file__)))


def _env(**extra):
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": _SRC, **extra}


def test_entry_point_and_color(bundles):
    base = [sys.executable, "-m", "hyperops.cli", "corpus", "run", "abelian.para"]
    plain = subprocess.run(base, capture_output=True, text=True,
                           env=_env(HYPEROPS_COLOR="0"))
    assert plain.returncode == 0
    assert "\x1b[" not in plain.stdout and "PASS" in plain.stdout
    color = subprocess.run(base, capture_output=True, text=True,
                           env=_env(HYPEROPS_COLOR="1"))
    assert color.returncode == 0
    assert "\x1b[32mPASS\x1b[0m" in color.stdout


def test_entry_point_exit_codes(bundles):
    jq = subprocess.run(
        [sys.executable, "-m", "hyperops.cli", "check", bundles["non-jacobi"],
         "--what", "lie", "--args", "broken", "--format", "json"],
        capture_output=True, text=True, env=_env())
    assert jq.returncode == 1
    json.loads(jq.stdout)  # stdout is a single valid JSON document


# -- every check kind on every corpus algebra ---------------------------------

_CORPUS = {eid: export_bundle(eid) for eid, _, _ in list_examples()}
# argument slots of each --what kind: a = algebra, r = rep, m = map, f = form
_SLOTS = {"lie": "a", "prelie": "a", "rep": "r", "rdo": "rm", "o-operator": "rm",
          "nijenhuis": "am", "dn": "rmm", "kd": "rmm", "kn": "rmmm", "symplectic": "af",
          "hessian": "af", "invariant-form": "af",
          **{f"hermitian:{v}": "afm" for v in sorted(_VARIANTS)}}
# kinds that take only one kind of algebra
_NEEDS = {"lie": "lie", "nijenhuis": "lie", "symplectic": "lie", "prelie": "prelie",
          "hessian": "prelie", **{f"hermitian:{v}": "lie" for v in _VARIANTS}}


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = {}
    for eid, doc in _CORPUS.items():
        p = root / (eid + ".json")
        p.write_text(json.dumps(doc))
        paths[eid] = str(p)
    return paths


def _check_args(doc, algebra, what):
    """Names for the kind's argument slots: the algebra, then the first rep,
    map and form of the bundle (preferring those on the algebra), or a name
    the bundle lacks."""
    def first(section):
        names = sorted(doc.get(section, {}))
        own = [n for n in names if doc[section][n].get("algebra") == algebra]
        return (own or names or ["missing"])[0]
    names = {"a": algebra, "r": first("reps"), "m": first("maps"), "f": first("forms")}
    return [names[s] for s in _SLOTS[what]]


def _check_cases(wrong_only):
    cases = []
    for eid, doc in _CORPUS.items():
        for algebra, record in sorted(doc["algebras"].items()):
            for what in _SLOTS:
                wrong = _NEEDS.get(what, record["kind"]) != record["kind"]
                if wrong or not wrong_only:
                    prefix = "wrong-kind-" if wrong else ""
                    cases.append(pytest.param(eid, algebra, what,
                                              id=f"{prefix}{what}-{eid}:{algebra}"))
    return cases


def _run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)  # exactly one JSON document, nothing after it
    assert payload["exit"] == code
    return code, payload


@pytest.mark.parametrize("eid,algebra,what", _check_cases(wrong_only=False))
def test_every_check_kind_on_every_corpus_algebra(corpus_files, capsys, eid, algebra, what):
    args = _check_args(_CORPUS[eid], algebra, what)
    code, _ = _run_json(capsys, ["check", corpus_files[eid], "--what", what, "--args", *args])
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_PARSE, cli.EXIT_PRECONDITION)


@pytest.mark.parametrize("eid,algebra,what", _check_cases(wrong_only=True))
def test_check_on_wrong_algebra_kind_exits_two(corpus_files, capsys, eid, algebra, what):
    args = _check_args(_CORPUS[eid], algebra, what)
    code, payload = _run_json(capsys, ["check", corpus_files[eid], "--what", what,
                                       "--args", *args])
    assert code == cli.EXIT_PARSE
    assert payload["status"] == "input-error"
    kind = "a Lie algebra" if _NEEDS[what] == "lie" else "a pre-Lie algebra"
    assert payload["error"] == f"{algebra!r} is not {kind}"


def test_nijenhuis_check_rejects_a_map_into_the_module(corpus_files, capsys):
    """The CLI checks a Nijenhuis candidate's tags; the library predicate stays
    lenient, so a Hermitian check that reads the algebra -> module map mi
    as an endomorphism of its algebra still passes."""
    quat = corpus_files["abelian.quat"]
    code, payload = _run_json(capsys, ["check", quat, "--what", "nijenhuis", "--args", "a", "mi"])
    assert code == cli.EXIT_PARSE and payload["status"] == "input-error"
    assert payload["error"] == "Nijenhuis operator must map algebra -> algebra"
    code, _ = _run_json(capsys, ["check", quat, "--what", "hermitian:hermitian",
                                 "--args", "a", "B", "mi"])
    assert code == cli.EXIT_PASS


# -- the check table's messages ------------------------------------------------

# usage of each --what kind, one word per --args name
_USAGE = {"lie": "lie", "prelie": "prelie", "rep": "rep", "rdo": "rep d",
          "o-operator": "rep t", "nijenhuis": "lie n", "dn": "rep d n",
          "kd": "rep t d", "kn": "rep t s n", "symplectic": "lie form",
          "hessian": "prelie form", "invariant-form": "algebra form",
          **{f"hermitian:{v}": "lie form map" for v in _VARIANTS}}


def test_check_kinds_are_the_documented_ones():
    assert sorted(cli._CHECKS) == sorted(_USAGE) == sorted(_SLOTS)


@pytest.mark.parametrize("what", sorted(_USAGE))
def test_check_arity_message(bundles, what):
    usage = _USAGE[what]
    n = len(usage.split())
    code, payload = cli.run(["check", bundles["lie.L4sym"], "--what", what,
                             "--args", *["g"] * (n - 1)])
    assert code == cli.EXIT_PARSE
    assert payload["error"] == f"expected {n} --args ({usage}), got {n - 1}"


def test_unknown_check_messages(bundles):
    code, payload = cli.run(["check", bundles["lie.L4sym"], "--what", "no-such-check"])
    assert code == cli.EXIT_PARSE
    assert payload["error"] == "unknown check 'no-such-check'"
    code, payload = cli.run(["check", bundles["lie.L4sym"], "--what", "hermitian:bogus",
                             "--args", "g", "w1", "m"])
    assert code == cli.EXIT_PARSE
    assert payload["error"] == ("unknown hermitian variant 'bogus' (have: ['anti-hermitian', "
                                "'hermitian', 'para-anti-hermitian', 'para-hermitian'])")


# -- every check argument against its slot type --------------------------------

# slot word: (domain, codomain, what) of the map it takes
_SLOT_TAGS = {"d": ("algebra", "module", "relative differential operator"),
              "t": ("module", "algebra", "O-operator"),
              "n": ("algebra", "algebra", "Nijenhuis operator"),
              "s": ("module", "module", "S of a dual-Nijenhuis pair")}
_TAG_PAIRS = [(a, b) for a in ("algebra", "module") for b in ("algebra", "module")]
_SECTIONS = {"algebras": "algebra", "reps": "representation", "maps": "map", "forms": "form"}


def _typed_doc(doc):
    """The corpus document with a name of every type added: an algebra
    `other` of the other kind with the dimension of the first, a form `f-x`
    over each of the two, a rep `coad` over the first, and `map-a-m` and so
    on, copies of one matrix tagged with each (domain, codomain)."""
    doc = copy.deepcopy(doc)
    first = sorted(doc["algebras"])[0]
    kind, n = doc["algebras"][first]["kind"], doc["algebras"][first]["dim"]
    doc["algebras"]["other"] = {"kind": "prelie" if kind == "lie" else "lie", "dim": n,
                                "constants": []}
    doc.setdefault("forms", {}).update({f"f-{a}": _form(a, "symmetric") for a in (first, "other")})
    doc.setdefault("reps", {})["coad"] = {
        "algebra": first, "constructor": "coadjoint" if kind == "lie" else "coregular"}
    maps = doc.setdefault("maps", {})
    matrix = next(iter(maps.values()), {}).get("matrix") or [
        ["1" if i == j else "0" for j in range(n)] for i in range(n)]
    maps.update({f"map-{a[0]}-{b[0]}": {"domain": a, "codomain": b, "matrix": matrix}
                 for a, b in _TAG_PAIRS})
    return doc, first


def _typed_names(doc, first, words):
    """A type-correct name for each slot word, and the wrong-typed names of
    each slot with the error each must give: every name of another section,
    an algebra of the other kind, a map with each other tag pair, and a form
    over the other algebra."""
    kind = doc["algebras"][first]["kind"]
    algebras = {kind: first, ("prelie" if kind == "lie" else "lie"): "other"}
    right = {"lie": algebras["lie"], "prelie": algebras["prelie"], "algebra": first,
             "rep": "coad", "map": "map-a-m",
             **{w: f"map-{a[0]}-{b[0]}" for w, (a, b, _) in _SLOT_TAGS.items()}}
    names = [right.get(w) for w in words]
    if "form" in words:
        names[words.index("form")] = f"f-{names[0]}"
    section = {"lie": "algebras", "prelie": "algebras", "algebra": "algebras", "rep": "reps",
               "form": "forms"}
    wrong = []
    for w in words:
        own = section.get(w, "maps")
        cases = {other: f"unknown {_SECTIONS[own]} {other!r}"
                 for sec in _SECTIONS if sec != own for other in sorted(doc.get(sec, {}))
                 if other not in doc.get(own, {})}
        if w in ("lie", "prelie"):
            bad = algebras["prelie" if w == "lie" else "lie"]
            cases[bad] = f"{bad!r} is not a {'Lie' if w == 'lie' else 'pre-Lie'} algebra"
        if w in _SLOT_TAGS:
            a, b, what = _SLOT_TAGS[w]
            cases.update({f"map-{x[0]}-{y[0]}": f"{what} must map {a} -> {b}"
                          for x, y in _TAG_PAIRS if (x, y) != (a, b)})
        if w == "form":
            over = "other" if names[0] == first else first
            cases[f"f-{over}"] = f"form 'f-{over}' is over {over!r}, not {names[0]!r}"
        wrong.append(cases)
    return names, wrong


def _slot_cases():
    return [pytest.param(eid, what, k, id=f"{what}-{eid}-slot{k + 1}")
            for eid in sorted(_CORPUS) for what in sorted(_USAGE)
            for k in range(len(_USAGE[what].split()))]


@pytest.fixture(scope="module")
def typed_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("typed")
    out = {}
    for eid, doc in _CORPUS.items():
        typed, first = _typed_doc(doc)
        path = root / (eid + ".json")
        path.write_text(json.dumps(typed))
        out[eid] = str(path), typed, first
    return out


@pytest.mark.parametrize("eid,what,slot", _slot_cases())
def test_every_wrong_typed_argument_exits_two(typed_files, capsys, eid, what, slot):
    """Each slot of each check kind, filled with a name of each wrong type
    while the other slots hold type-correct names, exits 2 with one JSON
    document whose error names the wrong argument's type."""
    path, doc, first = typed_files[eid]
    usage, bundle = _USAGE[what], load_bundle(path)
    names, wrong = _typed_names(doc, first, usage.split())
    list(cli._resolve(bundle, usage, names))  # the right names resolve
    assert wrong[slot]
    for bad, error in wrong[slot].items():
        args = names[:slot] + [bad] + names[slot + 1:]
        code, payload = _run_json(capsys, ["check", path, "--what", what, "--args", *args])
        assert code == cli.EXIT_PARSE and payload["status"] == "input-error", (args, payload)
        assert payload["error"].startswith(error), (args, payload["error"])
        with pytest.raises(ValueError) as exc:  # from the slot function, before any predicate
            list(cli._resolve(bundle, usage, args))
        assert str(exc.value) == payload["error"]


def _reproduction_bundles(tmp_path):
    """abelian.quat plus ti (mi tagged module -> algebra) and a 4-dimensional
    Lie algebra h; lie.L4sym with the coadjoint rep and two derived d maps of
    its omega triple."""
    quat = export_bundle("abelian.quat")
    quat["maps"]["ti"] = dict(quat["maps"]["mi"], domain="module", codomain="algebra")
    quat["algebras"]["h"] = {"kind": "lie", "dim": 4,
                             "constants": [{"i": 1, "j": 2, "k": 3, "coeff": "1"}]}
    ops = export_bundle("lie.L4sym")
    triple = classify_triple(load_bundle(_write(tmp_path, "l4sym", ops)), "omega")
    ops["reps"] = {"coad": {"algebra": "g", "constructor": "coadjoint"}}
    ops["maps"] = {f"d{i + 1}": {"domain": d.domain, "codomain": d.codomain,
                                 "matrix": cli._maps_json(d=d)["d"]}
                   for i, d in enumerate(triple.d[:2])}
    return _write(tmp_path, "quat", quat), _write(tmp_path, "ops", ops)


def _write(tmp_path, name, doc):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("bundle,what,args,error", [
    # S and N are both algebra -> module (exit 1, a verdict, without the slot check)
    ("quat", "kn", ("triv", "ti", "mi", "mj"),
     "S of a dual-Nijenhuis pair must map module -> module"),
    # N is algebra -> module (exit 3, a verdict, without the slot check)
    ("ops", "dn", ("coad", "d1", "d2"), "Nijenhuis operator must map algebra -> algebra"),
    # B is declared over a, not h (exit 1, a verdict, without the slot check)
    ("quat", "invariant-form", ("h", "B"), "form 'B' is over 'a', not 'h'"),
])
def test_mistyped_requests_get_no_verdict(tmp_path, capsys, bundle, what, args, error):
    quat, ops = _reproduction_bundles(tmp_path)
    path = {"quat": quat, "ops": ops}[bundle]
    code, payload = _run_json(capsys, ["check", path, "--what", what, "--args", *args])
    assert code == cli.EXIT_PARSE and payload["status"] == "input-error"
    assert payload["error"] == error
    assert "report" not in payload


@pytest.mark.parametrize("tags", _TAG_PAIRS)
def test_hermitian_map_slot_takes_any_tags(tmp_path, capsys, tags):
    """The Hermitian check's `map` slot is lenient: mi, declared algebra ->
    module, passes as it did, and so does each retagged copy of it."""
    doc = export_bundle("abelian.quat")
    doc["maps"]["m"] = dict(doc["maps"]["mi"], domain=tags[0], codomain=tags[1])
    path = _write(tmp_path, "quat", doc)
    for name in ("mi", "m"):
        code, payload = _run_json(capsys, ["check", path, "--what", "hermitian:hermitian",
                                           "--args", "a", "B", name])
        assert code == cli.EXIT_PASS and payload["report"]["pass"] is True


def test_kahler_suite_on_relabelled_para_hyper_triple(tmp_path):
    # classify-hyper gives eps (1, -1, 1) and (-1, 1, 1) for the cyclic
    # relabellings; the suite picks the quad of the normalized triple
    doc = export_bundle("lie.L4sym")
    doc["triples"]["rot1"] = dict(doc["triples"]["omega"], members=["w2", "w3", "w1"])
    doc["triples"]["rot2"] = dict(doc["triples"]["omega"], members=["w3", "w1", "w2"])
    p = tmp_path / "relabelled.json"
    p.write_text(json.dumps(doc))
    for name, eps in (("rot1", [1, -1, 1]), ("rot2", [-1, 1, 1])):
        code, payload = cli.run(["classify-hyper", str(p), "--triple", name])
        assert payload["eps"] == eps
        code, payload = cli.run(["suite", str(p), "--triple", name, "--which", "kahler"])
        assert code == cli.EXIT_PASS, payload
        claims = payload["report"]["claims"]
        assert claims[-1] == {"claim": "round-trip rebuilds the triple", "indices": [],
                              "pass": True}


def test_kahler_suite_rejects_map_triples(bundles):
    code, payload = cli.run(["suite", bundles["abelian.quat"], "--triple", "quat",
                             "--which", "kahler"])
    assert code == cli.EXIT_PARSE
    assert payload["error"] == "the kahler suite needs a form triple, not a map triple"


# -- one parser per process ----------------------------------------------------

def _captured(argv):
    """(exit code, stdout, stderr) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_keeps_no_state_between_requests(bundles, tmp_path, monkeypatch):
    lie, quat = bundles["lie.L4sym"], bundles["abelian.quat"]
    _, dec = cli.run(["decompose", quat, "--triple", "quat"])
    doc = export_bundle("abelian.quat")
    for key, kind in (("hflat", "module"), ("I1", "algebra"), ("I2", "algebra")):
        doc["maps"][key.lower()] = {"domain": "algebra", "codomain": kind,
                                    "matrix": dec[key]}
    rebuilt = tmp_path / "rebuilt.json"
    rebuilt.write_text(json.dumps(doc))
    valid = (
        ["check", lie, "--what", "symplectic", "--args", "g", "w1"],
        ["check", bundles["non-jacobi"], "--what", "lie", "--args", "broken"],
        ["classify-hyper", bundles["prelie.rot4"], "--triple", "B"],
        ["suite", lie, "--triple", "omega", "--which", "table"],
        ["decompose", quat, "--triple", "quat"],
        ["reconstruct", str(rebuilt), "--rep", "triv", "--hflat", "hflat",
         "--i1", "i1", "--i2", "i2"],
        ["search-forms", bundles["prelie.B4"], "--algebra", "g", "--target", "hessian"],
        ["corpus", "list"],
        ["corpus", "run", "abelian.para"],
    )
    failures = (
        ["--help"],
        ["check", "--help"],
        ["no-such-command", lie],
        ["suite", lie, "--triple", "omega", "--which", "bogus"],
        ["search-forms", lie, "--algebra", "g", "--target", "bogus"],
        ["check", lie, "--args", "g"],  # no --what
        ["check", lie, "--what", "lie"],  # no --args
        ["check", lie, "--what", "lie", "--format", "json"],
    )
    requests = [r for argv in valid
                for r in (argv + ["--format", "json"], argv, ["--format", "json"] + argv)]
    mixed = [r for pair in zip(requests, failures * 4) for r in pair]
    mixed += mixed[::-1]
    cached = [_captured(argv) for argv in mixed]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_captured(argv) for argv in mixed]
    for argv, got, want in zip(mixed, cached, fresh):
        assert got == want, argv
    assert {code for code, _, _ in cached} == {0, 1, 2}
    # --format before the command answers byte for byte as after it
    answers = dict(zip(map(tuple, mixed), cached))
    for argv in valid:
        assert answers[("--format", "json", *argv)] == answers[(*argv, "--format", "json")], argv


def test_parser_is_built_on_the_first_request():
    script = ("from hyperops import cli\n"
              "assert cli._parser.cache_info().currsize == 0\n"
              "cli.run(['corpus', 'list'])\n"
              "cli.run(['--help'])\n"
              "info = cli._parser.cache_info()\n"
              "assert (info.misses, info.hits) == (1, 1), info\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env())
    assert done.returncode == 0, done.stderr


# -- argument parsing failures and --help ---------------------------------------

_WHICH = "'hflat', 'table', 'derived', 'product-one', 'kahler'"
_COMMAND_NAMES = ("'check', 'classify-hyper', 'suite', 'decompose', 'reconstruct', "
                  "'search-forms', 'corpus'")


@pytest.mark.parametrize("argv,error", [
    (["suite", "LIE", "--triple", "omega", "--which", "bogus"],
     f"argument --which: invalid choice: 'bogus' (choose from {_WHICH})"),
    (["check", "LIE", "--args", "g"], "the following arguments are required: --what"),
    (["classify-hyper", "LIE", "--triple", "omega", "--flavor", "symplectic"],
     "unrecognized arguments: --flavor symplectic"),
    (["no-such-command", "LIE"],
     f"argument command: invalid choice: 'no-such-command' (choose from {_COMMAND_NAMES})"),
])
def test_parse_failure_names_the_reason_in_the_requested_format(bundles, argv, error):
    argv = [bundles["lie.L4sym"] if a == "LIE" else a for a in argv]
    for fmt in (["--format", "json"], ["--format=json"], ["--form", "json"]):
        code, out, _ = _captured(argv + fmt)
        assert code == cli.EXIT_PARSE
        assert json.loads(out) == {"status": "input-error", "exit": cli.EXIT_PARSE, "error": error}
    for fmt in ([], ["--format", "text"]):
        code, out, _ = _captured(argv + fmt)
        assert code == cli.EXIT_PARSE
        assert out == f"status: input-error\nerror: {error}\n"


def test_invalid_format_value_is_the_reported_reason(bundles):
    code, out, _ = _captured(["corpus", "list", "--format", "xml"])
    assert code == cli.EXIT_PARSE
    assert out == ("status: input-error\nerror: argument --format: invalid choice: 'xml' "
                   "(choose from 'text', 'json')\n")


def _parsed(parser, argv):
    """(stdout, stderr, InputError message or None) of one parse of argv."""
    out, err, message = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit:  # --help
            pass
        except cli.InputError as exc:
            message = str(exc)
    return out.getvalue(), err.getvalue(), message


def test_target_choices_are_the_search_targets(monkeypatch):
    """search-forms --target takes search._TARGETS, and its help and
    invalid-choice message are those of the written-out list of names."""
    help_, fn, (algebra, (flag, options)) = cli._COMMANDS["search-forms"]
    assert options["choices"] is _TARGETS
    argvs = (["search-forms", "--help"],
             ["search-forms", "b.json", "--algebra", "g", "--target", "bogus"])
    got = [_parsed(cli.build_parser(), argv) for argv in argvs]
    names = ("symplectic", "hessian", "ad-invariant", "prelie-invariant")
    monkeypatch.setitem(cli._COMMANDS, "search-forms", (
        help_, fn, (algebra, (flag, dict(options, choices=names)))))
    assert [_parsed(cli.build_parser(), argv) for argv in argvs] == got
    assert "--target {symplectic,hessian,ad-invariant,prelie-invariant}" in got[0][0]
    assert got[1][2] == ("argument --target: invalid choice: 'bogus' (choose from "
                         "'symplectic', 'hessian', 'ad-invariant', 'prelie-invariant')")


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"],
                                  ["suite", "-h", "--format", "json"]])
def test_help_prints_only_the_help(argv):
    code, out, err = _captured(argv)
    assert code == cli.EXIT_PASS
    assert out.startswith("usage: hyperops") and "status:" not in out
    assert err == ""


# -- a form from an algebra of another dimension ---------------------------------

def _form(algebra, symmetry):
    term = "e1^*∧e2^*" if symmetry == "skew" else "e1^*⊗e1^*"
    return {"algebra": algebra, "symmetry": symmetry, "terms": [{"term": term, "coeff": "1"}]}


@pytest.fixture()
def mixed_dims(tmp_path):
    doc = {"field": "gaussian_rational",
           "algebras": {f"{k}{n}": {"kind": kind, "dim": n, "constants": []}
                        for k, kind in (("g", "lie"), ("p", "prelie")) for n in (2, 3)},
           # B.. symmetric, w.. skew, each on the named algebra
           "forms": {f"{c}{k}{n}": _form(f"{k}{n}", s)
                     for c, s in (("B", "symmetric"), ("w", "skew"))
                     for k in "gp" for n in (2, 3)}}
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("what,algebra,form", [
    ("invariant-form", "g3", "Bg2"), ("invariant-form", "g2", "Bg3"),
    ("invariant-form", "p3", "wp2"), ("invariant-form", "p2", "wp3"),
    ("symplectic", "g3", "wg2"), ("hessian", "p2", "Bp3"),
])
def test_form_of_another_dimension_exits_two(mixed_dims, capsys, what, algebra, form):
    code, payload = _run_json(capsys, ["check", mixed_dims, "--what", what,
                                       "--args", algebra, form])
    assert code == cli.EXIT_PARSE
    assert payload["status"] == "input-error"
    assert payload["error"] == f"form {form!r} is over {form[1:]!r}, not {algebra!r}"


def test_memo_scope_closes_after_every_exit(bundles, tmp_path, monkeypatch):
    sizes = []
    scope = cli.memo_scope

    @contextlib.contextmanager
    def watched():
        with scope():
            try:
                yield
            finally:
                sizes.append(len(operators._memo))

    monkeypatch.setattr(cli, "memo_scope", watched)
    quat = bundles["abelian.quat"]
    # T = mi read as module -> algebra, N = Id and a 3 x 3 S on the 4-dimensional module
    doc = export_bundle("abelian.quat")
    doc["maps"].update(
        t={**doc["maps"]["mi"], "domain": "module", "codomain": "algebra"},
        n={**doc["maps"]["mi"], "codomain": "algebra",
           "matrix": [["1" if i == j else "0" for j in range(4)] for i in range(4)]},
        s={"domain": "module", "codomain": "module", "matrix": [["1", "0", "0"]] * 3})
    misshapen = tmp_path / "misshapen-s.json"
    misshapen.write_text(json.dumps(doc))
    for argv, want in (
        (["check", quat, "--what", "rdo", "--args", "triv", "mi"], cli.EXIT_PASS),
        # decides whether T is an O-operator and N Nijenhuis, then finds S misshapen
        (["check", str(misshapen), "--what", "kn", "--args", "triv", "t", "s", "n"],
         cli.EXIT_PARSE),
        # classifies the triple, then finds its signature product -1
        (["suite", quat, "--triple", "quat", "--which", "product-one"], cli.EXIT_PRECONDITION),
    ):
        code, _ = cli.run(argv)
        assert code == want, argv
        assert sizes.pop() > 0, argv  # facts were proved inside the scope
        assert operators._memo is None, argv


def test_suites_through_the_cli_match_uncached_library_calls(tmp_path):
    """For every corpus triple, each suite's report (or error) from cli.run
    equals the same library call made outside any memo scope."""
    for example_id, _, _ in list_examples():
        bundle = export_bundle(example_id)
        path = tmp_path / f"{example_id}.json"
        path.write_text(json.dumps(bundle))
        for name in bundle.get("triples", {}):
            for which, suite in cli._SUITES.items():
                _, payload = cli.run(["suite", str(path), "--triple", name, "--which", which])
                assert operators._memo is None
                try:
                    want = {"report": suite(load_bundle(str(path)), name).to_json()}
                except ValueError as exc:
                    want = {"error": str(exc)}
                    if getattr(exc, "report", None) is not None:
                        want["report"] = exc.report.to_json()
                got = {k: payload[k] for k in ("report", "error") if k in payload}
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), (
                    example_id, which)


def test_map_triple_with_a_rep_over_another_algebra_exits_two(tmp_path, capsys):
    # g: [e1, e2] = e2; the rep is the adjoint action of the abelian h
    doc = {"field": "gaussian_rational",
           "algebras": {"g": {"kind": "lie", "dim": 2,
                              "constants": [{"i": 1, "j": 2, "k": 2, "coeff": "1"}]},
                        "h": {"kind": "lie", "dim": 2, "constants": []}},
           "reps": {"r": {"algebra": "h", "constructor": "adjoint"}},
           "maps": {m: {"domain": "algebra", "codomain": "module",
                        "matrix": [["1", "0"], ["0", "1"]]} for m in ("d1", "d2", "d3")},
           "triples": {"t": {"kind": "maps", "algebra": "g", "rep": "r",
                             "members": ["d1", "d2", "d3"]}}}
    path = tmp_path / "rep-over-h.json"
    path.write_text(json.dumps(doc))
    code, payload = _run_json(capsys, ["classify-hyper", str(path), "--triple", "t"])
    assert code == cli.EXIT_PARSE
    assert payload["status"] == "input-error"
    assert payload["error"] == "triple 't': rep 'r' is over 'h', not 'g'"
    doc["triples"]["t"]["algebra"] = "h"  # the same maps over the rep's own algebra
    path.write_text(json.dumps(doc))
    assert _run_json(capsys, ["classify-hyper", str(path), "--triple", "t"])[0] == cli.EXIT_PASS


def test_form_triple_over_another_algebra_and_a_form_slot_give_one_message(tmp_path, capsys):
    """`Bundle.form_over` holds the rule that a form is declared over a given
    algebra: a forms triple prefixes its message with the triple's name, a
    `form` slot gives it as it is."""
    doc = export_bundle("lie.L4sym")
    doc["algebras"]["h"] = dict(doc["algebras"]["g"])
    doc["forms"]["w3"]["algebra"] = "h"
    path = _write(tmp_path, "w3-over-h", doc)
    code, payload = _run_json(capsys, ["classify-hyper", path, "--triple", "omega"])
    assert code == cli.EXIT_PARSE and payload["status"] == "input-error"
    assert payload["error"] == "triple 'omega': form 'w3' is over 'h', not 'g'"
    del doc["triples"]
    path = _write(tmp_path, "w3-over-h", doc)
    code, payload = _run_json(capsys, ["check", path, "--what", "symplectic", "--args", "g", "w3"])
    assert code == cli.EXIT_PARSE and payload["error"] == "form 'w3' is over 'h', not 'g'"
    bundle = load_bundle(path)
    assert bundle.form_over("w3", "h") is bundle.form("w3")


@pytest.mark.parametrize("tags", [t for t in _TAG_PAIRS if t != ("algebra", "module")])
def test_mistyped_hflat_is_named_as_hflat(tmp_path, capsys, tags):
    """reconstruct's hflat needs only the type algebra -> module of the d_i =
    hflat∘I_i it builds; a mistyped one is rejected under its own name, not
    as a relative differential operator."""
    doc = broken_variant("non-anticommuting")
    doc["maps"]["hflat"] = dict(doc["maps"]["hflat"], domain=tags[0], codomain=tags[1])
    path = _write(tmp_path, "hflat-mistyped", doc)
    code, payload = _run_json(capsys, ["reconstruct", path, "--rep", "triv", "--hflat", "hflat",
                                       "--i1", "i1", "--i2", "i2"])
    assert code == cli.EXIT_PARSE and payload["status"] == "input-error"
    assert payload["error"] == "hflat must map algebra -> module"
    assert "report" not in payload


@pytest.mark.parametrize("tags", [t for t in _TAG_PAIRS if t != ("algebra", "algebra")])
@pytest.mark.parametrize("name", ["i1", "i2"])
def test_mistyped_structure_is_named_as_a_complex_structure(tmp_path, capsys, name, tags):
    """reconstruct's I_1 and I_2 need only the type algebra -> algebra of a
    (para-)complex structure; a mistyped one is rejected as such, not as a
    Nijenhuis operator."""
    doc = broken_variant("non-anticommuting")
    doc["maps"][name] = dict(doc["maps"][name], domain=tags[0], codomain=tags[1])
    path = _write(tmp_path, f"{name}-mistyped", doc)
    code, payload = _run_json(capsys, ["reconstruct", path, "--rep", "triv", "--hflat", "hflat",
                                       "--i1", "i1", "--i2", "i2"])
    assert code == cli.EXIT_PARSE and payload["status"] == "input-error"
    assert payload["error"] == "(para-)complex structure must map algebra -> algebra"
    assert "report" not in payload


def test_malformed_literal_in_two_maps_names_the_first(tmp_path, capsys):
    """A malformed literal is reported where it first appears, although each
    literal of a bundle is parsed only once."""
    doc = export_bundle("abelian.quat")
    first, second = list(doc["maps"])[:2]
    for name in (first, second):
        doc["maps"][name]["matrix"][0][0] = "1/0"
    path = tmp_path / "bad-literal.json"
    path.write_text(json.dumps(doc))
    code, payload = _run_json(capsys, ["classify-hyper", str(path), "--triple", "quat"])
    assert code == cli.EXIT_PARSE
    assert payload["status"] == "input-error"
    assert payload["error"] == f"map {first!r}: zero denominator in '1/0'"


# -- fuzzing: mutated corpus bundles through every command ---------------------

# values a mutation puts in place of any part of a bundle
_ODD_VALUES = (None, True, 0, -1, 2, 5, 65, 1.5, 10 ** 40, "", "x", "1/0", "0", "2+i", "9" * 400,
               [], {}, [[]], {"kind": "lie"})


def _fuzz_commands(doc):
    """Requests on the names of a corpus document, each without the bundle
    path: as far as the document has what they name, every check kind that
    takes its first algebra's kind, every command on its first triple and
    `reconstruct`; then both form searches for the algebra's kind."""
    algebra = sorted(doc["algebras"])[0]
    kind = doc["algebras"][algebra]["kind"]
    checks = ((what, _check_args(doc, algebra, what)) for what in sorted(_SLOTS)
              if _NEEDS.get(what, kind) == kind)
    out = [["check", "--what", what, "--args", *args] for what, args in checks
           if "missing" not in args]
    for t in sorted(doc.get("triples", {}))[:1]:
        out += [["classify-hyper", "--triple", t], ["decompose", "--triple", t]]
        out += [["suite", "--triple", t, "--which", which] for which in cli._SUITES]
    maps, reps = sorted(doc.get("maps", {})), sorted(doc.get("reps", {}))
    if reps and len(maps) >= 3:
        out.append(["reconstruct", "--rep", reps[0], "--hflat", maps[0], "--i1", maps[1],
                    "--i2", maps[2]])
    targets = ("symplectic", "ad-invariant") if kind == "lie" else (
        "hessian", "prelie-invariant")
    return out + [["search-forms", "--algebra", algebra, "--target", t] for t in targets]


def _places(node, path=()):
    """The path of every value inside a JSON document, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@st.composite
def _mutated_bundle(draw):
    """A corpus bundle's JSON text with one mutation, a value dropped or
    replaced by an odd one, or the text cut short or one character changed,
    and one of the requests its unmutated document answers."""
    doc = copy.deepcopy(_CORPUS[draw(st.sampled_from(sorted(_CORPUS)))])
    command = draw(st.sampled_from(_fuzz_commands(doc)))
    kind = draw(st.sampled_from(("drop", "replace", "cut", "char")))
    if kind in ("drop", "replace"):
        *parent, key = draw(st.sampled_from(list(_places(doc))))
        owner = functools.reduce(lambda node, k: node[k], parent, doc)
        if kind == "drop":
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(_ODD_VALUES))
        return json.dumps(doc), command
    text = json.dumps(doc)
    at = draw(st.integers(0, len(text) - 1))
    if kind == "cut":
        return text[:at], command
    return text[:at] + draw(st.sampled_from('{}[]",:0-9xi ')) + text[at + 1:], command


@given(_mutated_bundle())
@settings(max_examples=200, deadline=None)
def test_mutated_bundles_answer_every_command_with_one_json_document(tmp_path_factory, case):
    text, (command, *rest) = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-bundle.json"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(path), *rest, "--format", "json"])
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_PARSE, cli.EXIT_PRECONDITION)
    assert json.loads(out.getvalue())["exit"] == code  # exactly one JSON document


# -- the JSON writer ---------------------------------------------------------------

def _reference(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


# text with what json escapes: quotes, backslashes, control characters, lone
# surrogates and non-ASCII, claim names among them
_TEXT = st.one_of(
    st.text(st.characters(codec=None, categories=None), max_size=8),
    st.text(st.sampled_from('a"\\/\x00\x1f\x7f\ud800\udbff\udc00∘é😀'), max_size=8),
    st.sampled_from(["d∘N:rdo", "T∘S=prod(eps)·N∘T", 'say "x"', "back\\slash", "\x00\t\n\x1f\x7f",
                     "\ud800", "a\udfffb", "e1^*∧e2^*", "", "é😀"]))
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 60, 10 ** 60) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_json_writer_is_byte_identical_to_json_dumps(payload):
    assert cli._json(payload) == _reference(payload)


@pytest.mark.parametrize("value", [1.5, 0.0, {1: "x"}, {"a": [{(1, 2): 0}]}, (1, 2), {"a": 2.0}],
                         ids=repr)
def test_json_writer_rejects_what_payloads_do_not_carry(value):
    with pytest.raises(TypeError):
        cli._json(value)


def _corpus_requests():
    cases = [pytest.param(None, ["corpus", a], id=f"corpus-{a}") for a in ("list", "run")]
    for eid, doc in _CORPUS.items():
        cases += [pytest.param(eid, command, id=f"{eid}:{' '.join(command)}")
                  for command in _fuzz_commands(doc)]
    return cases


@pytest.mark.parametrize("eid,command", _corpus_requests())
def test_every_corpus_request_prints_what_json_dumps_prints(corpus_files, capsys, eid, command):
    argv = command if eid is None else [command[0], corpus_files[eid], *command[1:]]
    cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert out == _reference(json.loads(out)) + "\n"


def _garbage(argv) -> int:
    """The objects one cli.main(argv) request leaves unreachable but not freed."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("eid,command", _corpus_requests())
def test_json_output_leaves_no_more_garbage_than_text(corpus_files, eid, command, fmt):
    argv = (command if eid is None else [command[0], corpus_files[eid], *command[1:]]) + [
        "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)  # warm every cache first
    assert _garbage(argv) == 0
