"""Command-line interface: exit codes, output formats, and stability."""

import json
import os
import subprocess
import sys

import pytest

import hyperops
from hyperops import cli
from hyperops.corpus import broken_variant, export_bundle


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
