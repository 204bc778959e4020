"""Smoke test for the demos: each script runs to completion in-process."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [p.stem for p in DEMOS] == [
        "decompose_and_rebuild", "hessian_existence_search", "symplectic_triple_walkthrough"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text.strip()
    assert "FAIL" not in text
    if path.stem == "decompose_and_rebuild":
        assert text.count("reproduces the original operators: True") == 2
    if path.stem == "hessian_existence_search":
        assert "prelie.B4: solution space has dimension 2" in text
