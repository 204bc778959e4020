"""Every name a module of the package or a test file imports is used in that
module."""

import ast
import pathlib

import pytest

import hyperops

_PACKAGE = pathlib.Path(hyperops.__file__).parent
# __init__ imports names only to export them
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
_TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", _MODULES + _TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == []
