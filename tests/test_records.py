"""Records: frozen, equal and hashed by value, as the predicate memo keys
them, and declared without generated code, so that a fresh import of the
package loads neither `dataclasses` nor `inspect`."""

import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from hyperops import operators
from hyperops.algebra import LieAlgebra, PreLieAlgebra, Representation
from hyperops.geometry import SKEW, BilForm, FormIdentity
from hyperops.linalg import Matrix
from hyperops.operators import ALGEBRA, MODULE, LinMap, is_rdo, memo_scope
from hyperops.scalars import Scalar, as_gaussian

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
_L = ([[0, 1], [0, 0]], [[-1, 0], [0, 0]])  # [e_1, e_2] = e_1, as L(e_1), L(e_2)


def _mats(rows):
    return [Matrix.from_rows(r) for r in rows]


def _cocycle(i, j, k):
    return (1, (i, j), k), (1, (k, i), j), (1, (j, k), i)


# each record's constructor from fixed values, and a field to assign
_RECORDS = {
    "LinMap": (lambda: LinMap(Matrix.from_rows([[1, 2], [0, 1]]), ALGEBRA, MODULE), "matrix"),
    "Scalar": (lambda: Scalar(Fraction(1, 2), 3), "re"),
    "BilForm": (lambda: BilForm(Matrix.from_rows([[0, 1], [-1, 0]]), SKEW), "symmetry"),
    "LieAlgebra": (lambda: LieAlgebra(2, _mats(_L)), "st"),
    "PreLieAlgebra": (lambda: PreLieAlgebra(2, _mats(_L)), "dim"),
    "Representation": (lambda: Representation(LieAlgebra(2, _mats(_L)), 2, _mats(_L)),
                       "module_dim"),
    "FormIdentity": (lambda: FormIdentity("cocycle", LieAlgebra, SKEW, 3, _cocycle), "claim"),
}


@pytest.mark.parametrize("kind", list(_RECORDS))
def test_records_are_frozen_values(kind, monkeypatch):
    make, field = _RECORDS[kind]
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and getattr(a, field) == getattr(b, field)
    if kind in ("LieAlgebra", "PreLieAlgebra"):
        # the same stack, read as the other kind of algebra, is another value
        other = (PreLieAlgebra if kind == "LieAlgebra" else LieAlgebra)(2, _mats(_L))
        assert other.st == a.st and a != other and other != a
    if kind == "LinMap":
        with pytest.raises(ValueError, match=re.escape("bad tags (algebra, modul)")):
            LinMap(a.matrix, ALGEBRA, "modul")
    if kind == "Scalar":
        assert not isinstance(a, tuple) and as_gaussian(a) == (1, 6, 2)
    if kind in ("LinMap", "Representation"):
        # a memoized predicate called again with this record rebuilt hits
        rho, d = _RECORDS["Representation"][0](), _RECORDS["LinMap"][0]()
        calls, run = [], operators.identity_test
        monkeypatch.setattr(operators, "identity_test",
                            lambda *args, **kw: calls.append(args) or run(*args, **kw))
        with memo_scope():
            first = is_rdo(rho, d)
            again = is_rdo(make() if kind == "Representation" else rho,
                           make() if kind == "LinMap" else d)
        assert len(calls) == 1 and again.to_json() == first.to_json()


def test_a_fresh_import_loads_no_dataclasses_or_inspect():
    script = ("import sys\n"
              "import hyperops.cli\n"
              "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
              "assert not loaded, loaded\n"
              "sys.exit(hyperops.cli.main(['corpus', 'list', '--format', 'json']))\n")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _SRC})
    assert done.returncode == 0, done.stderr
