"""Answer checking for benchmark jobs.

Every job's captured stdout is normalised into one view, whichever of the two
output formats it used, and compared with the answer key made in set-up.
Matrix answers are checked with the small exact Gaussian-rational arithmetic
below, which shares no code with hyperops, so a wrong product in the program
cannot also hide in the check.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# -- exact Q(i) arithmetic on rendered scalars --------------------------

_NUM = r"\d+(?:/\d+)?"
_SCALAR = re.compile(rf"^([+-]?)(?:({_NUM})(?:([+-])({_NUM})?i)?|({_NUM})?i)$")


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def gq(text: str) -> tuple:
    """Parse a rendered scalar ('2', '-1/2', 'i', '3-2i') to (re, im)."""
    m = _SCALAR.match(text.replace(" ", ""))
    if m is None:
        raise ValueError(f"not a Q(i) scalar: {text!r}")
    sign = -1 if m.group(1) == "-" else 1
    if m.group(2) is None:  # pure imaginary
        return (Fraction(0), sign * (_frac(m.group(5)) if m.group(5) else Fraction(1)))
    re_part = sign * _frac(m.group(2))
    if m.group(3) is None:
        return (re_part, Fraction(0))
    isign = -1 if m.group(3) == "-" else 1
    return (re_part, isign * (_frac(m.group(4)) if m.group(4) else Fraction(1)))


def matrix(rows) -> list:
    return [[gq(v) if isinstance(v, str) else v for v in row] for row in rows]


def matmul(a, b) -> list:
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            re_s, im_s = Fraction(0), Fraction(0)
            for k, (ar, ai) in enumerate(row):
                br, bi = b[k][j]
                re_s += ar * br - ai * bi
                im_s += ar * bi + ai * br
            new.append((re_s, im_s))
        out.append(new)
    return out


def neg(a) -> list:
    return [[(-r, -i) for (r, i) in row] for row in a]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def form_matrix(dim: int, terms) -> list:
    """Matrix of a bundle form: wedge e_i^*∧e_j^* adds +c at (i,j) and -c at
    (j,i); tensor e_i^*⊗e_j^* adds +c at (i,j)."""
    m = [[(Fraction(0), Fraction(0)) for _ in range(dim)] for _ in range(dim)]
    for t in terms:
        i, op, j = re.match(r"^e(\d+)\^?\*([∧⊗])e(\d+)\^?\*$", t["term"]).groups()
        i, j = int(i) - 1, int(j) - 1
        cr, ci = gq(t.get("coeff", "1"))
        r, im = m[i][j]
        m[i][j] = (r + cr, im + ci)
        if op == "∧":
            r, im = m[j][i]
            m[j][i] = (r - cr, im - ci)
    return m


# -- normalised view of one job's output --------------------------------

_STATUS = {0: "pass", 1: "fail", 2: "input-error", 3: "precondition-error"}
_MATRIX_KEYS = ("hflat", "I1", "I2", "I3", "d1", "d2", "d3")


def _first_failure_json(rep: dict):
    for c in rep["claims"]:
        if not c["pass"]:
            return list(c.get("counterexample", c["indices"]))
    return None


def view_json(text: str) -> dict:
    p = json.loads(text)
    reps = [p["report"]] if "report" in p else []
    reps += list(p.get("runs", {}).values())
    first = next((f for f in map(_first_failure_json, reps) if f is not None), None)
    return {
        "status": p.get("status"),
        "eps": p.get("eps"),
        "permutation": p.get("permutation"),
        "space_dim": p.get("space_dim"),
        "exists": p.get("exists_nondegenerate"),
        "entries": len(p["entries"]) if "entries" in p else None,
        "mats": {k: p[k] for k in _MATRIX_KEYS if k in p},
        "report_pass": all(r["pass"] for r in reps) if reps else None,
        "first_failure": first,
        "claims": sum(len(r["claims"]) for r in reps),
    }


_CX = re.compile(r"counterexample basis \(([^)]*)\)")
_AT = re.compile(r" @ \(([^)]*)\)")


def _ints(text: str) -> list:
    return [int(t) for t in text.replace(" ", "").split(",") if t]


_TEXT_KEYS = ("status", "error", "eps", "eps_product", "permutation", "space_dim",
              "exists_nondegenerate", "target") + _MATRIX_KEYS


def view_text(text: str) -> dict:
    v = {"status": None, "eps": None, "permutation": None, "space_dim": None,
         "exists": None, "entries": None, "mats": {}, "report_pass": None,
         "first_failure": None, "claims": 0}
    headers = []
    entries = 0
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in _TEXT_KEYS:
            if key == "status":
                v["status"] = value
            elif key in ("eps", "permutation"):
                v[key] = json.loads(value)
            elif key == "space_dim":
                v["space_dim"] = int(value)
            elif key == "exists_nondegenerate":
                v["exists"] = value == "True"
            elif key in _MATRIX_KEYS:
                v["mats"][key] = [r.split(" ") for r in value.strip("[]").split("; ")]
        elif line.startswith("== ") and line.endswith(" =="):
            headers.append(line.endswith(": PASS =="))
        elif line.startswith("[ok ] ") or line.startswith("[FAIL] "):
            v["claims"] += 1
            if line.startswith("[FAIL] ") and v["first_failure"] is None:
                m = _CX.search(line) or _AT.search(line)
                v["first_failure"] = _ints(m.group(1)) if m else []
        elif line and not line.startswith(("-- ", "note: ")):
            entries += 1  # a `corpus list` row
    if headers:
        v["report_pass"] = all(headers)
    if entries:
        v["entries"] = entries
    return v


def view(fmt: str, text: str) -> dict:
    return view_json(text) if fmt == "json" else view_text(text)


# -- comparing a view with its answer key -------------------------------


def check(expect: dict, code: int, v: dict) -> str | None:
    """None when the job's answer is right, else the reason it is wrong."""
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if v["status"] != _STATUS[expect["exit"]]:
        return f"status {v['status']!r}"
    if "pass" in expect and v["report_pass"] is not expect["pass"]:
        return f"report pass flag {v['report_pass']}, expected {expect['pass']}"
    for key in ("eps", "permutation", "space_dim", "exists", "entries", "first_failure"):
        if key in expect and v[key] != expect[key]:
            return f"{key} {v[key]!r}, expected {expect[key]!r}"
    if "decomposes" in expect:
        why = check_decomposition(v["mats"], expect["decomposes"])
        if why:
            return why
    if "rebuilds" in expect:
        for k, want in enumerate(expect["rebuilds"]):
            got = v["mats"].get(f"d{k + 1}")
            if got is None or matrix(got) != want:
                return f"d{k + 1} does not rebuild the triple"
    return None


def check_decomposition(mats: dict, ds: list) -> str | None:
    """d_k = hflat∘I_k, I_3 = I_1∘I_2 and I_1∘I_2 = -I_2∘I_1, exactly."""
    if any(k not in mats for k in ("hflat", "I1", "I2", "I3")):
        return "decomposition is missing a matrix"
    h, i1, i2, i3 = (matrix(mats[k]) for k in ("hflat", "I1", "I2", "I3"))
    for k, ik in enumerate((i1, i2, i3)):
        if matmul(h, ik) != ds[k]:
            return f"hflat∘I{k + 1} != d{k + 1}"
    if matmul(i1, i2) != i3:
        return "I3 != I1∘I2"
    if matmul(i1, i2) != neg(matmul(i2, i1)):
        return "I1 and I2 do not anticommute"
    return None
