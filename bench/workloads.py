"""The three workloads: their inputs, made in set-up, and the jobs of one pass
with the answer each job must give.

A pass is a list of units. A unit is one job, or a short chain whose later
jobs read files that an earlier job's answer produced (decompose, then
reconstruct from its output). The seed shuffles the order of the units and
relabels the basis of generated algebras; no expected answer depends on it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import check

# corpus id, triple name, signature
CORPUS_TRIPLES = (
    ("lie.L4sym", "omega", [1, 1, -1]),
    ("prelie.rot4", "B", [-1, -1, 1]),
    ("abelian.quat", "quat", [-1, -1, -1]),
    ("abelian.para", "para", [1, 1, 1]),
)
CORPUS_IDS = ("lie.L4sym", "prelie.I4", "prelie.A4", "prelie.B4", "prelie.rot4",
              "lie.heis4", "abelian.quat", "abelian.para")

# Answers recorded at the commit that introduced the benchmark; the existence
# flags also follow from the corpus expectations and the stored forms.
SEARCH_4DIM = (
    ("prelie.I4", "g", "hessian", 1, True),
    ("prelie.A4", "g", "hessian", 1, True),
    ("prelie.B4", "g", "hessian", 2, False),
    ("prelie.rot4", "g", "hessian", 4, True),
    ("lie.L4sym", "g", "symplectic", 5, True),
    ("lie.heis4", "g", "symplectic", 5, True),
    ("abelian.quat", "a", "symplectic", 6, True),
    ("lie.heis4", "g", "ad-invariant", 6, False),
    ("prelie.rot4", "g", "prelie-invariant", 1, False),
)

# Bundles that crash the seed instead of exiting 2; run once per run as a
# probe, outside the measured mix (see NOTES.md).
MALFORMED = {
    "algebra-not-object": {"algebras": {"g": 5}},
    "constants-not-list": {"algebras": {"g": {"kind": "lie", "dim": 2, "constants": 7}}},
}


@dataclass
class Job:
    key: str
    argv: list
    expect: dict
    fmt: str = "json"
    after: Callable | None = None  # client step between this job and the next

    def command(self) -> list:
        return self.argv + ["--format", self.fmt]


@dataclass
class Workload:
    units: list = field(default_factory=list)
    setup_errors: list = field(default_factory=list)
    probes: list = field(default_factory=list)


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def triple_maps(doc: dict, triple: str) -> list:
    """The triple's maps d_1, d_2, d_3 as exact matrices, straight from the
    bundle: the member maps, or the transposed member forms (flat maps)."""
    ref = doc["triples"][triple]
    if ref["kind"] == "maps":
        return [check.matrix(doc["maps"][m]["matrix"]) for m in ref["members"]]
    dim = doc["algebras"][ref["algebra"]]["dim"]
    return [check.transpose(check.form_matrix(dim, doc["forms"][f]["terms"]))
            for f in ref["members"]]


def rebuild_bundle(doc: dict, triple: str, mats: dict) -> dict:
    """A bundle holding the triple's context and a decomposition's hflat, I1
    and I2, for `reconstruct`."""
    ref = doc["triples"][triple]
    alg = ref["algebra"]
    if ref["kind"] == "maps":
        rep = doc["reps"][ref["rep"]]
    else:
        kind = doc["algebras"][alg]["kind"]
        rep = {"algebra": alg, "constructor": "coadjoint" if kind == "lie" else "coregular"}
    return {
        "field": "gaussian_rational",
        "algebras": {alg: doc["algebras"][alg]},
        "reps": {"r": rep},
        "maps": {
            "hflat": {"domain": "algebra", "codomain": "module", "matrix": mats["hflat"]},
            "i1": {"domain": "algebra", "codomain": "algebra", "matrix": mats["I1"]},
            "i2": {"domain": "algebra", "codomain": "algebra", "matrix": mats["I2"]},
        },
    }


def _reconstruct_argv(path: str) -> list:
    return ["reconstruct", path, "--rep", "r", "--hflat", "hflat", "--i1", "i1", "--i2", "i2"]


def _shuffled(units: list, seed: int) -> list:
    random.Random(f"{seed}-order").shuffle(units)
    return units


# -- triple-suites ------------------------------------------------------


def triple_suites(hy, workdir: str, seed: int) -> Workload:
    wl = Workload()
    for eid, name, eps in CORPUS_TRIPLES:
        doc = hy.corpus.export_bundle(eid)
        path = _write(workdir, eid, doc)
        ds = triple_maps(doc, name)
        ok = {"exit": 0, "pass": True}
        wl.units.append([Job(f"classify-hyper {eid}", ["classify-hyper", path, "--triple", name],
                             {"exit": 0, "eps": eps})])
        for which in ("hflat", "table", "derived"):
            wl.units.append([Job(f"suite {which} {eid}",
                                 ["suite", path, "--triple", name, "--which", which], ok)])
        if eps[0] * eps[1] * eps[2] == 1:
            wl.units.append([Job(f"suite product-one {eid}",
                                 ["suite", path, "--triple", name, "--which", "product-one"], ok)])
        else:
            rpath = os.path.join(workdir, eid + ".rebuild.json")

            def write_rebuild(v, doc=doc, name=name, rpath=rpath):
                if all(k in v["mats"] for k in ("hflat", "I1", "I2")):
                    with open(rpath, "w") as fh:
                        json.dump(rebuild_bundle(doc, name, v["mats"]), fh)
                elif os.path.exists(rpath):
                    os.remove(rpath)  # the reconstruct job then fails, as it should

            wl.units.append([
                Job(f"decompose {eid}", ["decompose", path, "--triple", name],
                    {"exit": 0, "eps": eps, "permutation": [1, 2, 3], "decomposes": ds},
                    after=write_rebuild),
                Job(f"reconstruct {eid}", _reconstruct_argv(rpath),
                    {"exit": 0, "eps": eps, "rebuilds": ds}),
            ])
        if eid == "lie.L4sym":
            wl.units.append([Job(f"suite kahler {eid}",
                                 ["suite", path, "--triple", name, "--which", "kahler"], ok)])
    wl.units = _shuffled(wl.units, seed)
    return wl


# -- form-search --------------------------------------------------------


def _constants(triples) -> list:
    return [{"i": i, "j": j, "k": k, "coeff": c} for (i, j, k, c) in triples]


def family_i(n: int) -> list:
    """I_n: e1·e1 = 2e1, e1·ei = ei and ei·ei = e1 for i >= 2 (I_4 is prelie.I4)."""
    out = [(1, 1, 1, "2")]
    for i in range(2, n + 1):
        out += [(1, i, i, "1"), (i, i, 1, "1")]
    return out


def relabel(triples, perm: list) -> list:
    return [(perm[i - 1], perm[j - 1], perm[k - 1], c) for (i, j, k, c) in triples]


def form_search(hy, workdir: str, seed: int) -> Workload:
    wl = Workload()
    rng = random.Random(f"{seed}-relabel")
    cases = [(f"I{n}", "prelie", n, family_i(n), "hessian", 1) for n in range(4, 8)]
    cases += [(f"abelian-prelie{n}", "prelie", n, [], "hessian", n * (n + 1) // 2)
              for n in range(3, 8)]
    cases += [(f"abelian-lie{n}", "lie", n, [], "symplectic", n * (n - 1) // 2) for n in (4, 6)]
    for name, kind, n, consts, target, dim in cases:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        doc = {"field": "gaussian_rational",
               "algebras": {"g": {"kind": kind, "dim": n,
                                  "constants": _constants(relabel(consts, perm))}}}
        g = hy.bundle.parse_bundle(doc).algebra("g")
        axioms = hy.algebra.check_lie(g) if kind == "lie" else hy.algebra.check_prelie(g)
        if not axioms.passed:
            wl.setup_errors.append(f"generated algebra {name} fails its axioms")
        path = _write(workdir, name, doc)
        wl.units.append([Job(f"search-forms {target} {name}",
                             ["search-forms", path, "--algebra", "g", "--target", target],
                             {"exit": 0, "space_dim": dim, "exists": True})])
    wl.units = _shuffled(wl.units, seed)
    return wl


# -- cli-requests -------------------------------------------------------


def _render(m) -> list:
    return [[m[i, j].render() for j in range(m.cols)] for i in range(m.rows)]


def derived_maps_bundle(hy, doc: dict, triple: str) -> dict:
    """The corpus bundle plus the triple's derived maps d_i, T_i, N_i, S_i over
    its own representation, so every operator check has a passing input."""
    t = hy.bundle.classify_triple(hy.bundle.parse_bundle(doc), triple)
    out = json.loads(json.dumps(doc))
    alg = doc["triples"][triple]["algebra"]
    out["reps"] = {"coad": {"algebra": alg, "constructor": "coadjoint"}}
    maps = {}
    for i in range(3):
        for letter, lm in (("d", t.d[i]), ("t", t.t[i]), ("n", t.n[i]), ("s", t.s[i])):
            maps[f"{letter}{i + 1}"] = {"domain": lm.domain, "codomain": lm.codomain,
                                        "matrix": _render(lm.matrix)}
    out["maps"] = maps
    return out


def cli_requests(hy, workdir: str, seed: int) -> Workload:
    wl = Workload()
    p = {eid: _write(workdir, eid, hy.corpus.export_bundle(eid)) for eid in CORPUS_IDS}
    nj = _write(workdir, "non-jacobi", hy.corpus.broken_variant("non-jacobi"))
    na = _write(workdir, "non-anticommuting", hy.corpus.broken_variant("non-anticommuting"))
    # a derivation of g is exactly a relative differential operator into the
    # adjoint module, so the identity maps of non-derivation fail `check rdo`
    nd_doc = hy.corpus.broken_variant("non-derivation")
    nd_doc["reps"] = {"ad": {"algebra": "g", "constructor": "adjoint"}}
    nd_doc["maps"]["d1m"] = dict(nd_doc["maps"]["d1"], codomain="module")
    nd = _write(workdir, "non-derivation", nd_doc)
    ops = _write(workdir, "L4sym-ops", derived_maps_bundle(
        hy, hy.corpus.export_bundle("lie.L4sym"), "omega"))

    ok = {"exit": 0, "pass": True}
    jobs = []

    def add(key, argv, expect):
        jobs.append([Job(key, argv, expect)])

    def chk(path, what, *args):
        return ["check", path, "--what", what, "--args", *args]

    for eid, what in (("lie.L4sym", "lie"), ("lie.heis4", "lie"), ("prelie.rot4", "prelie"),
                      ("prelie.I4", "prelie"), ("prelie.A4", "prelie"), ("prelie.B4", "prelie")):
        add(f"check {what} {eid}", chk(p[eid], what, "g"), ok)
    for eid, what, args in (
        ("lie.L4sym", "symplectic", ("g", "w1")), ("lie.L4sym", "symplectic", ("g", "w2")),
        ("lie.L4sym", "symplectic", ("g", "w3")), ("lie.heis4", "symplectic", ("g", "w")),
        ("prelie.rot4", "hessian", ("g", "B1")), ("prelie.rot4", "hessian", ("g", "B2")),
        ("prelie.rot4", "hessian", ("g", "B3")), ("prelie.I4", "hessian", ("g", "B")),
        ("prelie.A4", "hessian", ("g", "B")),
        ("lie.heis4", "hermitian:anti-hermitian", ("g", "w", "I")),
        ("abelian.quat", "hermitian:hermitian", ("a", "B", "mi")),
        ("abelian.para", "hermitian:para-anti-hermitian", ("a", "w", "m3")),
        ("abelian.quat", "invariant-form", ("a", "B")),
        ("abelian.quat", "rep", ("triv",)), ("abelian.quat", "rdo", ("triv", "mi")),
        ("lie.heis4", "nijenhuis", ("g", "I")),
    ):
        add(f"check {what} {eid} {' '.join(args)}", chk(p[eid], what, *args), ok)
    for what, args in (("rep", ("coad",)), ("rdo", ("coad", "d1")),
                       ("o-operator", ("coad", "t2")), ("nijenhuis", ("g", "n3")),
                       ("dn", ("coad", "d1", "n2")), ("kd", ("coad", "t1", "d2")),
                       ("kn", ("coad", "t1", "s2", "n2"))):
        add(f"check {what} L4sym-ops {' '.join(args)}", chk(ops, what, *args), ok)

    for eid, name, eps in CORPUS_TRIPLES:
        add(f"classify-hyper {eid}", ["classify-hyper", p[eid], "--triple", name],
            {"exit": 0, "eps": eps})
        for which in ("hflat", "table"):
            add(f"suite {which} {eid}", ["suite", p[eid], "--triple", name, "--which", which], ok)
        if eps[0] * eps[1] * eps[2] == -1:
            doc = hy.corpus.export_bundle(eid)
            ds = triple_maps(doc, name)
            add(f"decompose {eid}", ["decompose", p[eid], "--triple", name],
                {"exit": 0, "eps": eps, "permutation": [1, 2, 3], "decomposes": ds})
            code, payload = hy.cli.run(["decompose", p[eid], "--triple", name])
            why = check.check_decomposition(payload, ds) if code == 0 else f"exit {code}"
            rpath = os.path.join(workdir, eid + ".rebuild.json")
            if why:  # the reconstruct job then fails on the missing bundle
                wl.setup_errors.append(f"decompose {eid} in set-up: {why}")
            else:
                _write(workdir, eid + ".rebuild", rebuild_bundle(doc, name, payload))
            add(f"reconstruct {eid}", _reconstruct_argv(rpath),
                {"exit": 0, "eps": eps, "rebuilds": ds})

    for eid, alg, target, dim, exists in SEARCH_4DIM:
        add(f"search-forms {target} {eid}",
            ["search-forms", p[eid], "--algebra", alg, "--target", target],
            {"exit": 0, "space_dim": dim, "exists": exists})
    for eid in CORPUS_IDS:
        add(f"corpus run {eid}", ["corpus", "run", eid], ok)
    add("corpus list", ["corpus", "list"], {"exit": 0, "entries": len(CORPUS_IDS)})

    add("broken non-jacobi", chk(nj, "lie", "broken"),
        {"exit": 1, "pass": False, "first_failure": [1, 2, 3]})
    add("broken non-anticommuting",
        ["reconstruct", na, "--rep", "triv", "--hflat", "hflat", "--i1", "i1", "--i2", "i2"],
        {"exit": 3, "pass": False, "first_failure": []})
    add("broken non-derivation", chk(nd, "rdo", "ad", "d1m"),
        {"exit": 1, "pass": False, "first_failure": [1, 2]})

    # both output formats, fixed per request so the mix is the same every seed
    for k, unit in enumerate(jobs):
        unit[0].fmt = "json" if k % 2 == 0 else "text"
    wl.units = _shuffled(jobs, seed)
    wl.probes = [(name, ["check", _write(workdir, f"malformed-{name}", doc),
                         "--what", "lie", "--args", "g"])
                 for name, doc in MALFORMED.items()]
    return wl


WORKLOADS = {
    "triple-suites": triple_suites,
    "form-search": form_search,
    "cli-requests": cli_requests,
}
