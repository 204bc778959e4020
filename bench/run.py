#!/usr/bin/env python3
"""Layered benchmark for hyperops.

    python3 bench/run.py --workload triple-suites --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop (one client, one thread: the next CLI
request is sent when the previous one returns) through ``hyperops.cli.main``
in-process, checks every answer, and prints as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a few
untraced passes are followed by traced passes, and the metrics are the
per-layer ones. Every time reported is calibrated against a reference kernel
(see calibrate.py). Each run also writes its result, with the Python
version, CPU count, commit, seed and ``src/`` line count, to
``.bench_out/results/``; ``bench/compare.py`` compares two sets of such
files. Uses the standard library only, and the hyperops sources under
``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("scalars", "linalg", "algebra", "operators", "hyper", "geometry", "search",
           "bundle", "reporting", "cli", "corpus")
SETUP_REPEATS = 7
MIN_PASSES = 3          # untraced passes in a --trace 0 run
OVERHEAD_PASSES = 2     # untraced passes that a --trace 1 run compares against
MIN_TRACED_PASSES = 2

# counts the ROADMAP gives for `suite derived` on lie.L4sym at the seed commit
ROADMAP_JOB = "suite derived lie.L4sym"
ROADMAP_COUNTS = {"is_o_operator": 57, "is_nijenhuis": 45, "deformed_bracket": 18,
                  "is_dual_nijenhuis_pair": 18, "deformed_representation": 12}


def import_hyperops() -> SimpleNamespace:
    """A fresh import of every hyperops module from the checkout's src/."""
    for name in [n for n in sys.modules if n == "hyperops" or n.startswith("hyperops.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("hyperops")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hyperops was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hyperops.{m}") for m in MODULES})


def run_job(cli, argv: list):
    """(exit code or None if it raised, seconds, stdout or the exception)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            return None, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return code, seconds, buf.getvalue()


def run_pass(wl, cli, cal, tracer=None, pass_no=0) -> dict:
    """One pass over the workload. A job's latency is its request; its
    stretch, which makes up the pass time, adds its check and any client
    step. Both are calibrated (calibrate.py); the reference timer is off in
    traced passes, whose spans it would otherwise enter."""
    jobs = {}
    calibrated = raw = 0.0
    with cal.ticking(tracer is None):
        cal.sample()
        first = cal.mark()
        for unit in wl.units:
            for job in unit:
                mark = cal.mark()
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.job = (pass_no, job.key)
                code, seconds, out = run_job(cli, job.command())
                if tracer is not None:
                    tracer.job = None
                in_job = cal.spent - mark[1]
                v = {"mats": {}, "claims": 0}
                if code is None:
                    why = out
                else:
                    try:
                        v = check.view(job.fmt, out)
                        why = check.check(job.expect, code, v)
                    except (ValueError, KeyError, TypeError) as exc:
                        why = f"unreadable output: {exc!r}"
                if job.after is not None:
                    job.after(v)
                stretch = time.perf_counter() - t0 - (cal.spent - mark[1])
                cal.sample()
                factor = cal.factor(mark)
                calibrated += stretch * factor
                raw += stretch
                jobs[job.key] = {"seconds": (seconds - in_job) * factor, "raw_seconds": seconds,
                                 "why": why, "fmt": job.fmt, "out": out, "claims": v["claims"]}
    return {"wall": calibrated, "raw_wall": raw, "jobs": jobs, "factor": cal.factor(first)}


def measure(wl, cli, cal, seconds: float, min_passes: int) -> list:
    """Untraced whole passes until the next would end after `seconds`, at
    least min_passes."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, cli, cal))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) > seconds:
            return passes


def percentile(values, q: int) -> float:
    """q-th percentile, linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, passes: list) -> dict:
    keys = passes[0]["jobs"].keys()
    per_job_ms = [statistics.median(p["jobs"][k]["seconds"] for p in passes) * 1000
                  for k in keys]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p["wall"] for p in passes), "s"),
        "job_p50_ms": (percentile(per_job_ms, 50), "ms"),
        "job_p90_ms": (percentile(per_job_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _self(r: dict, prefix: str) -> float:
    return sum(v for k, v in r["self_s"].items() if k == prefix or k.startswith(prefix + "."))


# per-layer metric -> (unit, value from one traced pass's reduction)
LAYER = {
    "operators.pred.calls": ("count", lambda r: r["pred_calls"]),
    "operators.pred.distinct_ratio": (
        "ratio", lambda r: r["pred_distinct"] / r["pred_calls"] if r["pred_calls"] else 0.0),
    "operators.is_o_operator.calls": ("count", lambda r: r["calls"]["operators.is_o_operator"]),
    "operators.is_nijenhuis.calls": ("count", lambda r: r["calls"]["operators.is_nijenhuis"]),
    "operators.is_rdo.calls": ("count", lambda r: r["calls"]["operators.is_rdo"]),
    "operators.is_dual_nijenhuis_pair.calls": (
        "count", lambda r: r["calls"]["operators.is_dual_nijenhuis_pair"]),
    "operators.deformed.calls": ("count", lambda r: r["calls"]["operators.deformed_bracket"]
                                 + r["calls"]["operators.deformed_representation"]),
    "operators.self_s": ("s", lambda r: _self(r, "operators")),
    "scalars.ops": ("count", lambda r: r["counts"]["scalars.ops"]),
    "scalars.inv": ("count", lambda r: r["counts"]["scalars.inv"]),
    "scalars.parse": ("count", lambda r: r["counts"]["scalars.parse"]),
    "scalars.render": ("count", lambda r: r["counts"]["scalars.render"]),
    "linalg.matmul.calls": ("count", lambda r: r["calls"]["linalg.matmul"]),
    "linalg.matmul.self_s": ("s", lambda r: _self(r, "linalg.matmul")),
    "linalg.elim.calls": ("count", lambda r: r["calls"]["linalg.elim"]),
    "linalg.elim.self_s": ("s", lambda r: _self(r, "linalg.elim")),
    "linalg.poly.ops": ("count", lambda r: r["counts"]["linalg.poly.ops"]),
    "linalg.generic_det.self_s": ("s", lambda r: _self(r, "linalg.generic_det")),
    "linalg.generic_det.terms": ("count", lambda r: r["det_terms"]),
    "search.solve_forms.self_s": ("s", lambda r: _self(r, "search.solve_forms")),
    "algebra.bracket.calls": ("count", lambda r: r["calls"]["algebra.bracket"]),
    "algebra.bracket.self_s": ("s", lambda r: _self(r, "algebra.bracket")),
    "algebra.product.calls": ("count", lambda r: r["calls"]["algebra.product"]),
    "algebra.check.self_s": ("s", lambda r: _self(r, "algebra.check")),
    "hyper.classify.self_s": ("s", lambda r: _self(r, "hyper.classify")),
    "hyper.suites.self_s": ("s", lambda r: _self(r, "hyper.suites")),
    "hyper.decompose.self_s": ("s", lambda r: _self(r, "hyper.decompose")),
    "geometry.form_checks.calls": ("count", lambda r: r["calls"]["geometry.form_checks"]),
    "geometry.self_s": ("s", lambda r: _self(r, "geometry")),
    "bundle.parse.self_s": ("s", lambda r: _self(r, "bundle.parse")),
    "reporting.to_json.self_s": ("s", lambda r: _self(r, "reporting.to_json")),
    "cli.self_s": ("s", lambda r: _self(r, "cli")),
    "corpus.run_example.self_s": ("s", lambda r: _self(r, "corpus.run_example")),
}


def per_layer(reductions: list, untraced: list, traced: list, unwrapped: int) -> dict:
    out = {name: (statistics.median(f(r) for r in reductions), unit)
           for name, (unit, f) in LAYER.items()}
    claims = [sum(j["claims"] for j in p["jobs"].values()) for p in traced]
    out["reporting.claims"] = (statistics.median(claims), "count")
    out["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                   / statistics.median(p["wall"] for p in untraced), "ratio")
    out["trace.unwrapped_refs"] = (unwrapped, "count")
    return out


def report_sha256(passes: list) -> tuple:
    """sha256 over the canonical JSON reports of one pass, in job-name order."""
    jobs = passes[0]["jobs"]
    h = hashlib.sha256()
    keys = sorted(k for k, j in jobs.items() if j["fmt"] == "json" and j["why"] is None)
    for k in keys:
        h.update(k.encode() + b"\n" + jobs[k]["out"].encode() + b"\n")
    return h.hexdigest(), len(keys)


def commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_probes(wl, cli) -> list:
    """Known-failure requests, run once outside the measured mix."""
    out = []
    for name, argv in wl.probes:
        code, _, text = run_job(cli, argv + ["--format", "json"])
        status = f"exit {code}" if code is not None else text.split(":")[0]
        out.append({"probe": name, "expected": "exit 2", "got": status})
        print(f"known_failure {name}: expected exit 2, got {status}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hyperops", "__init__.py")):
        print(f"error: no hyperops sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    workdir = None
    try:
        cal, times = calibrate.Calibrator(), []
        for _ in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir)
            with cal.ticking():
                cal.sample()
                mark = cal.mark()
                t0 = time.perf_counter()
                hy = import_hyperops()
                workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT)
                wl = WORKLOADS[args.workload](hy, workdir, args.seed)
                seconds = time.perf_counter() - t0 - (cal.spent - mark[1])
                cal.sample()
            times.append(seconds * cal.factor(mark))
        setup_s = statistics.median(times)

        extra = {}
        if args.trace == 0:
            passes = measure(wl, hy.cli, cal, args.seconds, MIN_PASSES)
            metrics = end_to_end(setup_s, passes)
        else:
            t_untraced = time.perf_counter()
            untraced = measure(wl, hy.cli, cal, 0, OVERHEAD_PASSES)
            left = args.seconds - (time.perf_counter() - t_untraced)
            tracer = Tracer()
            tracer.install()
            unwrapped = tracer.unwrapped_refs()
            for ref in unwrapped:
                print(f"trace: unwrapped reference {ref}")
            for name in tracer.missing:
                print(f"trace: wrap target not found: {name}")
            traced, reductions = [], []
            start = time.perf_counter()
            while True:
                mark = tracer.mark()
                traced.append(run_pass(wl, hy.cli, cal, tracer, len(traced)))
                r = tracer.reduce(mark)
                r["self_s"] = {k: v * traced[-1]["factor"] for k, v in r["self_s"].items()}
                reductions.append(r)
                elapsed = time.perf_counter() - start
                if len(traced) >= MIN_TRACED_PASSES and elapsed + elapsed / len(traced) > left:
                    break
            tracer.uninstall()
            metrics = per_layer(reductions, untraced, traced, len(unwrapped))
            if ROADMAP_JOB in traced[0]["jobs"]:
                calls = tracer.job_calls((0, ROADMAP_JOB))
                got = {f: calls[f"operators.{f}"] for f in ROADMAP_COUNTS}
                same = "reproduced" if got == ROADMAP_COUNTS else "differ"
                print(f"roadmap_counts {ROADMAP_JOB}: "
                      + " ".join(f"{f}={got[f]}/{n}" for f, n in ROADMAP_COUNTS.items())
                      + f" -> {same}")
                extra["roadmap_counts"] = got
            tracer.write(os.path.join(OUT, f"spans-{args.workload}.tsv"))
            passes = untraced + traced
        probes = run_probes(wl, hy.cli)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    failures = [(k, j["why"]) for p in passes for k, j in p["jobs"].items() if j["why"]]
    for k, why in sorted(set(failures)):
        print(f"FAILED {k}: {why}")
    for err in wl.setup_errors:
        print(f"FAILED set-up: {err}")
    attempted = sum(len(p["jobs"]) for p in passes)
    sha, n_reports = report_sha256(passes)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "commit": commit(), "src_lines": src_lines(),
            "passes": len(passes), "jobs_per_pass": len(passes[0]["jobs"]),
            "reference_nominal_s": calibrate.NOMINAL_S,
            "pass_s": [p["wall"] for p in passes],
            "pass_raw_wall_s": [p["raw_wall"] for p in passes],
            "pass_factor": [p["factor"] for p in passes],
            "report_sha256": sha, "json_reports": n_reports,
            "job_median_ms": {k: statistics.median(p["jobs"][k]["seconds"] for p in passes) * 1000
                              for k in passes[0]["jobs"]}}
    for k in ("python", "cpu_count", "commit", "src_lines", "passes", "jobs_per_pass"):
        print(f"{k}: {meta[k]}")
    print(f"pass raw wall s: {statistics.median(meta['pass_raw_wall_s']):.4g}; calibration factor:"
          f" {statistics.median(meta['pass_factor']):.4g}")
    print(f"report_sha256: {sha} ({n_reports} JSON reports)")
    if args.trace == 0:
        print(f"job_samples: {attempted} ({meta['jobs_per_pass']} jobs x {len(passes)} passes;"
              " percentiles are over per-job medians)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not failures and not wl.setup_errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(OUT, "results", f"{args.workload}-trace{args.trace}-seed{args.seed}"
                        f"-{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result, "probes": probes, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
