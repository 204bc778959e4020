#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories of result files written by ``bench/run.py``
(it writes them to ``.bench_out/results/``; copy them aside between
commits). Prints one row per workload and end-to-end metric with each side's
median and quartiles and a verdict against the metric's bound in
BENCHMARK.json, then a per-layer diff of the traced runs' medians.

Verdicts, with change = NEW median against BASE median, signed so that a
positive change is worse:
  unresolved  either side's quartile spread exceeds the bound, and neither
              side's runs are all better than all of the other's
  worse       change > bound (or, when unresolved, every NEW run is worse)
  improved    NEW is better by more than BASE's quartile spread and NEW's
              worse quartile is better than BASE's better quartile (or, when
              unresolved, every NEW run is better)
  unchanged   otherwise
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """(workload, trace) -> list of (meta, result)."""
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            data = json.load(fh)
        meta = data["meta"]
        runs[(meta["workload"], meta["trace"])].append((meta, data["result"]))
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list, new: list, bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / bmed if bmed else 0, (nq3 - nq1) / nmed if nmed else 0)
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound:
        return "improved" if all_better else "worse" if all_worse else "unresolved"
    if change > bound:
        return "worse"
    base_best, new_worst = (bq1, nq3) if sign == 1 else (bq3, nq1)
    if -change * bmed > bq3 - bq1 and sign * new_worst < sign * base_best:
        return "improved"
    return "unchanged"


def _metric_values(runs: list, name: str) -> list:
    return [r["metrics"][name]["value"] for _, r in runs if name in r["metrics"]]


def _describe(label: str, runs: dict) -> None:
    metas = [m for rs in runs.values() for m, _ in rs]
    keys = ("commit", "python", "cpu_count", "src_lines")
    seen = {k: sorted({str(m.get(k)) for m in metas}) for k in keys}
    print(f"{label}: {len(metas)} runs; " + "; ".join(f"{k} {','.join(v)}" for k, v in seen.items()))
    bad = sum(1 for rs in runs.values() for _, r in rs if not r["correct"])
    if bad:
        print(f"  {bad} of them report correct = false")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(argv[0]), load(argv[1])
    _describe("base", base)
    _describe("new ", new)

    print(f"\n{'workload':14s} {'metric':12s} {'base q1/med/q3':>28s} {'new q1/med/q3':>28s}"
          f" {'change':>8s}  verdict")
    for wl in spec["workloads"]:
        for m in spec["end_to_end"]:
            b = _metric_values(base.get((wl["name"], 0), []), m["name"])
            n = _metric_values(new.get((wl["name"], 0), []), m["name"])
            if not b or not n:
                print(f"{wl['name']:14s} {m['name']:12s} {'(no runs)':>28s}")
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(f"{wl['name']:14s} {m['name']:12s} "
                  f"{'/'.join(f'{v:.4g}' for v in bq):>28s} {'/'.join(f'{v:.4g}' for v in nq):>28s}"
                  f" {change:+8.1%}  {verdict(b, n, m['bound'], m['better'])}"
                  f" (bound {m['bound']:.0%}, n={len(b)}/{len(n)})")

    print(f"\nper-layer medians of traced runs\n{'workload':14s} {'metric':40s}"
          f" {'base':>12s} {'new':>12s} {'change':>8s}")
    for wl in spec["workloads"]:
        for m in spec["per_layer"]:
            b = _metric_values(base.get((wl["name"], 1), []), m["name"])
            n = _metric_values(new.get((wl["name"], 1), []), m["name"])
            if not b and not n:
                continue
            bm = statistics.median(b) if b else float("nan")
            nm = statistics.median(n) if n else float("nan")
            change = f"{(nm - bm) / bm:+8.1%}" if b and n and bm else f"{'':8s}"
            print(f"{wl['name']:14s} {m['name']:40s} {bm:12.5g} {nm:12.5g} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
