#!/usr/bin/env python3
"""Compare two sets of accel_bench results, workload by workload.

    python3 bench/suite/compare.py --a PATH... --b PATH... [--spec BENCHMARK.json]

Each PATH is a result file written by `accel_bench --out DIR`, a directory of
them, or a baseline file (baselines/<workload>.json, which holds {"runs":
[...]}). Set A is the reference (the parent commit), set B the change. Traced
results are skipped: end-to-end numbers come from untraced runs.

One row per workload and end-to-end metric in BENCHMARK.json: each side's
median and quartiles, the change of B's median against A's, and a verdict.
  better      at least 10 pairs (runs paired in seed order), B wins at
              least 9 in 10 of them (ties count for neither), and the
              medians differ by more than A's quartile distance: the claim
              rule of a speed-up.
  worse       B's median is worse than A's by more than the metric's bound.
  unresolved  a side's spread (quartile distance over median) is wider than
              the bound, unless every run of B reads better (or worse) than
              every run of A.
  within      none of the above: no regression beyond the bound.
Exits 1 when any row is worse or unresolved, or any run failed a correctness
check, else 0.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10


def load_runs(paths):
    """{workload: [run, ...]} from result files, directories and baselines."""
    runs = defaultdict(list)
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    for f in files:
        doc = json.loads(f.read_text())
        for run in doc.get("runs", [doc]):
            if "workload" in run and not run.get("trace", False):
                runs[run["workload"]].append(run)
    for workload in runs:
        runs[workload].sort(key=lambda r: r.get("seed", 0))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, higher_is_better, bound):
    sign = 1 if higher_is_better else -1
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return "better"
    worse_by = sign * (a_med - b_med) / a_med if a_med else 0.0
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) < 0 for x in a for y in b) and worse_by > bound:
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "within"


def main():
    root = Path(__file__).resolve().parents[2]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="reference set")
    parser.add_argument("--b", nargs="+", required=True, help="changed set")
    parser.add_argument("--spec", default=str(root / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    set_a, set_b = load_runs(args.a), load_runs(args.b)
    ok = True
    print(f"{'workload':18} {'metric':14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for workload in sorted(set(set_a) & set(set_b)):
        for side, runs in (("A", set_a[workload]), ("B", set_b[workload])):
            bad = [r.get("seed") for r in runs
                   if not r["correct"] or r["failed"] > 0]
            if bad:
                ok = False
                print(f"{workload:18} set {side}: runs with failures, seeds {bad}")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in set_a[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in set_b[workload]]
            v = verdict(a, b, m["better"] == "higher", m["bound"])
            ok = ok and v in ("within", "better")
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            change = (b_med - a_med) / a_med if a_med else 0.0
            print(f"{workload:18} {m['name']:14} "
                  f"{a_med:12.5g} [{a_q1:9.5g}, {a_q3:9.5g}] "
                  f"{b_med:12.5g} [{b_q1:9.5g}, {b_q3:9.5g}] "
                  f"{change:+8.1%}  {v} (bound {m['bound']:.0%}, "
                  f"n={len(a)}/{len(b)})")
    only = sorted(set(set_a) ^ set(set_b))
    if only:
        print("workloads in one set only: " + ", ".join(only))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
