#!/usr/bin/env python3
"""Build the wall-clock benchmark suite from source and run one workload.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds bench/suite with CMake
(RelWithDebInfo) into $CARGO_TARGET_DIR/suite, or .bench_build/suite when the
variable is unset, then runs accel_bench, which writes its full result to
<build>/results. The binary's report is passed through; the last line of
stdout is one JSON object with correct, attempted, failed and the metrics
BENCHMARK.json lists for the mode: end_to_end for --trace 0, per_layer for
--trace 1. The exit code is the binary's: nonzero when a correctness check
failed. When the build fails nothing is run and no result is printed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(ROOT / "bench" / "suite"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "accel_bench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "suite"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [str(build_dir / "accel_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(build_dir / "results")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: accel_bench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: accel_bench ended without a result (exit code "
              f"{proc.returncode})", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: accel_bench did not report {m['name']} in "
                  f"{m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": full["correct"], "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
