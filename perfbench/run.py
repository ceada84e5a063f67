#!/usr/bin/env python3
"""Campaign benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck

Builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload. The last stdout line is the JSON result. `--workload all` runs
every workload with tracing off and prints each end-to-end metric with its
unit. `--selfcheck` runs every workload at a short horizon in both modes and
checks the result against BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_table2", "dispatch_heavy", "scale_rwp"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then (re)builds; build output goes to stderr."""
    if not (ROOT / "src").is_dir() or not (ROOT / "configs" / "paper_table2.cfg").is_file():
        fail(f"{ROOT} is not a full checkout (src/ and configs/ are missing)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--config-dir", str(ROOT / "configs"),
           "--out-dir", str(build_dir() / "trace"), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: exit code {proc.returncode}")
    return lines, json.loads(lines[-1])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def selfcheck(binary):
    """Short-horizon run of every workload in both modes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, res = run_workload(binary, workload, 1, 1, trace,
                                  ["--horizon-scale", "0.05", "--units", "1"])
            names = sorted(res["metrics"])
            problems = []
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("correctness checks failed")
            if names != sorted(expected_metrics(trace)):
                problems.append("metric names differ from BENCHMARK.json")
            if trace == 0 and any(m["value"] <= 0 for m in res["metrics"].values()):
                problems.append("an end-to-end metric is not positive")
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary)
    if args.workload != "all":
        lines, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return 0

    for workload in WORKLOADS:
        lines, res = run_workload(binary, workload, args.seed, args.seconds, 0)
        print(f"{workload}:")
        for name, m in res["metrics"].items():
            print(f"  {name:<14} {m['value']:>14.6g} {m['unit']}")
        ratio = res["failed"] / res["attempted"]
        print(f"  {'fail_ratio':<14} {ratio:>14.6g} ({res['failed']}/{res['attempted']} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
