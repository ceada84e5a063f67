#!/usr/bin/env python3
"""Run bench_planner_hotpath and summarize BENCH_planner.json.

Builds nothing itself: point --bin at an already-built bench_planner_hotpath
(default: build/bench/bench_planner_hotpath relative to the repo root). The
binary writes the JSON report; this script renders the old-vs-new table and
can gate on minimum speedups:

    scripts/bench_planner.py                       # full sizes
    scripts/bench_planner.py --quick               # n in {100, 500} only
    scripts/bench_planner.py --check greedy_next:3 --check partition_round:3
                                                   # fail unless >= 3x at the
                                                   # largest measured n

Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys


def run(argv: list[str] | None = None) -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bin", default=str(repo / "build" / "bench" / "bench_planner_hotpath"),
                    help="path to the bench_planner_hotpath binary")
    ap.add_argument("--out", default=str(repo / "BENCH_planner.json"),
                    help="where the JSON report is written")
    ap.add_argument("--quick", action="store_true", help="small sizes only")
    ap.add_argument("--check", action="append", default=[], metavar="KERNEL:MIN",
                    help="fail unless KERNEL reaches MIN x speedup at the "
                         "largest measured n (repeatable)")
    args = ap.parse_args(argv)

    cmd = [args.bin, "--out", args.out]
    if args.quick:
        cmd.append("--quick")
    try:
        subprocess.run(cmd, check=True)
    except FileNotFoundError:
        print(f"bench binary not found: {args.bin} (build with cmake first)",
              file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as err:
        return err.returncode

    with open(args.out, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != "wrsn.bench_planner.v1":
        print(f"unexpected schema in {args.out}", file=sys.stderr)
        return 2

    rows = report["results"]
    print(f"\ncores: {report.get('cores', '?')}")
    print(f"\n{'kernel':<22} {'n':>6} {'ref ns/op':>14} {'opt ns/op':>14} {'speedup':>9}")
    for r in rows:
        print(f"{r['kernel']:<22} {r['n']:>6} {r['ref_ns_per_op']:14.0f} "
              f"{r['opt_ns_per_op']:14.0f} {r['speedup']:8.2f}x")

    failures = []
    for spec in args.check:
        kernel, _, minimum = spec.partition(":")
        want = float(minimum) if minimum else 1.0
        measured = [r for r in rows if r["kernel"] == kernel]
        if not measured:
            failures.append(f"{kernel}: no rows in report")
            continue
        best_n = max(measured, key=lambda r: r["n"])
        if best_n["speedup"] < want:
            failures.append(f"{kernel}: {best_n['speedup']:.2f}x at n={best_n['n']}"
                            f" < required {want:.2f}x")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if not failures and args.check:
        print("all speedup checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
