#!/usr/bin/env python3
"""Run bench_world_hotpath and summarize BENCH_world.json.

Builds nothing itself: point --bin at an already-built bench_world_hotpath
(default: build/bench/bench_world_hotpath relative to the repo root). The
binary runs the full-rescan ReferenceWorld and the production World over
identical scenarios, cross-checks them bit-for-bit, and writes the JSON
report; this
script renders the events/sec table and can gate on a minimum speedup:

    scripts/bench_world.py                  # full sizes (500, 2000, 10000)
    scripts/bench_world.py --quick          # n in {500, 2000} only
    scripts/bench_world.py --min-speedup 3  # fail unless >= 3x at largest n
    scripts/bench_world.py --before OLD.json
                                            # record OLD.json (the same bench
                                            # run against the parent commit)
                                            # under "before" and print the
                                            # before -> after table
    scripts/bench_world.py --queue-bench    # also run bench_event_queue and
                                            # append its heap-vs-calendar table

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
    ap.add_argument("--bin", default=str(repo / "build" / "bench" / "bench_world_hotpath"),
                    help="path to the bench_world_hotpath binary")
    ap.add_argument("--out", default=str(repo / "BENCH_world.json"),
                    help="where the JSON report is written")
    ap.add_argument("--quick", action="store_true", help="small sizes only")
    ap.add_argument("--sizes", default=None, metavar="N,N,...",
                    help="explicit comma-separated network sizes "
                         "(overrides --quick for the world bench)")
    ap.add_argument("--min-speedup", type=float, default=None, metavar="MIN",
                    help="fail unless the largest measured n reaches MIN x")
    ap.add_argument("--before", default=None, metavar="FILE",
                    help="a BENCH_world.json from the parent commit; stored "
                         "under \"before\" and compared row by row")
    ap.add_argument("--queue-bench", action="store_true",
                    help="also run the bench_event_queue microbench")
    ap.add_argument("--queue-bin",
                    default=str(repo / "build" / "bench" / "bench_event_queue"),
                    help="path to the bench_event_queue binary")
    ap.add_argument("--queue-out", default=str(repo / "BENCH_event_queue.json"),
                    help="where the queue microbench JSON report is written")
    args = ap.parse_args(argv)

    cmd = [args.bin, "--out", args.out]
    if args.sizes:
        cmd.extend(["--sizes", args.sizes])
    elif args.quick:
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
    if report.get("schema") != "wrsn.bench_world.v1":
        print(f"unexpected schema in {args.out}", file=sys.stderr)
        return 2

    rows = report["results"]
    paper = report.get("paper_teleport")
    print(f"\n{'n':>6} {'events':>9} {'ref ev/s':>12} {'inc ev/s':>12} {'speedup':>9}")
    for r in rows + ([paper] if paper else []):
        label = "paper" if r is paper else str(r["n"])
        print(f"{label:>6} {r['events']:>9} {r['ref_events_per_sec']:12.0f} "
              f"{r['inc_events_per_sec']:12.0f} {r['speedup']:8.2f}x")

    if args.before:
        with open(args.before, encoding="utf-8") as fh:
            before = json.load(fh)
        report["before"] = before
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        pairs = [(str(r["n"]), b, r) for r in rows for b in before["results"]
                 if b["n"] == r["n"] and b["events"] == r["events"]]
        if paper and before.get("paper_teleport", {}).get("events") == paper["events"]:
            pairs.append(("paper", before["paper_teleport"], paper))
        print(f"\n{'n':>6} {'before inc ev/s':>16} {'after inc ev/s':>15} "
              f"{'before ref ev/s':>16} {'after ref ev/s':>15}")
        for label, b, r in pairs:
            print(f"{label:>6} {b['inc_events_per_sec']:16.0f} "
                  f"{r['inc_events_per_sec']:15.0f} "
                  f"{b['ref_events_per_sec']:16.0f} {r['ref_events_per_sec']:15.0f}")

    if args.queue_bench:
        qcmd = [args.queue_bin, "--out", args.queue_out]
        if args.quick:
            qcmd.append("--quick")
        try:
            subprocess.run(qcmd, check=True)
        except FileNotFoundError:
            print(f"queue bench binary not found: {args.queue_bin}",
                  file=sys.stderr)
            return 2
        except subprocess.CalledProcessError as err:
            return err.returncode
        with open(args.queue_out, encoding="utf-8") as fh:
            qreport = json.load(fh)
        if qreport.get("schema") != "wrsn.bench_event_queue.v1":
            print(f"unexpected schema in {args.queue_out}", file=sys.stderr)
            return 2
        print(f"\ncores: {qreport.get('cores', '?')}")
        print(f"\n{'dist':<10} {'size':>8} {'heap ns/op':>12} "
              f"{'calendar ns/op':>15} {'speedup':>9}")
        for r in qreport["results"]:
            print(f"{r['dist']:<10} {r['queue_size']:>8} "
                  f"{r['heap_ns_per_op']:12.1f} {r['calendar_ns_per_op']:15.1f} "
                  f"{r['speedup']:8.2f}x")

    if args.min_speedup is not None:
        largest = max(rows, key=lambda r: r["n"])
        if largest["speedup"] < args.min_speedup:
            print(f"CHECK FAILED: {largest['speedup']:.2f}x at n={largest['n']}"
                  f" < required {args.min_speedup:.2f}x", file=sys.stderr)
            return 1
        print("speedup check passed")

    return 0


if __name__ == "__main__":
    sys.exit(run())
