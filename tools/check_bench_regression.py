#!/usr/bin/env python3
"""Bench-regression gate for snapshot recovery.

Reads a fresh bench_recovery run (RecoverAfterHistory rows). With
checkpoints on, recovering at 10x the history must stay flat —
t(history:100/snap:1) / t(history:10/snap:1) <= --max-snapshot-flatness
(default 1.2) — and the checkpointed recovery must beat full replay at
the long history by at least --min-snapshot-speedup (default 2.0).
These ratios come from one run on one machine, so they need no
committed baseline. The sharded-recovery speedup is deliberately NOT
gated: it tracks the machine's core count.

The end-to-end production path is gated by prodbench/ (see
prodbench/README.md); this gate stays until prodbench gates the same
property.

Usage:
  build/bench/bench_recovery --benchmark_format=json \
      --benchmark_filter='RecoverAfterHistory' \
      --benchmark_repetitions=3 > fresh_recovery.json
  tools/check_bench_regression.py --recovery-fresh fresh_recovery.json

Exit status: 0 = all gates pass, 1 = regression, 2 = missing data.
"""

import argparse
import json
import sys


def median_times(bench_json):
    """run_name -> representative real_time.

    Prefers the 'median' aggregate (repetition runs); falls back to the
    mean of raw iteration entries so a plain single-rep smoke run works.
    """
    medians = {}
    raw = {}
    for b in bench_json.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        if b.get("aggregate_name") == "median":
            medians[name] = b["real_time"]
        elif b.get("run_type") != "aggregate":
            raw.setdefault(name, []).append(b["real_time"])
    for name, times in raw.items():
        medians.setdefault(name, sum(times) / len(times))
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--recovery-fresh", required=True,
                    help="google-benchmark JSON from a fresh "
                         "bench_recovery RecoverAfterHistory run")
    ap.add_argument("--max-snapshot-flatness", type=float, default=1.2,
                    help="max allowed t(history:100)/t(history:10) with "
                         "snapshots on (default 1.2)")
    ap.add_argument("--min-snapshot-speedup", type=float, default=2.0,
                    help="min required snap:0/snap:1 recovery speedup at "
                         "history:100 (default 2.0)")
    args = ap.parse_args()

    with open(args.recovery_fresh) as f:
        times = median_times(json.load(f))

    def ratio(base_key, test_key):
        base, test = times.get(base_key), times.get(test_key)
        if base is None or test is None or test == 0:
            return None
        return base / test

    flatness = ratio("BM_RecoverAfterHistory/history:100/snap:1",
                     "BM_RecoverAfterHistory/history:10/snap:1")
    speedup = ratio("BM_RecoverAfterHistory/history:100/snap:0",
                    "BM_RecoverAfterHistory/history:100/snap:1")
    if flatness is None or speedup is None:
        print("MISSING: recovery run has no RecoverAfterHistory "
              "history/snap rows")
        return 2

    failures = []
    verdict = "ok" if flatness <= args.max_snapshot_flatness else "REGRESSION"
    print(f"{verdict} snapshot flatness: 10x history costs "
          f"{flatness:.3f}x with checkpoints on, required <= "
          f"{args.max_snapshot_flatness}")
    if flatness > args.max_snapshot_flatness:
        failures.append("snapshot_flatness")
    verdict = "ok" if speedup >= args.min_snapshot_speedup else "REGRESSION"
    print(f"{verdict} snapshot speedup: checkpointed recovery beats "
          f"full replay {speedup:.3f}x at history:100, required >= "
          f"{args.min_snapshot_speedup}")
    if speedup < args.min_snapshot_speedup:
        failures.append("snapshot_speedup")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
