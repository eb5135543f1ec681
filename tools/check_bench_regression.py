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

Each row is represented by its fastest repetition. The two snap:1 rows
take 15-25 us and replay the same single snapshot record, so their
ratio is noise around 1.0; on a shared 4-vCPU VM one run's repetitions
of one row spread from 14 to 22 us. With the median of 3 repetitions,
unchanged code failed flatness in 1 of 12 runs (0.88-1.22). The fastest
of 9 randomly interleaved repetitions is each row's cost with the least
interference, and interleaving spreads slow phases of the machine over
all rows alike: 20 of 20 runs passed (0.79-1.19), and a recovery that
ignores the snapshot still reads ~11x.

Because the two snap:1 rows do identical work by design, their time
ratio shows noise, not a regression, unless the regression is large.
The gate therefore also checks the exact work counters the bench
reports beside each row's time: both snap:1 rows must replay the same
number of records (records_replayed) and rebuild the same number of
instances (arena_spinups), and at history:100 full replay (snap:0)
must replay at least MIN_REPLAY_RATIO (2) times the records the
snapshot path does. A recovery that ignores the snapshot fails the
first and third checks; a checkpoint that keeps finished families
fails the second. A row without these counters is missing data.

The end-to-end production path is gated by prodbench/ (see
prodbench/README.md); this gate stays until prodbench gates the same
property.

Usage:
  build/bench/bench_recovery --benchmark_format=json \
      --benchmark_filter='RecoverAfterHistory' \
      --benchmark_repetitions=9 \
      --benchmark_enable_random_interleaving=true > fresh_recovery.json
  tools/check_bench_regression.py --recovery-fresh fresh_recovery.json

Exit status: 0 = all gates pass, 1 = regression, 2 = missing data.
"""

import argparse
import json
import sys


def fastest_times(bench_json):
    """run_name -> representative real_time.

    The fastest repetition of each row. Output written with
    --benchmark_report_aggregates_only has no repetitions; there the
    'median' aggregate stands in.
    """
    fastest = {}
    medians = {}
    for b in bench_json.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        if b.get("run_type") != "aggregate":
            fastest[name] = min(fastest.get(name, b["real_time"]),
                                b["real_time"])
        elif b.get("aggregate_name") == "median":
            medians[name] = b["real_time"]
    for name, time in medians.items():
        fastest.setdefault(name, time)
    return fastest


COUNTERS = ("records_replayed", "arena_spinups")

# At history:100, full replay must stream at least this many times the
# records the snapshot path replays (it streams ~10000x on unchanged code).
MIN_REPLAY_RATIO = 2.0


def row_counters(bench_json):
    """run_name -> {counter: set of the values its runs reported}.

    Repetitions and the median aggregate are all read: a deterministic
    counter reports one value per row.
    """
    rows = {}
    for b in bench_json.get("benchmarks", []):
        if (b.get("run_type") == "aggregate"
                and b.get("aggregate_name") != "median"):
            continue
        row = rows.setdefault(b.get("run_name", b.get("name")), {})
        for counter in COUNTERS:
            if counter in b:
                row.setdefault(counter, set()).add(b[counter])
    return rows


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
        bench = json.load(f)
    times = fastest_times(bench)
    rows = row_counters(bench)

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

    short = "BM_RecoverAfterHistory/history:10/snap:1"
    long_ = "BM_RecoverAfterHistory/history:100/snap:1"
    full = "BM_RecoverAfterHistory/history:100/snap:0"
    counts = {}
    for name in (short, long_, full):
        for counter in COUNTERS:
            values = rows.get(name, {}).get(counter)
            if not values:
                print(f"MISSING: {name} reports no {counter} counter")
                return 2
            counts[name, counter] = values

    failures = []
    for counter in COUNTERS:
        a, b = counts[short, counter], counts[long_, counter]
        same = len(a) == 1 and a == b
        verdict = "ok" if same else "REGRESSION"
        print(f"{verdict} snapshot work: {counter} at history:10 "
              f"{sorted(a)} vs history:100 {sorted(b)}, required equal")
        if not same:
            failures.append(f"snapshot_{counter}")
    replay_ratio = (max(counts[full, "records_replayed"])
                    / max(max(counts[long_, "records_replayed"]), 1))
    verdict = "ok" if replay_ratio >= MIN_REPLAY_RATIO else "REGRESSION"
    print(f"{verdict} snapshot replay: full replay streams "
          f"{replay_ratio:.1f}x the records at history:100, required >= "
          f"{MIN_REPLAY_RATIO}")
    if replay_ratio < MIN_REPLAY_RATIO:
        failures.append("snapshot_replay_ratio")

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
