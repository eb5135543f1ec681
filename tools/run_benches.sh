#!/usr/bin/env bash
# Runs the navigation-critical benchmarks (-O2 Release build) and merges
# their JSON into one file for before/after comparisons.
#
# Usage: tools/run_benches.sh [output.json]
#   BUILD_DIR=build-release  tools/run_benches.sh   # override build dir
#   FAULTS_OUT=faults.json   tools/run_benches.sh   # override faults file
#   FLEET_OUT=fleet.json     tools/run_benches.sh   # override fleet file
#   RECOVERY_OUT=rec.json    tools/run_benches.sh   # override recovery file
#
# The output has one top-level key per benchmark binary, each holding the
# raw Google Benchmark JSON (context + benchmarks array). The fault-
# injection benchmarks (bench_recovery under FaultPlan/FaultyJournal) are
# additionally emitted on their own into BENCH_faults.json so the
# robustness numbers can be tracked separately from the navigation ones.
# The scheduler head-to-head (bench_fleet's SkewedBatch, static vs
# stealing) is likewise emitted into BENCH_fleet.json, with aggregate
# repetitions so the speedup ratio is robust to scheduling noise. The
# snapshot-recovery head-to-heads (bench_recovery's RecoverAfterHistory
# with/without checkpoints and FleetRecoverSharded 1-vs-4 shards) land in
# BENCH_recovery.json; note the sharded speedup tracks the machine's core
# count (a 1-core box reports ~1.0).
#
# These are component benchmarks. The end-to-end production path (journal
# attached, audit on, sagas and Figure-3 flex over transactional sites) is
# measured by prodbench/: python3 prodbench/run.py --workload <w>.

set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_nav.json}"
FAULTS_OUT="${FAULTS_OUT:-BENCH_faults.json}"
FLEET_OUT="${FLEET_OUT:-BENCH_fleet.json}"
RECOVERY_OUT="${RECOVERY_OUT:-BENCH_recovery.json}"
BUILD_DIR="${BUILD_DIR:-build}"
BENCHES=(bench_navigation bench_fleet bench_recovery)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${BENCHES[@]}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for b in "${BENCHES[@]}"; do
  echo "== $b ==" >&2
  "$BUILD_DIR/bench/$b" --benchmark_format=json \
    --benchmark_min_time=0.2 > "$tmpdir/$b.json"
done

echo "== bench_recovery (injected faults) ==" >&2
"$BUILD_DIR/bench/bench_recovery" --benchmark_format=json \
  --benchmark_filter='Fault' \
  --benchmark_min_time=0.2 > "$tmpdir/bench_faults.json"

echo "== bench_recovery (snapshot + sharded recovery) ==" >&2
"$BUILD_DIR/bench/bench_recovery" --benchmark_format=json \
  --benchmark_filter='RecoverAfterHistory|FleetRecoverSharded' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  > "$tmpdir/bench_recovery_snap.json"

echo "== bench_fleet (scheduler head-to-head) ==" >&2
"$BUILD_DIR/bench/bench_fleet" --benchmark_format=json \
  --benchmark_filter='SkewedBatch' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  > "$tmpdir/bench_fleet_sched.json"

python3 - "$OUT" "$tmpdir" "${BENCHES[@]}" <<'EOF'
import json, sys
out_path, tmpdir, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = {}
for b in benches:
    with open(f"{tmpdir}/{b}.json") as f:
        merged[b] = json.load(f)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}")
EOF

python3 - "$FAULTS_OUT" "$tmpdir" <<'EOF'
import json, sys
out_path, tmpdir = sys.argv[1], sys.argv[2]
with open(f"{tmpdir}/bench_faults.json") as f:
    merged = {"bench_recovery_faults": json.load(f)}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}")
EOF

python3 - "$FLEET_OUT" "$tmpdir" <<'EOF'
import json, sys
out_path, tmpdir = sys.argv[1], sys.argv[2]
with open(f"{tmpdir}/bench_fleet_sched.json") as f:
    sched = json.load(f)

# Headline speedup from the median aggregates: static vs stealing on the
# skewed batch.
medians = {}
for b in sched.get("benchmarks", []):
    if b.get("aggregate_name") == "median":
        medians[b["run_name"]] = b

summary = {}
def speedup(name, base_key, test_key):
    base, test = medians.get(base_key), medians.get(test_key)
    if base and test:
        summary[name] = round(base["real_time"] / test["real_time"], 3)

speedup("skewed_batch_speedup_stealing",
        "BM_FleetSkewedBatch/stealing:0/real_time",
        "BM_FleetSkewedBatch/stealing:1/real_time")

merged = {"bench_fleet_scheduler": sched, "summary": summary}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}: {summary}")
EOF

python3 - "$RECOVERY_OUT" "$tmpdir" <<'EOF'
import json, sys
out_path, tmpdir = sys.argv[1], sys.argv[2]
with open(f"{tmpdir}/bench_recovery_snap.json") as f:
    rec = json.load(f)

# Headline ratios from the median aggregates. The acceptance number is
# recovery_snapshot_flatness: with checkpoints on, recovery at 10x the
# history must stay flat (<= 1.2x) while full replay grows ~linearly
# (recovery_full_replay_growth). recovery_sharded_speedup is wall-clock
# 1-shard vs 4-shard parallel replay and tracks the core count.
medians = {}
for b in rec.get("benchmarks", []):
    if b.get("aggregate_name") == "median":
        medians[b["run_name"]] = b

summary = {}
def ratio(name, base_key, test_key):
    base, test = medians.get(base_key), medians.get(test_key)
    if base and test:
        summary[name] = round(base["real_time"] / test["real_time"], 3)

for n in (10, 100):
    ratio(f"recovery_snapshot_speedup_{n}",
          f"BM_RecoverAfterHistory/history:{n}/snap:0",
          f"BM_RecoverAfterHistory/history:{n}/snap:1")
ratio("recovery_snapshot_flatness",
      "BM_RecoverAfterHistory/history:100/snap:1",
      "BM_RecoverAfterHistory/history:10/snap:1")
ratio("recovery_full_replay_growth",
      "BM_RecoverAfterHistory/history:100/snap:0",
      "BM_RecoverAfterHistory/history:10/snap:0")
ratio("recovery_sharded_speedup",
      "BM_FleetRecoverSharded/shards:1",
      "BM_FleetRecoverSharded/shards:4")

merged = {"bench_snapshot_recovery": rec, "summary": summary}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}: {summary}")
EOF
