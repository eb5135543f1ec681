#!/usr/bin/env python3
"""Builds and runs the production-path benchmark from the repository root.

    python3 prodbench/run.py --workload saga_oltp --seed 1 --seconds 10 --trace 0
    python3 prodbench/run.py --self-test

The engine libraries are built from src/ together with the benchmark
(Release, CMake) into .bench_build/prodbench; journals and span dumps go
to .bench_out/. The last line of standard output is the JSON result of
the benchmark binary. --self-test runs every workload at a tiny size,
checks that every metric named in BENCHMARK.json is printed with its unit,
and checks that the outcome checker flags a planted fault.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "prodbench")
BINARY = os.path.join(BUILD_DIR, "prodbench")
WORKLOADS = ["saga_oltp", "flex_fig3", "crash_recover", "fleet_mix"]


def fail(message):
    print("prodbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found under " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "prodbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def run_bench(args, capture=False):
    cmd = [BINARY] + args
    if capture:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout
    return subprocess.run(cmd, cwd=ROOT).returncode, None


def result_of(output):
    lines = [l for l in output.splitlines() if l.strip()]
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1])


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tiny = ["--seconds", "0.2", "--epoch-instances", "64"]
    problems = []
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_bench(["--workload", workload, "--seed", "7",
                                   "--trace", trace] + tiny, capture=True)
            if code != 0:
                problems.append("%s trace %s: exit %d" % (workload, trace, code))
                continue
            res = result_of(out)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s trace %s: not correct: %s"
                                % (workload, trace, out.splitlines()[:5]))
            for metric in spec[section]:
                got = res["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s trace %s: metric %s missing or unit "
                                    "differs" % (workload, trace,
                                                 metric["name"]))
            extra = set(res["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                problems.append("%s trace %s: undeclared metrics %s"
                                % (workload, trace, sorted(extra)))
    # The planted fault: compensations reported committed but never run.
    for workload in ["saga_oltp", "flex_fig3", "crash_recover"]:
        code, out = run_bench(["--workload", workload, "--seed", "7",
                               "--trace", "0", "--plant-fault"] + tiny,
                              capture=True)
        res = result_of(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append("%s: the checker missed the planted fault"
                            % workload)
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    code, _ = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
