#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls reuse
the build. The benchmark's own output is passed through; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds exactly the end_to_end (--trace 0) or
per_layer (--trace 1) metrics named in BENCHMARK.json. Exits non-zero
when the build fails, a named metric is missing or has another unit, or
any correctness check of the benchmark failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; for the self-test")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("benchmark printed no result (exit code %d)" % proc.returncode)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s was not emitted" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    out = {"correct": bool(result["correct"]) and proc.returncode == 0,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    print(json.dumps(out))
    sys.stdout.flush()
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
