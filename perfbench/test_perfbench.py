#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/test_perfbench.py      (from the root of a checkout)

Runs every workload tiny (--smoke) in both modes through run.py and
asserts the benchmark's contract: every metric BENCHMARK.json names is
emitted with its unit, no check failed, greedy group commit with at most
nproc client threads, and the traced run reports the ledger residual.
Also checks that the benchmark fails cleanly in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_workload_both_modes(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                    lines = proc.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    wanted = spec["per_layer"] if trace else spec["end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in wanted})
                    for m in wanted:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"], m["name"])

                    failed_share = [l for l in lines
                                    if l.startswith("failed_op_share ")]
                    self.assertEqual(len(failed_share), 1)
                    self.assertEqual(float(failed_share[0].split()[1]), 0.0)

                    run_line = [l for l in lines if l.startswith("# run ")]
                    self.assertEqual(len(run_line), 1)
                    meta = json.loads(run_line[0][len("# run "):])
                    self.assertEqual(meta["commit_max_delay_us"], 0)
                    self.assertLessEqual(meta["clients"], meta["nproc"])
                    self.assertLessEqual(meta["clients"], 4)
                    self.assertEqual(meta["seed"], 7)
                    if trace:
                        self.assertIn("ledger.unattributed_share",
                                      result["metrics"])
                        self.assertIn("trace.overhead_share",
                                      result["metrics"])

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("kv-update", 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.strip().split("\n"):
                self.assertFalse(line.startswith("{"), line)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
