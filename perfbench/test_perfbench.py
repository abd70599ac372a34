#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds pfm_perfbench like perfbench/run.py does (same build tree), then
checks that trace replay reproduces the native run it was recorded
from, that a tiny-budget run of every workload prints exactly the
metrics BENCHMARK.json declares, that deferred_gap_pp exposes the known
deferred-attach defect, and that the benchmark refuses to run without
the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    smoke_results = {}

    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def smoke(self, workload, trace):
        key = (workload, trace)
        if key not in self.smoke_results:
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            self.assertEqual(p.returncode, 0, p.stderr[-2000:])
            self.smoke_results[key] = result_of(p.stdout)
        return self.smoke_results[key]

    def test_trace_replay_matches_native_at_default_seed(self):
        work = os.path.join(run.build_dir(), "work", "selftest")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        p = subprocess.run([self.exe, "--selftest", "trace-native"],
                           cwd=work, capture_output=True, text=True,
                           timeout=600)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-2000:])

    def test_smoke_run_prints_every_metric(self):
        for w in (x["name"] for x in self.spec["workloads"]):
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    res = self.smoke(w, trace)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = [(m["name"], m["unit"])
                            for m in self.spec[section]]
                    got = [(n, m["unit"])
                           for n, m in res["metrics"].items()]
                    self.assertEqual(got, want)
                    if trace == "0":
                        for n, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, n)

    def test_deferred_gap_shows_the_deferred_attach_defect(self):
        # Classic-mode fig17 prefetchers speed their workloads up by
        # 20-230%; attached at the warmup boundary they measure as inert.
        # The gap must report that, not hide it.
        for w in ("daemon-sweep", "native-mix"):
            with self.subTest(workload=w):
                gap = self.smoke(w, "0")["metrics"]["deferred_gap_pp"]
                self.assertGreater(gap["value"], 10.0)

    def test_refuses_to_run_without_simulator_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "native-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
