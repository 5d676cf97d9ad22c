#!/usr/bin/env python3
"""Self-test of tools/check_bench.py: every gate rule can fail.

Each case writes a committed artifact and a fake bench. The fake bench is
a script that reads its behaviour from the environment the gate exports
from the committed ``config`` (which file to copy to ``IBFS_BENCH_OUT``,
which exit code to return), so every case also exercises the config
export. Run directly or through ctest (``check_bench_test``):

    python3 tools/check_bench_test.py
"""

import copy
import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench.py")

FAKE_BENCH = """#!{python}
import os, shutil, sys
shutil.copy(os.environ["FAKE_FRESH"], os.environ["IBFS_BENCH_OUT"])
sys.exit(int(os.environ["FAKE_EXIT"]))
"""


def metric(name, clock, value, better="lower"):
    return {"name": name, "unit": "u", "clock": clock, "better": better,
            "value": value, "spread": 0}


BASE = {
    "schema": "ibfs.bench",
    "schema_version": 1,
    "bench": "fake",
    "host": {"cpus": 1, "cpu_model": "test", "compiler": "none",
             "build_type": "Release"},
    "config": {},
    "repeats": 1,
    "metrics": [
        metric("sim_seconds", "sim", 2.5e-4),
        metric("load_transactions", "count", 654100),
        metric("p50_ms", "wall", 2.0, "lower"),
        metric("qps", "wall", 400.0, "higher"),
    ],
}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.bench = os.path.join(self.tmp.name, "fake_bench")
        with open(self.bench, "w", encoding="utf-8") as f:
            f.write(FAKE_BENCH.format(python=sys.executable))
        os.chmod(self.bench, os.stat(self.bench).st_mode | stat.S_IXUSR)

    def gate(self, fresh_metrics, exit_code=0):
        """Runs the gate on BASE vs a fresh run reporting fresh_metrics."""
        fresh = copy.deepcopy(BASE)
        fresh["metrics"] = fresh_metrics
        fresh_path = os.path.join(self.tmp.name, "fresh.json")
        with open(fresh_path, "w", encoding="utf-8") as f:
            json.dump(fresh, f)
        committed = copy.deepcopy(BASE)
        committed["config"] = {"FAKE_FRESH": fresh_path,
                               "FAKE_EXIT": exit_code}
        committed_path = os.path.join(self.tmp.name, "BENCH_fake.json")
        with open(committed_path, "w", encoding="utf-8") as f:
            json.dump(committed, f)
        return subprocess.run(
            [sys.executable, GATE, committed_path, self.bench],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    @staticmethod
    def with_values(**values):
        metrics = copy.deepcopy(BASE["metrics"])
        for m in metrics:
            m["value"] = values.get(m["name"], m["value"])
        return metrics

    def assert_fails(self, run, needle):
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn(needle, run.stdout)

    def test_within_band_passes(self):
        run = self.gate(self.with_values(p50_ms=2.0 * 3.9, qps=400.0 / 3.9))
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertIn("fake PASS", run.stdout)

    def test_sim_drift_fails(self):
        run = self.gate(self.with_values(sim_seconds=2.5e-4 * (1 + 1e-15)))
        self.assert_fails(run, "sim_seconds: fresh")

    def test_count_drift_fails(self):
        run = self.gate(self.with_values(load_transactions=654101))
        self.assert_fails(run, "load_transactions: fresh 654101")

    def test_missing_metric_fails(self):
        run = self.gate(self.with_values()[:-1])
        self.assert_fails(run, "qps: missing from the fresh run")

    def test_extra_metric_fails(self):
        metrics = self.with_values() + [metric("extra", "count", 1)]
        self.assert_fails(self.gate(metrics),
                          "extra: not in the committed artifact")

    def test_wall_lower_is_better_past_band_fails(self):
        self.assert_fails(self.gate(self.with_values(p50_ms=2.0 * 4.1)),
                          "p50_ms: 4.10x of committed")

    def test_wall_higher_is_better_past_band_fails(self):
        self.assert_fails(self.gate(self.with_values(qps=400.0 / 4.1)),
                          "qps: 0.24x of committed")

    def test_bench_exiting_nonzero_fails(self):
        run = self.gate(self.with_values(), exit_code=3)
        self.assert_fails(run, "exited 3")


if __name__ == "__main__":
    unittest.main()
