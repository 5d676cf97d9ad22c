#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json briefly (--smoke, 1 s), untraced and
traced, and checks that each run checks its answers and emits every
end-to-end (untraced) or per-layer (traced) metric with its declared unit,
and that a traced run reports non-zero values for the layers the workload
drives (the "on" column of the layer table in perfbench/README.md). Then
shows that the answer check can fail: with one expected answer
flipped, a batch and a serving workload must exit non-zero and report
correct = false.

Run from the repository root (builds on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CATALOG = json.load(f)

# Per-layer metrics, by name prefix, that each workload must report as
# non-zero in a traced run. A metric the workload forgot to compute prints
# as 0 and fails here.
SERVING_LAYERS = ("gen.", "baselines.", "ibfs.", "gpusim.", "service.",
                  "driver.", "obs.")
LAYERS_ON = {
    "offline-lj": ("gen.", "baselines.", "plan.", "ibfs.", "gpusim.",
                   "engine.", "driver.latency_", "obs."),
    # The partitioned kernel accounts loads and atomics but no stores, and
    # its run result carries no per-phase times or per-group host times.
    "partitioned-lj-p4": ("gen.", "baselines.", "part.", "plan.groups",
                          "gpusim.load_txn", "gpusim.atomics",
                          "gpusim.host_ns_per_txn", "driver.latency_", "obs."),
    # serve.*: the median latency of the traced run's 8k and 24k qps probes.
    "serve-pk": SERVING_LAYERS + ("serve.",),
    "fleet-hot-pk": SERVING_LAYERS + ("cache.", "fleet."),
}
# Failure counts: 0 on a healthy run. At the fleet's nominal rate hedges
# fire for about 1% of the queries and win some of those, so a smoke run
# of about 500 queries may see none fire or none win.
MAY_BE_ZERO = {"error_ratio", "service.shed_ratio", "fleet.failover_reroutes",
               "fleet.hedge_fire_ratio", "fleet.hedge_win_ratio"}


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_on_every_workload(self):
        for workload in (w["name"] for w in CATALOG["workloads"]):
            for trace, declared in ((0, CATALOG["end_to_end"]),
                                    (1, CATALOG["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    emitted = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(
                        emitted, {m["name"]: m["unit"] for m in declared})
                    for name, m in result["metrics"].items():
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)
                        elif (name.startswith(LAYERS_ON[workload]) and
                              name not in MAY_BE_ZERO):
                            self.assertNotEqual(m["value"], 0, name)


class WrongAnswerFails(unittest.TestCase):
    def test_flipped_expected_answer_fails_the_run(self):
        for workload in ("partitioned-lj-p4", "serve-pk"):
            with self.subTest(workload=workload):
                code, result, err = run(workload, 0, "--corrupt-expected")
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result, err[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
