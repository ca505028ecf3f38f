#!/usr/bin/env python3
"""Determinism guard and catalogue check for the repository benchmark.

    python3 perfbench/tests/test_determinism.py

Builds the driver (as perfbench/run.py does) and runs each workload for a
single repetition. The driver prints a digest of the virtual-time outputs:
sim.events, frames, registration and call outcomes, call setup times and
per-leg MOS (for registrar-requests: the generated request stream and the
final binding count). Two runs with the same seed must print the same
digest, and olsr-city must print the same digest at 1 and 2 simulation
worker threads. The test also checks that BENCHMARK.json and layers.json
name the same per-layer metrics.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

SEED = 7


def digest(workload, sim_threads=None):
    cmd = [run.DRIVER, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", "0"]
    if sim_threads is not None:
        cmd += ["--sim-threads", str(sim_threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=run.RUN_TIMEOUT_S).stdout
    lines = [l for l in out.splitlines() if l.startswith("digest ")]
    if len(lines) != 1:
        raise AssertionError("%s printed no digest:\n%s" % (workload, out))
    print(lines[0], "(sim threads %s)" % (sim_threads or "default"))
    return lines[0]


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_olsr_city_same_seed_and_thread_count_independent(self):
        one = digest("olsr-city", sim_threads=1)
        self.assertEqual(one, digest("olsr-city", sim_threads=2))
        self.assertEqual(one, digest("olsr-city", sim_threads=2))

    def test_aodv_mobile_voice_same_seed(self):
        self.assertEqual(digest("aodv-mobile-voice"), digest("aodv-mobile-voice"))

    def test_registrar_requests_same_seed(self):
        self.assertEqual(digest("registrar-requests"), digest("registrar-requests"))


class CatalogueTest(unittest.TestCase):
    def test_layer_map_matches_benchmark(self):
        bench, layers = run.load_catalogue()
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(layers))
        end_to_end = {m["name"] for m in bench["end_to_end"]}
        for name, entry in layers.items():
            self.assertTrue(set(entry["measured_on"]) <= set(run.WORKLOADS), name)
            self.assertTrue(set(entry["moves_on"]) <= set(entry["measured_on"]), name)
            for moved in entry["moves"]:
                self.assertIn(moved, end_to_end | set(layers), name)
        for workload in bench["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main(verbosity=2)
