#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny input sizes.

    python3 bench/selftest.py

- Every workload, untraced and traced, prints every metric BENCHMARK.json
  names, with its unit, and the metric tables agree with BENCHMARK.json.
- A planted wrong answer (one flipped recovered bit) counts as one failed
  operation, and the pass goes on to the end.
- A noisy recovery that is complete but wrong is scored wrong, never correct.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from harness import HostProbe  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from longwire import exfil  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class planted:
    """Replace exfil.<name> so that its first call returns a corrupted result."""

    def __init__(self, name, corrupt):
        self.name, self.corrupt, self.calls = name, corrupt, 0

    def __enter__(self):
        self.real = getattr(exfil, self.name)

        def fake(*args):
            result = self.real(*args)
            self.calls += 1
            return self.corrupt(result) if self.calls == 1 else result

        setattr(exfil, self.name, fake)
        return self

    def __exit__(self, *exc):
        setattr(exfil, self.name, self.real)


def flip_first_bit(result):
    result.known[0] ^= 1
    return result


def complete_but_wrong(result):
    return exfil.RecoveryResult(result.n_key, {i: 1 for i in range(result.n_key)}, (), 0, 0)


class MetricsPrinted(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(spec.WORKLOADS))
        self.assertEqual(list(spec.WORKLOADS), list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in DECLARED["end_to_end"]}, spec.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in DECLARED["per_layer"]}, spec.PER_LAYER)

    def test_every_metric_printed_with_its_unit(self):
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in DECLARED[table]}
            for workload in spec.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, build = run.measure(workload, 1, 0, trace, tiny=True)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    self.assertEqual(build["seed"], 1)
                    self.assertIn("kernels_backend", build)


class PlantedFaults(unittest.TestCase):
    def test_flipped_bit_is_one_failed_operation(self):
        clean = workloads.KeyRecovery(1, tiny=True).run_pass(False, HostProbe())
        self.assertEqual(clean.failed, 0)
        with planted("multi_window_recover", flip_first_bit) as plant:
            faulty = workloads.KeyRecovery(1, tiny=True).run_pass(False, HostProbe())
        self.assertGreater(plant.calls, 1)
        self.assertEqual(faulty.failed, 1)
        self.assertEqual(faulty.attempted, clean.attempted)
        self.assertEqual(faulty.keys_correct, clean.keys_correct - 1)

    def test_complete_but_wrong_is_not_correct(self):
        with planted("single_window_recover", complete_but_wrong):
            p = workloads.NoisyExfil(1, tiny=True).run_pass(False, HostProbe())
        self.assertEqual(p.failed, 0)
        self.assertGreaterEqual(p.counts["exfil.outcome.wrong"], 1)
        self.assertEqual(p.keys_correct, p.counts["exfil.outcome.correct"])
        self.assertEqual(p.keys_attacked, sum(p.counts[f"exfil.outcome.{o}"]
                                              for o in ("correct", "wrong", "inconsistent", "unresolved")))


if __name__ == "__main__":
    unittest.main()
