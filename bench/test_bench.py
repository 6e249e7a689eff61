"""Self-tests of the benchmark. From the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nlo_quanta import cli, evolve, fock, validation  # noqa: E402


def _cheap_scenarios(seed: int) -> dict:
    inputs = workloads.generate("scenarios", seed)
    return {"configs": {c: inputs["configs"][c] for c in ("squeeze", "kerr")},
            "criteria": [2]}


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)

    def test_layer_metrics_fill_every_non_trace_name(self):
        values = tracing.layer_metrics([], {}, {}, 1.0)
        expected = {n for n in tracing.PER_LAYER if not n.startswith("trace.")}
        self.assertEqual(set(values), expected)
        self.assertEqual(values["unattributed.s"], 1.0)


class FailedOps(unittest.TestCase):
    def test_reference_digests_hold_at_seed_0(self):
        with tempfile.TemporaryDirectory() as out:
            res = run.run_pass(workloads.build_ops("scenarios", _cheap_scenarios(0), out))
        self.assertEqual((res.attempted, res.failed), (3, 0), res.errors)
        self.assertGreater(res.observed["cli.csv_bytes"], 0)

    def test_corrupted_reference_digest_fails_one_op(self):
        doc = json.loads(Path(workloads.DIGESTS_PATH).read_text())
        doc["csv_sha256"]["squeeze.csv"] = "0" * 64
        with tempfile.TemporaryDirectory() as out:
            bad = os.path.join(out, "digests.json")
            Path(bad).write_text(json.dumps(doc))
            with mock.patch.object(workloads, "DIGESTS_PATH", bad):
                ops = workloads.build_ops("scenarios", _cheap_scenarios(0), out)
            res = run.run_pass(ops)
        self.assertEqual((res.attempted, res.failed), (3, 1))
        self.assertTrue(res.errors[0].startswith("squeeze:"), res.errors)

    def test_other_seed_checks_later_passes_against_the_first(self):
        with tempfile.TemporaryDirectory() as out:
            ops = workloads.build_ops("scenarios", _cheap_scenarios(7), out)
            first, second = run.run_pass(ops), run.run_pass(ops)
        self.assertEqual((first.failed, second.failed), (0, 0), second.errors)

    def test_raising_op_and_failed_check_are_counted_and_the_pass_goes_on(self):
        def boom():
            raise RuntimeError("forced failure")

        def reject(_result, _done):
            raise workloads.CheckFailed("forced check failure")

        ops = [workloads.Op("boom", boom, lambda r, d: {}),
               workloads.Op("rejected", lambda: 1, reject),
               workloads.Op("fine", lambda: 1, lambda r, d: {"x.max": 2.0, "n": 3})]
        res = run.run_pass(ops)
        self.assertEqual((res.attempted, res.failed), (3, 2))
        self.assertEqual(res.observed, {"x.max": 2.0, "n": 3})
        self.assertEqual(len(res.errors), 2)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.generate(name, 3), workloads.generate(name, 3))
                self.assertNotEqual(workloads.generate(name, 3), workloads.generate(name, 4))

    def test_seed_0_is_the_acceptance_oscillator_and_default_configs(self):
        self.assertEqual(workloads.generate("c7_steady", 0)["params"], validation.DPO_ACCEPTANCE)
        self.assertFalse(any(workloads.generate("scenarios", 0)["configs"].values()))

    def test_other_seeds_keep_sizes_and_parse(self):
        sizes = {"points", "signal_dim", "pump_dim", "husimi_points", "grid_points",
                 "grid_widths", "steps", "snapshots", "n", "n0", "periods"}
        for command, raw in workloads.generate("scenarios", 11)["configs"].items():
            self.assertFalse(sizes & set(raw), command)
            cli.build_config(command, raw, 0, 1, False)


class Tracing(unittest.TestCase):
    def _steady_pass(self, dims, tracer=None):
        inputs = workloads.generate("open_ladder", 0)
        spec = next(s for s in inputs["steady"] if s["dims"] == list(dims))
        ops = [workloads._steady_op(spec["dims"], spec["params"])]
        if tracer is None:
            return run.run_pass(ops), None
        tracer.install()
        try:
            tracer.begin_pass(0)
            res = run.run_pass(ops, tracer)
            return res, tracer.end_pass()
        finally:
            tracer.uninstall()

    def test_self_times_and_unattributed_sum_to_pass_time(self):
        tracer = tracing.Tracer()
        res, counts = self._steady_pass((6, 4), tracer)
        values = tracing.layer_metrics(tracer.pass_spans(0), counts, res.observed, res.wall)
        total = sum(v for k, v in values.items() if k.endswith(".s"))
        self.assertAlmostEqual(total, res.wall, delta=1e-9)
        self.assertGreater(values["evolve.dense_eig.s"], 0.0)
        self.assertEqual(values["models.build.calls"], 1)

    def test_wrappers_leave_results_unchanged_and_count_gmres(self):
        plain, _ = self._steady_pass((10, 6))
        tracer = tracing.Tracer()
        res, counts = self._steady_pass((10, 6), tracer)
        self.assertEqual((plain.failed, res.failed), (0, 0))
        self.assertEqual(plain.observed, res.observed)
        self.assertGreater(counts["evolve.gmres.iters"], 0)
        self.assertEqual(counts["evolve.gmres.calls"], 2)

    def test_uninstall_restores_every_name(self):
        before = (evolve.np, evolve.spla, evolve.solve_ivp, evolve.steady_state,
                  fock.QuantumState.__post_init__, dict(cli.RUNNERS), cli.write_outputs,
                  validation.run_criterion)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(evolve.np, np)
        tracer.uninstall()
        after = (evolve.np, evolve.spla, evolve.solve_ivp, evolve.steady_state,
                 fock.QuantumState.__post_init__, dict(cli.RUNNERS), cli.write_outputs,
                 validation.run_criterion)
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
