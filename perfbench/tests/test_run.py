"""Tests of the benchmark runner: BENCHMARK.json validation, metric-name
checks, the determinism guard and the correctness gate.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

CONFIG = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def round_record(mode="plain", **over):
    """A well-formed round as the round binary prints it."""
    r = {
        "workload": "kv-offload",
        "seed": 1,
        "mode": mode,
        "correct": True,
        "errors": [],
        "attempted": 100,
        "failed": 0,
        "digest": "00000000000000aa",
        "host": {
            "wall_ops_per_s": 1000.0,
            "wall_setup_s": 0.5,
            "peak_rss_mib": 30.0,
            "measure_s": 0.1,
            "ref_ms": run.REFERENCE_MS,
        },
        "sim": {
            "sim_p50_us": 27.7,
            "sim_p999_us": 38.1,
            "sim_read_p999_us": 3.0,
            "sim_kops": 64.0,
            "replica_cpu_us_per_op": 2.3,
        },
        "counts": {"write_samples": 50.0, "read_samples": 50.0},
        "layers": {},
        "attr": {},
    }
    r.update(over)
    return r


class ConfigValidation(unittest.TestCase):
    def test_repository_config_is_valid(self):
        self.assertEqual(run.validate_config(CONFIG), [])

    def test_names_units_and_bounds_are_checked(self):
        cases = {
            "bad name": lambda c: c["per_layer"][0].update(name="-starts-badly"),
            "duplicate": lambda c: c["per_layer"][1].update(name=c["per_layer"][0]["name"]),
            "bound too wide": lambda c: c["end_to_end"][0].update(bound=0.3),
            "bad unit": lambda c: c["end_to_end"][0].update(unit="ops per s"),
            "extra key": lambda c: c.update(seeds=[1, 2]),
            "one workload": lambda c: c.update(workloads=c["workloads"][:1]),
        }
        for label, mutate in cases.items():
            cfg = copy.deepcopy(CONFIG)
            mutate(cfg)
            self.assertNotEqual(run.validate_config(cfg), [], label)

    def test_setup_s_is_required_and_has_the_largest_bound(self):
        cfg = copy.deepcopy(CONFIG)
        cfg["end_to_end"] = [m for m in cfg["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in e for e in run.validate_config(cfg)))
        cfg = copy.deepcopy(CONFIG)
        for m in cfg["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = 0.01
        self.assertTrue(any("largest bound" in e for e in run.validate_config(cfg)))


class MetricNames(unittest.TestCase):
    def test_end_to_end_run_matches_the_declared_metrics(self):
        errors, metrics = run.evaluate(CONFIG, 0, [round_record(), round_record()])
        self.assertEqual(errors, [])
        self.assertEqual(set(metrics), {m["name"] for m in CONFIG["end_to_end"]})

    def test_missing_extra_and_mislabelled_metrics_are_reported(self):
        metrics = run.end_to_end_metrics([round_record()])
        del metrics["sim_kops"]
        metrics["made_up"] = {"value": 1.0, "unit": "s"}
        metrics["setup_s"]["unit"] = "ms"
        errs = run.check_metric_names(CONFIG, 0, metrics)
        self.assertTrue(any("'sim_kops' was not produced" in e for e in errs))
        self.assertTrue(any("'made_up' is not declared" in e for e in errs))
        self.assertTrue(any("'setup_s': produced unit 'ms'" in e for e in errs))

    def test_per_layer_declarations_cover_what_a_traced_run_reports(self):
        layers = {m["name"]: 1.0 for m in CONFIG["per_layer"]}
        counts = {n: v for n, v in layers.items() if n.endswith("_per_op") or n.endswith("samples")}
        traced = round_record("traced", layers=layers, counts=counts)
        tele = round_record("telemetry", counts=counts, attr={"attr.wire_us": 1.0})
        plain = round_record(counts=counts)
        errors, metrics = run.evaluate(CONFIG, 1, [plain, traced, tele])
        self.assertEqual(errors, [])
        self.assertAlmostEqual(metrics["bench.trace_overhead_ratio"]["value"], 1.0)


class Gates(unittest.TestCase):
    def test_a_round_whose_check_failed_makes_the_run_incorrect(self):
        bad = round_record(correct=False, failed=1, errors=["replica 1 disagrees with the client on key 2"])
        errors, _ = run.evaluate(CONFIG, 0, [round_record(), bad])
        self.assertIn("replica 1 disagrees with the client on key 2", errors)

    def test_determinism_guard_flags_any_differing_sim_value(self):
        other = round_record()
        other["sim"] = dict(other["sim"], sim_p999_us=38.2)
        errs = run.check_determinism([round_record(), other])
        self.assertEqual(len(errs), 1)
        self.assertIn("sim_p999_us", errs[0])

    def test_determinism_guard_flags_a_differing_digest(self):
        errs = run.check_determinism([round_record(), round_record(digest="00000000000000ab")])
        self.assertTrue(errs)

    def test_host_time_may_vary_between_rounds(self):
        fast = round_record()
        fast["host"] = dict(fast["host"], wall_ops_per_s=1500.0)
        self.assertEqual(run.check_determinism([round_record(), fast]), [])


class HostTime(unittest.TestCase):
    def test_a_host_slowed_alike_for_round_and_kernel_reads_the_same(self):
        slow = round_record()
        slow["host"] = dict(slow["host"], wall_ops_per_s=500.0, wall_setup_s=1.0, ref_ms=2 * run.REFERENCE_MS)
        self.assertEqual(run.host_values(slow), run.host_values(round_record()))

    def test_a_slower_program_on_the_same_host_reads_slower(self):
        slow = round_record()
        slow["host"] = dict(slow["host"], wall_ops_per_s=800.0, wall_setup_s=0.6)
        got = run.end_to_end_metrics([slow])
        self.assertAlmostEqual(got["host_ops_per_s"]["value"], 800.0)
        self.assertAlmostEqual(got["setup_s"]["value"], 0.6)


if __name__ == "__main__":
    unittest.main()
