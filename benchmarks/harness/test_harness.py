"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/harness``."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import calibration
import repro.api
from layers import PER_LAYER, self_times
from repro.serving import service as service_module
from stats import compare_records, relative_spread, verdict
from workloads import END_TO_END, MUST_FIRE, P99_MIN_SAMPLES, SIZES, make_workload, measure

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = sorted(SIZES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workloads_complete(name, trace):
    detail = measure(make_workload(name, 3, "tiny"), 0.0, trace=trace)
    assert detail["failures"] == []
    assert detail["failed"] == 0 and detail["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    assert set(detail["metrics"]) == {metric for metric, _, _ in expected}
    if not trace:
        assert all(value > 0 for value in detail["metrics"].values())
        assert set(detail["wall"]) == {"setup_s", "run_s", "select_s", "eval_s"}
        assert detail["host_slowdown"] > 0


def test_calibration_scales_to_the_reference_host():
    reference = calibration.REFERENCE_S
    assert calibration.factor(reference, reference) == 1.0
    # Kernels twice as slow around a sample halve it; the mean of the two counts.
    assert calibration.factor(2 * reference, 2 * reference) == pytest.approx(0.5)
    assert calibration.factor(reference, 3 * reference) == pytest.approx(0.5)
    assert calibration.kernel_s() > 0


def test_same_seed_same_outputs_other_seed_other_streams():
    first = measure(make_workload("easyim-wc", 5, "tiny"), 0.0)
    again = measure(make_workload("easyim-wc", 5, "tiny"), 0.0)
    other = measure(make_workload("easyim-wc", 6, "tiny"), 0.0)
    assert (first["seeds_sha256"], first["quality"]) == (again["seeds_sha256"], again["quality"])
    # Same graph, another estimator stream: the sketch estimate moves.
    assert first["quality"] != other["quality"]


def test_wrong_evaluate_answer_is_caught(monkeypatch):
    original = service_module.InfluenceService.evaluate

    def off_by_one(self, *args, **kwargs):
        return service_module.EvaluateOutcome(float(original(self, *args, **kwargs)) + 1.0)

    monkeypatch.setattr(service_module.InfluenceService, "evaluate", off_by_one)
    detail = measure(make_workload("index-serve", 3, "tiny"), 0.0)
    assert detail["failed"] > 0
    assert any("direct" in failure for failure in detail["failures"])


def test_non_deterministic_seed_list_is_caught(monkeypatch):
    original = repro.api.run_experiment
    calls = []

    def flaky(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        # Every third call: the third is the second run of variant 0, which
        # must reproduce the cold run.
        if len(calls) % 3 == 0:
            result.seeds = list(reversed(result.seeds))
        return result

    monkeypatch.setattr(repro.api, "run_experiment", flaky)
    detail = measure(make_workload("timplus-wc", 3, "tiny"), 0.0)
    assert detail["failed"] > 0
    assert any("seed list differs" in failure for failure in detail["failures"])


def _span(name, span_id, parent_id, duration):
    return SimpleNamespace(name=name, span_id=span_id, parent_id=parent_id, duration=duration)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("api.run_experiment", "r", None, 10.0),
        _span("algorithms.select", "a", "r", 4.0),
        _span("scoring.mark_active", "g", "a", 1.0),
        _span("sketches.sample", "b", "r", 3.0),
        _span("sketches.sample", "t", None, 2.0),  # another thread's root
    ]
    assert self_times(spans) == pytest.approx(
        {
            "api.run_experiment": 3.0,
            "algorithms.select": 3.0,
            "scoring.mark_active": 1.0,
            "sketches.sample": 5.0,
        }
    )


def test_p99_only_with_ten_samples_beyond_it():
    full = make_workload("index-serve", 1)
    assert full.requests * full.min_runs >= P99_MIN_SAMPLES == 1000
    tiny = measure(make_workload("index-serve", 3, "tiny"), 0.0)
    assert tiny["attempted"] < P99_MIN_SAMPLES and "p99_ms" not in tiny


def test_verdicts_follow_the_percentile_rules():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.00, 1.01, 1.00, 0.99, 1.01], "lower", 0.10) == "ok"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.10) == "worse"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], "higher", 0.10) == "better"
    # Spread wider than the bound: a 5% regression cannot be told from noise...
    noisy = [0.80, 1.05, 1.30, 0.90, 1.20]
    assert relative_spread(noisy) > 0.10
    assert verdict(base, noisy, "lower", 0.10) == "unresolved"
    # ...unless every new run beats every base run.
    assert verdict(base, [0.50, 0.60, 0.55, 0.52, 0.70], "lower", 0.10) == "better"


def test_compare_records_reports_each_workload_and_metric():
    def record(values):
        return {"workloads": {"w": {"metrics": {"run_s": {"median": values[2], "values": values}}}}}

    metrics = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]
    rows = compare_records(record([1, 1, 1, 1, 1]), record([2, 2, 2, 2, 2]), metrics)
    assert [(row["workload"], row["metric"], row["verdict"]) for row in rows] == [
        ("w", "run_s", "worse")
    ]


def test_benchmark_json_matches_the_harness():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == [
        "easyim-wc", "osim-oi", "timplus-wc", "index-serve"
    ]
    assert set(WORKLOADS) == set(MUST_FIRE) == {w["name"] for w in benchmark["workloads"]}
    for declared, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in benchmark[declared]] == list(
            metrics
        )
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "easyim-wc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
