"""Tests for repro.telemetry: registry, tracing, exporters, instrumentation.

The exporter goldens pin the Prometheus text exposition format exactly
(label escaping, ``+Inf`` terminal bucket, ``_sum``/``_count``
consistency); the concurrency test hammers one registry from many threads
and asserts the final snapshot is exact, which is the thread-safety
contract the serving instrumentation relies on.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.algorithms import TIMPlusSelector
from repro.exceptions import ConfigurationError, LifecycleError
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_SPAN,
    TraceRecorder,
    chrome_trace,
    current_recorder,
    default_registry,
    recording,
    render_prometheus,
    reset_default_registry,
    set_default_registry,
    span,
    use_registry,
)


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_counter_accumulates_and_snapshots(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_events_total", "Events.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        sample = reg.snapshot()["metrics"]["repro_test_events_total"]
        assert sample["type"] == "counter"
        assert sample["samples"] == [{"labels": {}, "value": 3.5}]

    def test_counter_rejects_negative_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="only go up"):
            reg.counter("repro_test_total").inc(-1)

    def test_histogram_buckets_sum_count_quantiles(self):
        reg = MetricsRegistry()
        histogram = reg.histogram(
            "repro_test_seconds", "Latency.", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.05, 0.5, 2.0):
            histogram.observe(value)
        child = histogram._unlabeled()
        assert child.count == 4
        assert child.sum == pytest.approx(2.6)
        assert child.bucket_counts() == [
            (0.1, 2), (1.0, 3), (10.0, 4), (math.inf, 4),
        ]
        # The median falls in the first bucket; interpolation stays inside it.
        assert 0.0 < child.quantile(0.5) <= 0.1
        assert 1.0 < child.quantile(0.99) <= 10.0

    def test_default_latency_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert len(set(DEFAULT_LATENCY_BUCKETS)) == len(DEFAULT_LATENCY_BUCKETS)
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001  # sub-millisecond resolution
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0  # covers slow builds

    @pytest.mark.parametrize("n", [30, 400])
    @pytest.mark.parametrize("seed", range(5))
    def test_default_bucket_quantiles_within_one_bucket(self, seed, n):
        """The histogram contract: a derived p50/p95/p99 lies within the
        width of the bucket holding the exact percentile.  Latencies are
        synthetic (log-normal around 0.2 ms), so nothing is timed."""
        samples = np.random.default_rng(seed).lognormal(math.log(2e-4), 0.6, n)
        histogram = MetricsRegistry().histogram("repro_test_seconds")
        for value in samples:
            histogram.observe(value)
        bounds = DEFAULT_LATENCY_BUCKETS
        for q in (0.5, 0.95, 0.99):
            exact = float(np.percentile(samples, 100.0 * q))
            index = bisect.bisect_left(bounds, exact)
            assert index < len(bounds), "exact percentile beyond the buckets"
            width = bounds[index] - (bounds[index - 1] if index else 0.0)
            assert abs(histogram.quantile(q) - exact) <= width, (q, exact)

    def test_labeled_children_are_distinct_and_cached(self):
        reg = MetricsRegistry()
        family = reg.counter(
            "repro_test_requests_total", "Requests.", labelnames=("op", "outcome")
        )
        family.labels(op="evaluate", outcome="ok").inc()
        family.labels(op="evaluate", outcome="ok").inc()
        family.labels(op="select", outcome="degraded").inc()
        assert family.labels(op="evaluate", outcome="ok").value == 2.0
        assert family.labels(op="select", outcome="degraded").value == 1.0
        assert len(family.children()) == 2

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_test_total") is reg.counter("repro_test_total")

    def test_type_mismatch_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.histogram("repro_test_total")

    def test_labelnames_mismatch_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total", labelnames=("op",))
        with pytest.raises(ConfigurationError, match="labels"):
            reg.counter("repro_test_total", labelnames=("kind",))

    @pytest.mark.parametrize(
        "name", ["events_total", "repro_BadCase", "repro-dash", "repro__", ""]
    )
    def test_unconventional_names_are_rejected(self, name):
        with pytest.raises(ConfigurationError, match="metric name"):
            MetricsRegistry().counter(name)

    def test_reset_clears_families(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total").inc()
        reg.reset()
        assert reg.collect() == []


class TestGlobalRegistry:
    def test_enabled_by_default(self):
        assert default_registry() is not None

    def test_set_default_registry_swaps_and_returns_previous(self):
        previous = set_default_registry(None)
        try:
            assert default_registry() is None
        finally:
            set_default_registry(previous)
        assert default_registry() is previous

    def test_use_registry_scopes_and_restores(self):
        before = default_registry()
        scoped = MetricsRegistry()
        with use_registry(scoped):
            assert default_registry() is scoped
        assert default_registry() is before

    def test_reset_default_registry_installs_a_fresh_one(self):
        before = default_registry()
        fresh = reset_default_registry()
        try:
            assert default_registry() is fresh
            assert fresh.collect() == []
        finally:
            set_default_registry(before)


# ------------------------------------------------------------------- tracing


class TestTracing:
    def test_span_ids_are_deterministic_per_seed(self):
        def run(seed):
            recorder = TraceRecorder(seed=seed)
            with recording(recorder):
                with span("outer"):
                    with span("inner"):
                        pass
            return [(s.name, s.span_id, s.parent_id) for s in recorder.finished()]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_parent_links_follow_nesting(self):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_attributes_and_annotate_round_trip(self):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            with span("work", theta=20_000) as s:
                s.annotate(blocks=3)
        payload = recorder.finished()[0].to_dict()
        assert payload["attributes"] == {"theta": 20_000, "blocks": 3}
        assert payload["duration"] >= 0.0

    def test_ring_buffer_drops_oldest_and_counts(self):
        recorder = TraceRecorder(seed=0, capacity=2)
        with recording(recorder):
            for index in range(5):
                with span(f"s{index}"):
                    pass
        assert [s.name for s in recorder.finished()] == ["s3", "s4"]
        assert recorder.dropped == 3

    def test_span_without_recorder_is_the_shared_null_span(self):
        assert current_recorder() is None
        s = span("anything", key="value")
        assert s is NULL_SPAN
        with s:
            pass  # no-op, reusable

    def test_injectable_clock_gives_deterministic_timings(self):
        ticks = iter(range(100))
        recorder = TraceRecorder(seed=0, clock=lambda: float(next(ticks)))
        with recording(recorder):
            with span("step"):
                pass
        (finished,) = recorder.finished()
        assert finished.start == 0.0
        assert finished.duration == 1.0

    def test_span_cannot_be_reentered(self):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            with span("once") as s:
                pass
        with pytest.raises(LifecycleError):
            s.__enter__()


# ----------------------------------------------------------------- exporters


def _demo_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    events = reg.counter(
        "repro_demo_events_total", "Demo events.", labelnames=("kind",)
    )
    events.labels(kind='with "quotes" and \\ and\nnewline').inc(3)
    events.labels(kind="plain").inc()
    seconds = reg.histogram("repro_demo_seconds", "Latency.", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        seconds.observe(value)
    return reg


GOLDEN_PROMETHEUS = """\
# HELP repro_demo_events_total Demo events.
# TYPE repro_demo_events_total counter
repro_demo_events_total{kind="plain"} 1
repro_demo_events_total{kind="with \\"quotes\\" and \\\\ and\\nnewline"} 3
# HELP repro_demo_seconds Latency.
# TYPE repro_demo_seconds histogram
repro_demo_seconds_bucket{le="0.1"} 1
repro_demo_seconds_bucket{le="1"} 2
repro_demo_seconds_bucket{le="+Inf"} 3
repro_demo_seconds_sum 5.55
repro_demo_seconds_count 3
"""


class TestExporters:
    def test_prometheus_text_matches_golden(self):
        assert render_prometheus(_demo_registry()) == GOLDEN_PROMETHEUS

    def test_histogram_sum_count_consistency(self):
        text = render_prometheus(_demo_registry())
        lines = text.splitlines()
        inf_bucket = next(l for l in lines if 'le="+Inf"' in l)
        count = next(l for l in lines if l.startswith("repro_demo_seconds_count"))
        assert inf_bucket.split()[-1] == count.split()[-1]

    def test_merge_skips_none_and_first_registry_wins(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_merge_total").inc(1)
        second.counter("repro_merge_total").inc(99)
        second.counter("repro_merge_other_total").inc(7)
        lines = render_prometheus(first, None, second).splitlines()
        assert "repro_merge_total 1" in lines
        assert "repro_merge_other_total 7" in lines
        assert "repro_merge_total 99" not in lines

    def test_snapshot_is_exact_under_concurrent_writers(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_stress_total", labelnames=("worker",))
        histogram = reg.histogram("repro_stress_seconds")
        increments, workers = 500, 8

        def hammer(worker):
            child = counter.labels(worker=str(worker))
            for index in range(increments):
                child.inc()
                histogram.observe(index / increments)
                if index % 100 == 0:
                    json.dumps(reg.snapshot())  # snapshots interleave safely

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))

        final = reg.snapshot()["metrics"]
        per_worker = final["repro_stress_total"]["samples"]
        assert [s["value"] for s in per_worker] == [float(increments)] * workers
        stress = final["repro_stress_seconds"]["samples"][0]
        assert stress["count"] == increments * workers

    def test_chrome_trace_structure(self):
        recorder = TraceRecorder(seed=1)
        with recording(recorder):
            with span("outer", theta=10):
                with span("inner"):
                    pass
        trace = chrome_trace(recorder)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert all(e["ph"] == "X" for e in events)
        inner, outer = events
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        json.dumps(trace)  # must be serialisable as-is


# ----------------------------------------------------- instrumented serving


@pytest.fixture
def small_graph():
    from repro.graphs import barabasi_albert_graph

    return barabasi_albert_graph(60, 2, seed=3, probability=0.1).compile()


def _service_over(graph):
    """A service with a 500-set IC index over ``graph`` attached."""
    service = repro.InfluenceService()
    service.attach(repro.InfluenceIndex.build(graph, "ic", 500))
    return service


class TestInstrumentedService:
    def test_legacy_stats_and_rich_series_agree(self, small_graph):
        registry = MetricsRegistry()
        recorder = TraceRecorder(seed=0)
        with use_registry(registry), recording(recorder):
            service = _service_over(small_graph)
            service.evaluate(small_graph, "ic", [0, 1])
            service.select(small_graph, "ic", 3)

        stats = service.stats()
        assert stats["evaluate_requests"] == 1
        assert stats["select_requests"] == 1
        assert stats["index_hits"] == 2

        # The same traffic is visible as labeled series on the service
        # registry, and engine counters/spans landed in the scoped globals.
        requests = service.telemetry.counter(
            "repro_serving_requests_total",
            labelnames=("op", "outcome"),
        )
        assert requests.labels(op="evaluate", outcome="ok").value == 1.0
        assert requests.labels(op="select", outcome="ok").value == 1.0
        assert registry.counter("repro_index_rr_sets_total").value >= 500
        names = {finished.name for finished in recorder.finished()}
        assert {"index_grow", "index_select", "index_evaluate"} <= names

    def test_service_metrics_off_by_default_registry_none(self, small_graph):
        service = _service_over(small_graph)
        previous = set_default_registry(None)
        try:
            service.evaluate(small_graph, "ic", [0, 1])
        finally:
            set_default_registry(previous)
        # Legacy stats still tick; the rich per-request series do not.
        assert service.stats()["evaluate_requests"] == 1
        seconds = service.telemetry.histogram(
            "repro_serving_request_seconds", labelnames=("op",)
        )
        assert seconds.labels(op="evaluate").count == 0

    def test_stats_snapshot_is_deep_copied(self, small_graph):
        service = _service_over(small_graph)
        service.evaluate(small_graph, "ic", [0])
        stats = service.stats()
        stats["resident_indexes"][0]["theta"] = -1
        stats["resident_indexes"].append({"model": "tampered"})
        fresh = service.stats()["resident_indexes"]
        assert len(fresh) == 1 and fresh[0]["theta"] == 500

    def test_prometheus_endpoint_sees_service_traffic(self, small_graph):
        service = _service_over(small_graph)
        service.evaluate(small_graph, "ic", [0, 1])
        text = render_prometheus(service.telemetry)
        assert 'repro_serving_events_total{event="evaluate_requests"} 1' in text
        assert 'repro_serving_requests_total{op="evaluate",outcome="ok"} 1' in text


# ------------------------------------------------------------ run_experiment


class TestRunExperimentTelemetry:
    def test_telemetry_section_round_trips(self):
        spec = repro.ExperimentSpec(
            graph=repro.GraphSpec(dataset="nethept", scale=0.05, seed=1),
            model=repro.ModelSpec(name="ic"),
            algorithm=repro.AlgorithmSpec(name="high-degree"),
            budget=5,
            seed=3,
            evaluation=repro.EvalSpec(
                estimator=repro.EstimatorSpec(backend="monte-carlo", simulations=20)
            ),
        )
        result = repro.run_experiment(spec)
        telemetry = result.telemetry
        assert set(telemetry["stages"]) >= {
            "load_seconds", "selection_seconds",
            "estimator_build_seconds", "estimate_seconds", "total_seconds",
        }
        stage_names = [s["name"] for s in telemetry["spans"]]
        assert "stage_load" in stage_names
        assert "stage_estimate" in stage_names
        assert telemetry["dropped_spans"] == 0

        round_tripped = repro.RunResult.from_dict(result.to_dict())
        assert round_tripped.telemetry["spans"] == telemetry["spans"]
        assert round_tripped.telemetry["stages"] == telemetry["stages"]

    def test_span_ids_reproducible_across_runs(self):
        spec = repro.ExperimentSpec(
            graph=repro.GraphSpec(dataset="nethept", scale=0.05, seed=1),
            model=repro.ModelSpec(name="ic"),
            seeds=[0, 1],
            seed=11,
            evaluation=repro.EvalSpec(
                estimator=repro.EstimatorSpec(backend="monte-carlo", simulations=20)
            ),
        )
        first = repro.run_experiment(spec).telemetry["spans"]
        second = repro.run_experiment(spec).telemetry["spans"]
        assert [s["span_id"] for s in first] == [s["span_id"] for s in second]


# ------------------------------------------------------------ engine mirrors


class TestEngineInstrumentation:
    def test_monte_carlo_counters_and_cache_hits(self):
        graph = repro.figure1_example_graph()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = repro.MonteCarloEngine(graph, "ic", simulations=10, seed=0)
            engine.estimate(["A"])
            engine.estimate(["A"])  # cache hit
        assert registry.counter("repro_mc_simulations_total").value == 10.0
        assert registry.counter("repro_mc_cache_hits_total").value == 1.0

    def test_score_engine_mirrors_stats(self):
        from repro.graphs.generators import path_graph
        from repro.scoring import ScoreEngine

        compiled = path_graph(30, probability=0.2).compile()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = ScoreEngine(compiled, algorithm="easyim", max_path_length=2)
            engine.mark_active([5])
        mirrored = registry.counter(
            "repro_score_rebuilds_total", labelnames=("kind",)
        )
        total_mirrored = sum(child.value for _, child in mirrored.children())
        by_kind = sum(
            engine.stats[key]
            for key in ("full_rebuilds", "fallback_rebuilds",
                        "direct_rebuilds", "pool_rebuilds")
        )
        assert total_mirrored == by_kind > 0


class TestRRSetCounters:
    """Each drawn RR set lands in exactly one of the two RR-set counters."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        from repro.sketches.sampler import BatchRRSampler

        sizes = []
        original = BatchRRSampler.sample_tokens

        def counting(sampler, tokens, slots=None):
            sizes.append(len(tokens))
            return original(sampler, tokens, slots)

        monkeypatch.setattr(BatchRRSampler, "sample_tokens", counting)
        return sizes

    def test_timplus_counts_its_kpt_phase_sets(self, small_graph, drawn):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = TIMPlusSelector(model="wc", epsilon=0.3, seed=0).select(
                small_graph, 5
            )
        # The KPT phases draw sets beyond the final theta.
        assert sum(drawn) > result.metadata["rr_sets"]
        assert registry.counter("repro_sketch_rr_sets_total").value == sum(drawn)
        assert registry.get("repro_index_rr_sets_total") is None

    def test_index_build_moves_only_the_index_counter(self, small_graph, drawn):
        registry = MetricsRegistry()
        with use_registry(registry):
            repro.InfluenceIndex.build(small_graph, "ic", 500, engine_seed=0)
        assert registry.counter("repro_index_rr_sets_total").value == sum(drawn) == 500
        assert registry.get("repro_sketch_rr_sets_total") is None
