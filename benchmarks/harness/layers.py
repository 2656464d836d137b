"""Per-layer tracing from outside the program: wrappers around layer entry points.

:class:`LayerTracer` monkeypatches the public entry points of each layer of
``repro`` for the duration of one traced repeat.  Every wrapper opens a span
on the tracer's own :class:`~repro.telemetry.tracing.TraceRecorder` (not the
process-global ``span()`` hook, which ``run_experiment`` installs a recorder
of its own on), so the program's code is untouched and the benchmark owns
its instrumentation.  Counts come from the wrappers and from the process
default metrics registry, which the caller resets before the traced repeat.

A layer's *self time* is its spans' duration minus the part covered by
wrapped child spans; shares divide self time by the repeat's busy time
(set-up wall time plus run wall time on every client thread).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.telemetry.tracing import TraceRecorder

#: Span names of the wrapped entry points, in report order.  ``<layer>.<entry>``.
SPANS = (
    "datasets.load_dataset",
    "opinion.annotate_graph",
    "graphs.compile",
    "graphs.fingerprint",
    "api.run_experiment",
    "api.build_estimator",
    "algorithms.select",
    "scoring.engine_init",
    "scoring.mark_active",
    "scoring.best_inactive",
    "sketches.sample",
    "sketches.cover",
    "sketches.inverted_index",
    "sketches.query",
    "diffusion.estimate",
    "serving.evaluate",
    "serving.select",
)

#: Spans the recorder holds; a traced repeat that drops one fails its checks.
TRACE_CAPACITY = 1 << 16

#: The glue span whose self time counts as unattributed: time spent in
#: ``run_experiment`` itself rather than in a layer below it.
GLUE_SPAN = "api.run_experiment"

#: Every per-layer metric a traced repeat reports: name, unit, and which
#: direction is better.  Layer times are shares (self time / busy time), so
#: a layer that does not run on a workload reads 0 as a fraction, not as a
#: time.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("trace.setup_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    *((f"{name}.share", "fraction", "lower") for name in SPANS),
    ("scoring.mark_active_calls", "count", "lower"),
    ("scoring.rebuilds", "count", "lower"),
    ("scoring.incremental_updates", "count", "higher"),
    ("scoring.incremental_ratio", "fraction", "higher"),
    ("scoring.edges_touched", "count", "lower"),
    ("sketches.rr_sets", "count", "lower"),
    ("sketches.rr_members", "count", "lower"),
    ("sketches.useful_ratio", "fraction", "higher"),
    ("sketches.unregistered_rr_sets", "count", "lower"),
    ("sketches.query_calls", "count", "lower"),
    ("sketches.query_sets_per_call", "count", "higher"),
    ("diffusion.estimate_calls", "count", "lower"),
    ("diffusion.simulations", "count", "lower"),
    ("diffusion.cache_hit_ratio", "fraction", "higher"),
    ("serving.batch_size_mean", "count", "higher"),
    ("serving.oracle_busy_frac", "fraction", "lower"),
)


def self_times(spans: Iterable[object]) -> Dict[str, float]:
    """Total self time per span name.

    Each span needs ``name``, ``span_id``, ``parent_id`` and ``duration``;
    a span's self time is its duration minus its direct children's.
    """
    spans = list(spans)
    children: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - children[span.span_id]
    return dict(totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def registry_value(snapshot: Mapping[str, object], name: str, **labels: str) -> float:
    """Sum of the samples of ``name`` in a registry snapshot matching ``labels``."""
    family = snapshot["metrics"].get(name)  # type: ignore[union-attr]
    if family is None:
        return 0.0
    return float(
        sum(
            sample["value"]
            for sample in family["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )
    )


class LayerTracer:
    """Installs the layer wrappers, collects spans and counts, restores on exit."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder(seed=0, clock=time.perf_counter, capacity=TRACE_CAPACITY)
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- counting

    def _count(self, **amounts: int) -> None:
        with self._lock:
            for key, amount in amounts.items():
                self.counts[key] += int(amount)

    # -------------------------------------------------------------- patching

    def _wrap(
        self,
        original: Callable,
        name: str,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch_method(self, cls: type, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, after))

    def _patch_function(self, original: Callable, name: str) -> None:
        """Patch ``original`` in every loaded ``repro`` module binding it by name."""
        wrapper = self._wrap(original, name)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> "LayerTracer":
        # Import every module that binds a wrapped function before scanning,
        # so no later import can bind the unwrapped original.
        import repro.algorithms.imm  # noqa: F401
        import repro.algorithms.tim  # noqa: F401
        import repro.api as api
        import repro.datasets.registry as datasets
        import repro.graphs.fingerprint as fingerprint
        import repro.opinion.annotate as annotate
        import repro.serving.index  # noqa: F401
        import repro.sketches.coverage as coverage
        from repro.algorithms.base import SeedSelector
        from repro.diffusion.simulation import MonteCarloEngine
        from repro.graphs.digraph import DiGraph
        from repro.scoring.engine import ScoreEngine
        from repro.serving.service import InfluenceService
        from repro.sketches.collection import RRSetCollection
        from repro.sketches.sampler import BatchRRSampler

        self._patch_function(datasets.load_dataset, "datasets.load_dataset")
        self._patch_function(annotate.annotate_graph, "opinion.annotate_graph")
        self._patch_method(DiGraph, "compile", "graphs.compile")
        self._patch_function(fingerprint.graph_fingerprint, "graphs.fingerprint")
        self._patch_function(api.run_experiment, "api.run_experiment")
        self._patch_function(api.build_estimator, "api.build_estimator")
        self._patch_method(SeedSelector, "select", "algorithms.select")
        self._patch_method(ScoreEngine, "__init__", "scoring.engine_init")
        self._patch_method(
            ScoreEngine, "mark_active", "scoring.mark_active",
            lambda args, result: self._count(mark_active_calls=1),
        )
        self._patch_method(ScoreEngine, "best_inactive", "scoring.best_inactive")
        # sample_tokens is the one path every RR set is drawn through
        # (sample, sample_into, index growth and the KPT phases of TIM+).
        self._patch_method(
            BatchRRSampler, "sample_tokens", "sketches.sample",
            lambda args, result: self._count(
                rr_sets=len(args[1]), rr_members=result[0].size
            ),
        )
        self._patch_function(coverage.greedy_max_coverage, "sketches.cover")
        self._patch_method(RRSetCollection, "inverted_index", "sketches.inverted_index")
        self._patch_method(
            RRSetCollection, "estimated_spread", "sketches.query",
            lambda args, result: self._count(query_calls=1, query_sets=1),
        )
        self._patch_method(
            RRSetCollection, "estimated_spreads", "sketches.query",
            lambda args, result: self._count(query_calls=1, query_sets=len(args[1])),
        )
        self._patch_method(
            MonteCarloEngine, "estimate", "diffusion.estimate",
            lambda args, result: self._count(estimate_calls=1),
        )
        self._patch_method(InfluenceService, "evaluate", "serving.evaluate")
        self._patch_method(InfluenceService, "select", "serving.select")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -------------------------------------------------------------- metrics

    def fired(self) -> Dict[str, int]:
        """Number of finished spans per name."""
        fired: Dict[str, int] = defaultdict(int)
        for span in self.recorder.finished():
            fired[span.name] += 1
        return dict(fired)

    def metrics(
        self,
        registry: Mapping[str, object],
        *,
        setup_s: float,
        run_s: float,
        clients: int,
        untraced_run_s: float,
        service_stats: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric of the traced repeat."""
        spans = self.recorder.finished()
        own = self_times(spans)
        busy = setup_s + run_s * clients
        values: Dict[str, float] = {
            "trace.setup_s": setup_s,
            "trace.run_s": run_s,
            "trace.overhead_frac": _ratio(run_s, untraced_run_s) - 1.0,
            "trace.unattributed_frac": _ratio(
                busy - sum(t for name, t in own.items() if name != GLUE_SPAN), busy
            ),
        }
        for name in SPANS:
            values[f"{name}.share"] = _ratio(own.get(name, 0.0), busy)

        counts = self.counts
        full = registry_value(registry, "repro_score_rebuilds_total", kind="full")
        incremental = registry_value(registry, "repro_score_incremental_updates_total")
        registered = registry_value(registry, "repro_sketch_rr_sets_total") + (
            registry_value(registry, "repro_index_rr_sets_total")
        )
        values.update(
            {
                "scoring.mark_active_calls": counts["mark_active_calls"],
                "scoring.rebuilds": full,
                "scoring.incremental_updates": incremental,
                "scoring.incremental_ratio": _ratio(incremental, incremental + full),
                "scoring.edges_touched": registry_value(
                    registry, "repro_score_edges_touched_total"
                ),
                "sketches.rr_sets": counts["rr_sets"],
                "sketches.rr_members": counts["rr_members"],
                "sketches.useful_ratio": _ratio(registered, counts["rr_sets"]),
                "sketches.unregistered_rr_sets": counts["rr_sets"] - registered,
                "sketches.query_calls": counts["query_calls"],
                "sketches.query_sets_per_call": _ratio(
                    counts["query_sets"], counts["query_calls"]
                ),
                "diffusion.estimate_calls": counts["estimate_calls"],
                "diffusion.simulations": registry_value(
                    registry, "repro_mc_simulations_total"
                ),
                "diffusion.cache_hit_ratio": _ratio(
                    registry_value(registry, "repro_mc_cache_hits_total"),
                    counts["estimate_calls"],
                ),
            }
        )
        stats = service_stats or {}
        oracle = sum(span.duration for span in spans if span.name == "sketches.query")
        values.update(
            {
                "serving.batch_size_mean": _ratio(
                    stats.get("evaluate_requests", 0), stats.get("evaluate_batches", 0)
                ),
                "serving.oracle_busy_frac": _ratio(oracle, run_s) if stats else 0.0,
            }
        )
        return {name: float(value) for name, value in values.items()}
