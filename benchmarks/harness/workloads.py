"""The benchmark's workloads: inputs made from a seed, measured runs, output checks.

A *set-up* builds a workload's inputs from scratch (graph generation,
annotation and compilation, plus the index build for ``index-serve``); a
*run* is one ``run_experiment`` call for the batch workloads and one
closed-loop block of requests for ``index-serve``.  :func:`measure` sets up
once and runs once (the cold run, which fills the graph's caches and is the
reference every later output is checked against), times a few more set-ups,
then repeats warm runs on the first set-up for the given number of seconds
and reduces them to the end-to-end metrics: medians over many runs, each
timed set-up and run scaled by :mod:`calibration` to the speed of a quiet
host.  With
``trace=True`` it adds one traced cold set-up and run and reports the
per-layer metrics of :mod:`layers`.

Each workload runs on one fixed graph, as the paper runs on fixed datasets.
The seed ``S`` sets the selection seeds, the estimator's engine seeds
(selection seed + 1000: a RIS selector must not be scored on its own RR
sets) and, for ``index-serve``, the index's engine seed and the request mix.
A graph that changed with ``S`` moved quality by up to 18% and serving
memory by up to 15% between seeds, which is input variation, not noise.
A batch workload cycles its runs through :data:`VARIANTS` selection seeds
(``S``, ``S + VARIANT_STRIDE``, ...): one seed's amount of work differs from
another's (TIM+'s theta by up to 10%, one OSIM seed's selection by 25%),
and a median over several seeds carries less of that than one seed would.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.api as api
from repro.serving import InfluenceIndex, InfluenceService
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
)
from repro.telemetry.export import chrome_trace
from repro.telemetry.registry import MetricsRegistry, set_default_registry
from repro.utils.memory import peak_rss_mb

import calibration
from layers import LayerTracer

#: Every end-to-end metric: name, unit, and which direction is better.
#: Each one applies to every workload: an operation is a ``run_experiment``
#: call for the batch workloads and a request for ``index-serve``.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("select_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_rss_mb", "MB", "lower"),
    ("quality", "objective", "higher"),
)

GRAPH_SEED = 1
ENGINE_SEED_OFFSET = 1000

#: Graph sizes and work per run.  ``full`` is what the benchmark runs;
#: ``tiny`` lets the self-tests run every workload in seconds.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "easyim-wc": {
        "full": {"scale": 3.0, "budget": 50, "theta": 50_000, "counts": [0, 10, 25, 50]},
        "tiny": {"scale": 0.2, "budget": 5, "theta": 2_000, "counts": [0, 1, 5]},
    },
    "osim-oi": {
        "full": {"scale": 30.0, "budget": 100, "simulations": 500,
                 "counts": [0, 25, 50, 100]},
        "tiny": {"scale": 1.0, "budget": 5, "simulations": 50, "counts": [0, 1, 5]},
    },
    "timplus-wc": {
        "full": {"scale": 5.0, "budget": 50, "theta": 50_000},
        "tiny": {"scale": 0.3, "budget": 5, "theta": 2_000},
    },
    "index-serve": {
        "full": {"scale": 5.0, "theta": 50_000, "requests": 200},
        "tiny": {"scale": 0.3, "theta": 2_000, "requests": 20},
    },
}

#: Timed set-ups per repeat, each dropped at once, so ``setup_s`` is a
#: median too.  They come after the first set-up, whose state serves every
#: run and whose memory is read.
SETUPS = {"full": 5, "tiny": 2}
#: Selection seeds a batch workload's runs cycle through, and their spacing,
#: so the variants of two seeds below the stride never share a seed.
VARIANTS = {"full": 8, "tiny": 2}
VARIANT_STRIDE = 10_000
#: Warm runs per repeat at least (a full index-serve repeat thus sends at
#: least 5 x 200 timed requests, enough for its p99).
MIN_RUNS = {"full": 5, "tiny": 2}

#: Wrappers that must fire in the traced run of each workload.
MUST_FIRE: Dict[str, Tuple[str, ...]] = {
    "easyim-wc": (
        "datasets.load_dataset", "graphs.compile", "graphs.fingerprint",
        "api.run_experiment", "api.build_estimator", "algorithms.select",
        "scoring.engine_init", "scoring.mark_active", "scoring.best_inactive",
        "sketches.sample", "sketches.query",
    ),
    "osim-oi": (
        "datasets.load_dataset", "opinion.annotate_graph", "graphs.compile",
        "graphs.fingerprint", "api.run_experiment", "api.build_estimator",
        "algorithms.select", "scoring.engine_init", "scoring.mark_active",
        "scoring.best_inactive", "diffusion.estimate",
    ),
    "timplus-wc": (
        "datasets.load_dataset", "graphs.compile", "graphs.fingerprint",
        "api.run_experiment", "api.build_estimator", "algorithms.select",
        "sketches.sample", "sketches.cover", "sketches.inverted_index", "sketches.query",
    ),
    "index-serve": (
        "datasets.load_dataset", "graphs.compile", "graphs.fingerprint",
        "sketches.sample", "sketches.cover", "sketches.inverted_index", "sketches.query",
        "serving.evaluate", "serving.select",
    ),
}

#: index-serve traffic: closed-loop client threads, seeds per evaluate, and
#: the budgets select requests draw from without replacement, so every
#: select in a run misses the per-budget cache and runs a cover pass.
CLIENTS = 2
EVALUATE_K = 10
SELECT_BUDGETS = tuple(range(10, 51))
TOP_DEGREE_POOL = 200
SERVE_MODEL = "ic"
#: Operations a run needs before its p99 has ten samples beyond it.
P99_MIN_SAMPLES = 1000
JOIN_TIMEOUT_S = 120.0


def seeds_digest(seeds: Sequence[object]) -> str:
    """sha256 of a seed list, as the labels' strings in selection order."""
    return hashlib.sha256(json.dumps([str(s) for s in seeds]).encode()).hexdigest()


@dataclass
class Run:
    """What one run measured and returned."""

    setup_s: float = 0.0
    setup_rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    run_s: float = 0.0
    select: List[float] = field(default_factory=list)
    evaluate: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    seeds: List[object] = field(default_factory=list)
    quality: float = 0.0
    answers: List[object] = field(default_factory=list)
    attempted: int = 1
    failed: Dict[int, str] = field(default_factory=dict)
    service_stats: Optional[Dict[str, object]] = None
    #: What this run's timings are multiplied by to read as on the quiet
    #: reference host (:func:`calibration.factor`).
    scale: float = 1.0


def _check_seed_list(seeds: Sequence[object], budget: int, index_of) -> Optional[str]:
    if len(seeds) != budget:
        return f"{len(seeds)} seeds for budget {budget}"
    if len(set(seeds)) != len(seeds):
        return "duplicate seeds"
    outside = [s for s in seeds if s not in index_of]
    if outside:
        return f"seeds outside the graph: {outside[:3]}"
    return None


class BatchWorkload:
    """A workload that runs ``ExperimentSpec``s through ``run_experiment``.

    The specs differ only in their selection and engine seeds; run ``i``
    runs spec ``i % variants``, and run 0 runs the spec of seed ``S`` itself.
    """

    clients = 1

    def __init__(
        self, name: str, specs: Sequence[ExperimentSpec], setups: int, min_runs: int
    ) -> None:
        self.name = name
        self.specs = list(specs)
        self.variants = len(self.specs)
        self.setups = setups
        self.min_runs = min_runs

    def setup(self):
        return self.specs[0].graph.build().compile()

    def run(self, compiled, index: int) -> Run:
        spec = self.specs[index % self.variants]
        started = time.perf_counter()
        # Through the module attribute, so the traced run sees the wrapper.
        result = api.run_experiment(spec, graph=compiled)
        wall = time.perf_counter() - started
        timings = result.timings
        select_s = timings["selection_seconds"]
        eval_s = timings["estimator_build_seconds"] + timings["estimate_seconds"]
        outcome = Run(
            run_s=wall,
            select=[select_s],
            evaluate=[eval_s],
            latencies=[wall],
            seeds=list(result.seeds),
            quality=float(result.value),
        )
        problem = _check_seed_list(outcome.seeds, int(spec.budget), compiled.index_of)
        if problem is None and select_s + eval_s > wall:
            problem = f"select_s + eval_s = {select_s + eval_s:.4f} exceeds run_s {wall:.4f}"
        if problem is not None:
            outcome.failed[0] = problem
        return outcome

    def score(self, state, outcome: Run) -> None:
        """``run`` already took the seeds and quality from the ``RunResult``."""

    def verify(self, state, reference: Run) -> Dict[int, str]:
        return {}


class ServeWorkload:
    """Closed-loop clients sending evaluate/select requests to an ``InfluenceService``."""

    clients = CLIENTS
    variants = 1

    def __init__(
        self, name: str, seed: int, size: Dict[str, object], setups: int, min_runs: int
    ) -> None:
        self.name = name
        self.seed = seed
        self.graph = GraphSpec(dataset="youtube", scale=size["scale"], seed=GRAPH_SEED)
        self.theta = int(size["theta"])
        self.requests = int(size["requests"])
        self.setups = setups
        self.min_runs = min_runs

    def make_requests(self, compiled) -> List[Tuple[str, object]]:
        """Request mix from the seed: every tenth a select, the rest evaluates
        alternating between top-out-degree seeds and uniform random seeds."""
        rng = np.random.default_rng(self.seed)
        n = compiled.number_of_nodes
        degrees = np.diff(compiled.out_indptr)
        top = np.argsort(-degrees, kind="stable")[:TOP_DEGREE_POOL]
        labels = compiled.labels
        budgets = iter(rng.permutation(SELECT_BUDGETS).tolist())
        requests: List[Tuple[str, object]] = []
        for i in range(self.requests):
            if i % 10 == 9:
                requests.append(("select", next(budgets)))
                continue
            pool = top if i % 2 == 0 else np.arange(n)
            picked = rng.choice(pool, size=min(EVALUATE_K, pool.size), replace=False)
            requests.append(("evaluate", [labels[int(v)] for v in picked]))
        return requests

    def setup(self):
        compiled = self.graph.build().compile()
        index = InfluenceIndex.build(
            compiled, SERVE_MODEL, self.theta, engine_seed=self.seed + ENGINE_SEED_OFFSET
        )
        return compiled, index, self.make_requests(compiled)

    @staticmethod
    def fresh(compiled, index: InfluenceIndex) -> InfluenceIndex:
        """A wrapper over the index's RR sets with an empty selection cache."""
        return InfluenceIndex(
            compiled, index.collection, model=SERVE_MODEL,
            engine_seed=index.engine_seed, fingerprint=index.fingerprint,
        )

    def run(self, state, index: int) -> Run:
        """One block of requests to a new service over a fresh index wrapper, so
        the selects of every block miss the per-budget cache.  Every block
        sends the same requests."""
        compiled, index, requests = state
        service = InfluenceService(capacity=1)
        service.attach(self.fresh(compiled, index))
        results: List[Optional[Tuple[float, object, Optional[str]]]] = [None] * len(requests)
        order = iter(range(len(requests)))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                op, argument = requests[i]
                started = time.perf_counter()
                try:
                    if op == "evaluate":
                        answer = service.evaluate(compiled, SERVE_MODEL, argument)
                    else:
                        answer = service.select(compiled, SERVE_MODEL, argument)
                    error = None
                except Exception as exc:  # a failed request is counted; the loop goes on
                    answer, error = None, repr(exc)
                results[i] = (time.perf_counter() - started, answer, error)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(self.clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        wall = time.perf_counter() - started

        outcome = Run(run_s=wall, attempted=len(requests), service_stats=service.stats())
        if any(thread.is_alive() for thread in threads):
            outcome.failed = {i: "client thread hung" for i in range(len(requests))}
            return outcome
        for i, ((op, argument), result) in enumerate(zip(requests, results)):
            latency, answer, error = result
            outcome.latencies.append(latency)
            if error is not None:
                outcome.failed[i] = error
                outcome.answers.append(None)
                continue
            if op == "evaluate":
                outcome.evaluate.append(latency)
                outcome.answers.append(float(answer))
                degraded = answer.degraded
            else:
                outcome.select.append(latency)
                outcome.answers.append(list(answer.seeds))
                degraded = bool(answer.extras.get("degraded"))
                problem = _check_seed_list(answer.seeds, argument, compiled.index_of)
                if problem is not None:
                    outcome.failed[i] = problem
            if degraded:
                outcome.failed[i] = "degraded answer"
        stats = outcome.service_stats
        if stats["requests_shed"] or stats["degraded_answers"]:
            outcome.failed.setdefault(0, f"service shed or degraded requests: {stats}")
        return outcome

    def score(self, state, outcome: Run) -> None:
        """Seeds and Def. 3 spread of a select at the largest budget, on a fresh
        index wrapper, outside the timed loop."""
        compiled, index, _ = state
        top = self.fresh(compiled, index).select(max(SELECT_BUDGETS))
        outcome.seeds = list(top.seeds)
        outcome.quality = top.estimated_spread - max(SELECT_BUDGETS)

    def verify(self, state, reference: Run) -> Dict[int, str]:
        """Every served answer must equal a direct call made after the timed loop."""
        compiled, index, requests = state
        failed: Dict[int, str] = {}
        evaluations = [i for i, (op, _) in enumerate(requests) if op == "evaluate"]
        direct = index.estimate_spreads([requests[i][1] for i in evaluations])
        for i, value in zip(evaluations, direct):
            if reference.answers[i] != value:
                failed[i] = f"evaluate answered {reference.answers[i]}, direct {value}"
        fresh = self.fresh(compiled, index)
        for i, (op, budget) in enumerate(requests):
            if op == "select" and reference.answers[i] != list(fresh.select(budget).seeds):
                failed[i] = f"select({budget}) differs from a direct select"
        return failed


def make_workload(name: str, seed: int, size: str = "full"):
    """The workload ``name`` with inputs made from ``seed``."""
    if name not in SIZES:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(SIZES)}")
    params = SIZES[name][size]
    if name == "index-serve":
        return ServeWorkload(name, seed, params, SETUPS[size], MIN_RUNS[size])
    specs = [
        _spec(name, params, seed + VARIANT_STRIDE * variant)
        for variant in range(VARIANTS[size])
    ]
    return BatchWorkload(name, specs, SETUPS[size], MIN_RUNS[size])


def _spec(name: str, params: Dict[str, object], seed: int) -> ExperimentSpec:
    """The batch workload ``name`` at selection seed ``seed``."""
    engine_seed = seed + ENGINE_SEED_OFFSET
    if name == "easyim-wc":
        return ExperimentSpec(
            name=name,
            graph=GraphSpec(dataset="soclive", scale=params["scale"], seed=GRAPH_SEED),
            model=ModelSpec(name="wc"),
            algorithm=AlgorithmSpec(name="easyim", options={"max_path_length": 3}),
            budget=params["budget"],
            seed=seed,
            evaluation=EvalSpec(
                objective="spread",
                seed_counts=params["counts"],
                estimator=EstimatorSpec(
                    backend="sketch", theta=params["theta"], engine_seed=engine_seed
                ),
            ),
        )
    if name == "osim-oi":
        return ExperimentSpec(
            name=name,
            graph=GraphSpec(
                dataset="nethept", scale=params["scale"], seed=GRAPH_SEED,
                annotate=True, opinion="normal",
            ),
            model=ModelSpec(name="oi-ic"),
            algorithm=AlgorithmSpec(name="osim", options={"max_path_length": 3}),
            budget=params["budget"],
            seed=seed,
            evaluation=EvalSpec(
                objective="effective-opinion",
                seed_counts=params["counts"],
                estimator=EstimatorSpec(
                    backend="monte-carlo",
                    simulations=params["simulations"],
                    engine_seed=engine_seed,
                ),
            ),
        )
    return ExperimentSpec(
        name=name,
        graph=GraphSpec(dataset="youtube", scale=params["scale"], seed=GRAPH_SEED),
        model=ModelSpec(name="wc"),
        algorithm=AlgorithmSpec(name="tim+", options={"epsilon": 0.2}),
        budget=params["budget"],
        seed=seed,
        evaluation=EvalSpec(
            objective="spread",
            estimator=EstimatorSpec(
                backend="sketch", theta=params["theta"], engine_seed=engine_seed
            ),
        ),
    )


def _failed_run(workload, exc: Exception) -> Run:
    """A run whose set-up or run raised: every operation of it failed."""
    attempted = getattr(workload, "requests", 1)
    return Run(attempted=attempted, failed=dict.fromkeys(range(attempted), repr(exc)))


def _setup(workload) -> Tuple[object, float]:
    """A fresh set-up and its wall time."""
    # Collect the previous state's garbage now, not at a random point of this one.
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    return state, time.perf_counter() - started


def _run(workload, state, index: int) -> Run:
    """Run ``index`` on a set-up state; an exception fails every operation of it."""
    gc.collect()
    try:
        return workload.run(state, index)
    except Exception as exc:  # the repeat goes on and reports the failure
        return _failed_run(workload, exc)


def _cold_run(workload) -> Tuple[object, Run]:
    """Set up from scratch and run once, reading memory after each."""
    try:
        state, setup_s = _setup(workload)
    except Exception as exc:  # the repeat goes on and reports the failure
        return None, _failed_run(workload, exc)
    setup_rss = peak_rss_mb()
    outcome = _run(workload, state, 0)
    outcome.setup_s = setup_s
    outcome.setup_rss_mb = setup_rss
    outcome.peak_rss_mb = peak_rss_mb()
    return state, outcome


def _score(workload, state, outcome: Run) -> None:
    if state is None:
        return
    try:
        workload.score(state, outcome)
    except Exception as exc:  # reported as a failed run
        outcome.failed.setdefault(0, f"scoring failed: {exc!r}")


def _disagreement(outcome: Run, reference: Run) -> Dict[int, str]:
    """Ops of ``outcome`` whose outputs differ from the reference run's."""
    failed: Dict[int, str] = {}
    # A serving run returns answers only; its state's seeds are scored once.
    if outcome.seeds and outcome.seeds != reference.seeds:
        failed[0] = "seed list differs between runs"
    elif outcome.seeds and outcome.quality != reference.quality:
        failed[0] = f"quality {outcome.quality} differs from {reference.quality}"
    for i, (mine, theirs) in enumerate(zip(outcome.answers, reference.answers)):
        if mine != theirs and i not in outcome.failed:
            failed[i] = "answer differs between runs"
    return failed


def measure(
    workload,
    seconds: float,
    *,
    trace: bool = False,
    trace_path=None,
) -> Dict[str, object]:
    """Set up and run the workload for about ``seconds`` and reduce the runs.

    The cold run on the first set-up is the reference; ``workload.setups``
    more set-ups are timed and dropped; warm runs on the first set-up follow
    until the next one would end past ``seconds`` (at least
    ``workload.min_runs``).  Run ``i`` runs variant ``i % workload.variants``,
    and must reproduce that variant's first run.  Every timed set-up and run sits between two
    calibration kernels and is scaled by them to the quiet reference host.
    Returns a dictionary with ``metrics`` (every end-to-end metric, or every
    per-layer metric when ``trace``), the ``attempted``/``failed`` operation
    counts, the failure messages, the reference run's seed digest and
    quality, and the unscaled medians.
    """
    started = time.perf_counter()
    state, reference = _cold_run(workload)
    _score(workload, state, reference)
    runs: List[Run] = [reference]
    # Each variant's first good run is what its later runs must reproduce.
    references = {0: reference}
    failures: List[str] = []
    setups: List[Tuple[float, float]] = []
    if not reference.failed:
        kernel = calibration.kernel_s()
        for index in range(workload.setups):
            try:
                dropped, setup_s = _setup(workload)
            except Exception as exc:  # reported; the timed runs go on
                failures.append(f"set-up {index + 1}: {exc!r}")
                break
            del dropped
            after = calibration.kernel_s()
            setups.append((setup_s, calibration.factor(kernel, after)))
            kernel = after
        while len(runs) <= workload.min_runs or (
            time.perf_counter() - started + median(r.run_s for r in runs) < seconds
        ):
            variant = len(runs) % workload.variants
            outcome = _run(workload, state, len(runs))
            after = calibration.kernel_s()
            outcome.scale = calibration.factor(kernel, after)
            kernel = after
            if not outcome.failed:
                if variant in references:
                    outcome.failed.update(_disagreement(outcome, references[variant]))
                else:
                    references[variant] = outcome
            runs.append(outcome)
        if not runs[-1].failed:
            runs[-1].failed.update(workload.verify(state, runs[-1]))
    state = None
    warm = [r for r in runs[1:] if not r.failed]

    per_layer = None
    if trace and warm:
        per_layer, traced = _traced_run(workload, reference.run_s, trace_path)
        runs.append(traced)
        if not traced.failed:
            traced.failed.update(_disagreement(traced, reference))

    for index, outcome in enumerate(runs):
        failures.extend(f"run {index}: {msg}" for msg in list(outcome.failed.values())[:5])
    detail: Dict[str, object] = {
        "workload": workload.name,
        "setups": len(setups),
        "runs": len(runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(min(len(r.failed), r.attempted) for r in runs),
        "failures": failures,
    }
    if not warm:
        return detail
    detail["seeds_sha256"] = seeds_digest(reference.seeds)
    detail["quality"] = reference.quality
    if per_layer is not None:
        detail["metrics"] = per_layer
        return detail
    detail["wall"] = {
        "setup_s": median(seconds for seconds, _ in setups),
        "run_s": median(r.run_s for r in warm),
        "select_s": median(v for r in warm for v in r.select),
        "eval_s": median(v for r in warm for v in r.evaluate),
    }
    detail["host_slowdown"] = median(1.0 / r.scale for r in warm)
    detail["metrics"] = {
        "setup_s": median(seconds * scale for seconds, scale in setups),
        "run_s": median(r.run_s * r.scale for r in warm),
        "select_s": median(v * r.scale for r in warm for v in r.select),
        "eval_s": median(v * r.scale for r in warm for v in r.evaluate),
        # Memory is read around the first set-up and cold run only: later
        # set-ups allocate in a heap the earlier ones fragmented, and their
        # high-water mark (129 or 151 MB on index-serve, from one process to
        # the next) reflects allocator history, not the program.
        "peak_rss_mb": reference.peak_rss_mb,
        "setup_rss_mb": reference.setup_rss_mb,
        "quality": reference.quality,
    }
    # The tail is reported only where ten samples lie beyond it, and is not
    # bounded: between runs it moves more than any bound the benchmark may set.
    latencies = [v * r.scale for r in warm for v in r.latencies]
    if len(latencies) >= P99_MIN_SAMPLES:
        detail["p99_ms"] = quantiles(latencies, n=100)[98] * 1000.0
    return detail


def _traced_run(
    workload, untraced_run_s: float, trace_path: Optional[pathlib.Path]
) -> Tuple[Dict[str, float], Run]:
    """One more cold set-up and run with the layer wrappers installed on a
    fresh registry; ``untraced_run_s`` is the untraced cold run's time."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    tracer = LayerTracer()
    try:
        with tracer:
            state, traced = _cold_run(workload)
    finally:
        set_default_registry(previous)
    _score(workload, state, traced)
    metrics = tracer.metrics(
        registry.snapshot(),
        setup_s=traced.setup_s,
        run_s=traced.run_s,
        clients=workload.clients,
        untraced_run_s=untraced_run_s,
        service_stats=traced.service_stats,
    )
    fired = tracer.fired()
    silent = [name for name in MUST_FIRE[workload.name] if not fired.get(name)]
    if silent:
        traced.failed.setdefault(0, f"wrappers that must fire did not: {silent}")
    if tracer.recorder.dropped:
        traced.failed.setdefault(0, f"trace recorder dropped {tracer.recorder.dropped} spans")
    if metrics["sketches.unregistered_rr_sets"] < 0:
        traced.failed.setdefault(0, "registry counted more RR sets than were sampled")
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(chrome_trace(tracer.recorder)))
    return metrics, traced
