"""The unified experiment API: one call runs any declarative spec.

This module is the execution half of the spec layer
(:mod:`repro.specs`): it adapts the three spread-estimation backends — the
batch Monte-Carlo engine, the RR-sketch index (sampled in memory or loaded
from a persisted artifact) and the incremental score engine — behind one
:class:`SpreadEstimator` protocol, negotiates which backend can serve a
requested (model, objective) pair from capability metadata, and executes
:class:`~repro.specs.ExperimentSpec` documents end-to-end::

    import repro

    spec = repro.ExperimentSpec(
        graph=repro.GraphSpec(dataset="nethept", scale=0.1, seed=1),
        model=repro.ModelSpec(name="wc"),
        algorithm=repro.AlgorithmSpec(name="tim+"),
        budget=10,
        evaluation=repro.EvalSpec(seed_counts=[1, 5, 10],
                                  estimator=repro.EstimatorSpec(backend="sketch")),
    )
    result = repro.run_experiment(spec)
    print(result.seeds, result.value, result.curve)
    print(result.to_json())

Every run returns a :class:`RunResult` carrying full provenance — graph
fingerprint, engine and selection seeds, backend configuration, timings —
and serialises to the one JSON schema (``repro/run-result@1``) the CLI now
emits everywhere.

Objective conventions: all backends report the paper's Def. 3 spread
(activated nodes *excluding* seeds) for the ``spread`` objective, so the
Monte-Carlo and sketch backends agree within sampling error on the same
seed set.  The ``score`` backend is different by design: it reports
the EaSyIM/OSIM residual path-score mass (the quantity ScoreGREEDY
maximises), a fast heuristic *ranking* surface that is not
sigma-comparable; its results are flagged ``sigma_comparable: false`` in
the provenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro._version import __version__
from repro.algorithms.base import SeedSelectionResult, SeedSelector
from repro.algorithms.registry import (
    RIS_MODELS,
    algorithm_info,
    check_model_support,
    get_algorithm,
)
from repro.diffusion.base import DiffusionModel
from repro.diffusion.registry import base_model_layer
from repro.diffusion.simulation import MonteCarloEngine
from repro.exceptions import ConfigurationError, MissingAnnotationError
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.graphs.fingerprint import graph_fingerprint
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    ExperimentSpec,
)
from repro.telemetry.tracing import TraceRecorder, recording, span
from repro.utils.memory import peak_rss_mb

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    import pathlib

    from repro.runtime.checkpoint import RunCheckpoint
    from repro.scoring import ScoreEngine

#: Schema identifier stamped on every serialised :class:`RunResult`.
RESULT_SCHEMA = "repro/run-result@1"

#: Diffusion models the sketch backend can sample under (sorted view
#: of the sampler's supported set, for stable error messages).
_RIS_MODELS = tuple(sorted(RIS_MODELS))


# --------------------------------------------------------------------- protocol


@runtime_checkable
class SpreadEstimator(Protocol):
    """Common surface of the three spread-estimation backends.

    ``estimate(seeds)`` returns the configured objective's value for one
    seed set; ``sweep(seeds, seed_counts)`` evaluates every requested
    prefix of ``seeds`` (the k-sweeps behind the paper's figures) and is
    where backends amortise shared work (one sampling pass, one batched
    coverage pass, one telescoping score walk).  ``details(seeds)`` returns
    the backend's named values (e.g. all three Monte-Carlo objectives) and
    ``describe()`` its provenance-ready configuration.
    """

    backend: str

    def estimate(self, seeds: Sequence[Node]) -> float: ...

    def sweep(
        self, seeds: Sequence[Node], seed_counts: Sequence[int]
    ) -> Dict[int, float]: ...

    def details(self, seeds: Sequence[Node]) -> Dict[str, float]: ...

    def describe(self) -> Dict[str, object]: ...


def def3_spread(raw: float, k: int) -> float:
    """The paper's Def. 3 spread: activated nodes *excluding* the k seeds.

    The single place the seed-exclusion convention lives for the RIS-backed
    estimators (the Monte-Carlo engine reports Def. 3 natively); clamped at
    zero because a raw RIS estimate can fall below k on tiny collections.
    """
    return max(float(raw) - k, 0.0) if k else 0.0


def _check_prefix_counts(seeds: Sequence[Node], seed_counts: Sequence[int]) -> List[int]:
    counts = [int(k) for k in seed_counts]
    for k in counts:
        if k < 0 or k > len(seeds):
            raise ConfigurationError(f"seed count {k} is outside 0..{len(seeds)}")
    return counts


class MonteCarloEstimator:
    """Adapter over :class:`~repro.diffusion.simulation.MonteCarloEngine`.

    The only backend that understands every registered diffusion model and
    all three objectives (Defs. 3, 6, 7).
    """

    backend = "monte-carlo"
    sigma_comparable = True

    def __init__(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: Union[str, DiffusionModel],
        *,
        objective: str = "spread",
        simulations: int = 1000,
        penalty: float = 1.0,
        seed: int = 0,
        workers: int = 1,
    ) -> None:
        self.objective = objective
        self.engine = MonteCarloEngine(
            graph,
            model,
            simulations=simulations,
            penalty=penalty,
            seed=seed,
            workers=workers,
        )
        self.simulations = simulations
        self.engine_seed = seed

    def estimate(self, seeds: Sequence[Node]) -> float:
        return self.engine.estimate(seeds).objective(self.objective)

    def details(self, seeds: Sequence[Node]) -> Dict[str, float]:
        estimate = self.engine.estimate(seeds)
        return {
            "spread": estimate.spread,
            "opinion_spread": estimate.opinion_spread,
            "effective_opinion_spread": estimate.effective_opinion_spread,
        }

    def sweep(
        self, seeds: Sequence[Node], seed_counts: Sequence[int]
    ) -> Dict[int, float]:
        counts = _check_prefix_counts(seeds, seed_counts)
        # Resolve every label, not only those inside the swept prefixes.
        self.engine._normalise_seeds(seeds)
        return {
            k: 0.0 if k == 0 else self.estimate(list(seeds)[:k]) for k in counts
        }

    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "simulations": self.simulations,
            "engine_seed": self.engine_seed,
            "sigma_comparable": self.sigma_comparable,
        }


class SketchEstimator:
    """Adapter over an RR-sketch :class:`~repro.serving.index.InfluenceIndex`.

    Loads ``artifact`` when given (the index validates the graph
    fingerprint); otherwise draws ``theta`` RR sets in one sampling pass and
    wraps them.  Every query afterwards is a batched coverage pass over the
    same sets, and the wrapped index also answers warm ``select`` queries
    for the CLI.
    """

    backend = "sketch"
    sigma_comparable = True

    def __init__(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: Optional[str],
        *,
        theta: int = 20_000,
        block_size: int = 2048,
        seed: int = 0,
        artifact: Optional[str] = None,
        mmap: bool = True,
    ) -> None:
        from repro.serving.index import InfluenceIndex
        from repro.sketches.collection import RRSetCollection
        from repro.sketches.sampler import BatchRRSampler
        from repro.utils.rng import ensure_rng

        compiled = graph.compile() if isinstance(graph, DiGraph) else graph
        if artifact is not None:
            self.index = InfluenceIndex.load(artifact, compiled, mmap=mmap)
            if model is not None and self.index.model != model:
                # A spec that names a model must not silently serve numbers
                # sampled under a different one.
                raise ConfigurationError(
                    f"index artifact {artifact!r} was sampled under model "
                    f"{self.index.model!r} but the experiment asks for "
                    f"{model!r}; rebuild the index or fix the spec"
                )
        else:
            if theta < 1:
                raise ConfigurationError(f"theta must be >= 1, got {theta}")
            sampler = BatchRRSampler(compiled, model)
            collection = RRSetCollection(compiled.number_of_nodes)
            sampler.sample_into(ensure_rng(seed), collection, int(theta), block_size)
            self.index = InfluenceIndex(
                compiled,
                collection,
                model=model,
                engine_seed=seed,
                block_size=block_size,
            )
        self.artifact = artifact

    @property
    def model(self) -> str:
        return self.index.model

    def estimate(self, seeds: Sequence[Node]) -> float:
        return self.details(seeds)["spread"]

    def details(self, seeds: Sequence[Node]) -> Dict[str, float]:
        seeds = list(seeds)
        raw = float(self.index.estimate_spread(seeds)) if seeds else 0.0
        return {
            "estimated_spread": raw,
            "spread": def3_spread(raw, len(seeds)),
        }

    def sweep(
        self, seeds: Sequence[Node], seed_counts: Sequence[int]
    ) -> Dict[int, float]:
        counts = _check_prefix_counts(seeds, seed_counts)
        # Resolve the whole list once, so an unknown label outside the swept
        # prefixes raises too; then one batched oracle call for the sweep.
        indices = self.index._indices_for(seeds)
        nonzero = [k for k in counts if k > 0]
        raw = self.index._estimate_spreads_indices([indices[:k] for k in nonzero])
        by_count = dict(zip(nonzero, raw))
        return {k: def3_spread(by_count.get(k, 0.0), k) for k in counts}

    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "model": self.index.model,
            "theta": self.index.theta,
            "engine_seed": self.index.engine_seed,
            "artifact": self.artifact,
            "memory_mapped": self.index.memory_mapped,
            "sigma_comparable": self.sigma_comparable,
        }


class ScoreEstimator:
    """Adapter over the incremental :class:`~repro.scoring.engine.ScoreEngine`.

    Reports the telescoping residual path-score mass of a seed list — the
    exact quantity ScoreGREEDY maximises when it picks seeds one by one —
    under the EaSyIM (``spread`` objective) or OSIM (opinion objectives)
    scoring rule.  This is a heuristic proxy, **not** an estimate of sigma;
    use it for fast ranking sweeps, not for quality numbers.
    """

    backend = "score"
    sigma_comparable = False

    def __init__(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: str,
        *,
        objective: str = "spread",
        max_path_length: int = 3,
    ) -> None:
        self.graph = graph.compile() if isinstance(graph, DiGraph) else graph
        self.model = model
        self.objective = objective
        self.algorithm = "easyim" if objective == "spread" else "osim"
        self.weighting = base_model_layer(model)
        self.max_path_length = int(max_path_length)
        self._cache_key: Optional[tuple] = None
        self._cache_totals: List[float] = [0.0]

    def _engine(self) -> "ScoreEngine":
        from repro.scoring import ScoreEngine

        return ScoreEngine(
            self.graph,
            algorithm=self.algorithm,
            max_path_length=self.max_path_length,
            weighting=self.weighting,
            model=self.model,
        )

    def _cumulative(self, seeds: Sequence[Node]) -> List[float]:
        """Telescoping score totals for every prefix of ``seeds``.

        One engine build serves estimate/details/sweep for the same seed
        list (``totals[k]`` is the residual score mass of the first ``k``
        seeds), so a run never pays the O(l*(n+m)) engine construction
        twice.
        """
        key = tuple(seeds)
        if self._cache_key != key:
            try:
                indices = self.graph.indices_for(list(seeds))
            except KeyError as error:
                raise ConfigurationError(
                    f"seed {error.args[0]!r} is not a node of the graph"
                ) from None
            engine = self._engine()
            totals = [0.0]
            for node in indices:
                totals.append(totals[-1] + float(engine.score_of(node)))
                engine.mark_active([node])
            self._cache_key, self._cache_totals = key, totals
        return self._cache_totals

    def estimate(self, seeds: Sequence[Node]) -> float:
        return self._cumulative(seeds)[-1]

    def details(self, seeds: Sequence[Node]) -> Dict[str, float]:
        return {"score": self.estimate(seeds)}

    def sweep(
        self, seeds: Sequence[Node], seed_counts: Sequence[int]
    ) -> Dict[int, float]:
        counts = _check_prefix_counts(seeds, seed_counts)
        totals = self._cumulative(seeds)
        return {k: totals[k] for k in counts}

    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "algorithm": self.algorithm,
            "weighting": self.weighting,
            "max_path_length": self.max_path_length,
            "sigma_comparable": self.sigma_comparable,
        }


# ------------------------------------------------------- capability negotiation


def estimator_capabilities() -> Dict[str, Dict[str, object]]:
    """What each estimator backend can serve (models, objectives, nature)."""
    return {
        "monte-carlo": {
            "models": "any registered diffusion model",
            "objectives": ["spread", "opinion", "effective-opinion"],
            "sigma_comparable": True,
        },
        "sketch": {
            "models": list(_RIS_MODELS),
            "objectives": ["spread"],
            "sigma_comparable": True,
        },
        "score": {
            "models": "any (scored under the ic/wc/lt base layer)",
            "objectives": ["spread", "opinion", "effective-opinion"],
            "sigma_comparable": False,
        },
    }


def build_estimator(
    spec: Union[str, EstimatorSpec],
    graph: Union[DiGraph, CompiledGraph],
    model: Union[str, DiffusionModel, None],
    *,
    objective: str = "spread",
    penalty: float = 1.0,
) -> SpreadEstimator:
    """Construct the backend an :class:`EstimatorSpec` names, or refuse loudly.

    Capability negotiation: the sketch backend can only sample
    under the opinion-oblivious ic/wc/lt models and only estimate the
    ``spread`` objective, and only the Monte-Carlo backend takes
    ``workers > 1``; asking for more raises a
    :class:`ConfigurationError` naming the backends that *can* serve the
    request instead of silently coercing the model (the pre-redesign CLI
    bug class this API removes).
    """
    if isinstance(spec, str):
        spec = EstimatorSpec(backend=spec)
    backend = spec.backend
    if model is None:
        # Only an index artifact carries its own model in its provenance.
        if not (backend == "sketch" and spec.artifact is not None):
            raise ConfigurationError(
                f"estimator backend {backend!r} requires a diffusion model; "
                "only the 'sketch' backend with an artifact can infer one"
            )
        model_name = None
    else:
        model_name = model if isinstance(model, str) else model.name
    if backend == "sketch":
        problems = []
        if model_name is not None and model_name not in _RIS_MODELS:
            problems.append(
                f"model {model_name!r} (supported: {'/'.join(_RIS_MODELS)})"
            )
        if objective != "spread":
            problems.append(f"objective {objective!r} (supported: 'spread')")
        if problems:
            raise ConfigurationError(
                f"estimator backend {backend!r} cannot serve "
                f"{' and '.join(problems)}; use the 'monte-carlo' backend for "
                "opinion-aware models and objectives, or the 'score' backend "
                "for a fast heuristic sweep"
            )
    if backend != "monte-carlo" and spec.workers > 1:
        raise ConfigurationError(
            f"estimator backend {backend!r} runs serially and cannot use "
            f"workers={spec.workers}; only the 'monte-carlo' backend spreads "
            "its work across worker processes"
        )
    if backend == "monte-carlo":
        return MonteCarloEstimator(
            graph,
            model,
            objective=objective,
            simulations=spec.simulations,
            penalty=penalty,
            seed=spec.engine_seed,
            workers=spec.workers,
        )
    if backend == "sketch":
        return SketchEstimator(
            graph,
            model_name,
            theta=spec.theta,
            block_size=spec.block_size,
            seed=spec.engine_seed,
            artifact=spec.artifact,
            mmap=spec.mmap,
        )
    if backend == "score":
        if objective == "effective-opinion" and penalty != 1.0:
            # OSIM's residual scores have no penalty (lambda) term; serving
            # a penalty-weighted request from them would silently report a
            # number that was never penalty-adjusted.
            raise ConfigurationError(
                f"estimator backend 'score' cannot apply penalty {penalty}; "
                "its OSIM residual scores have no lambda term — use "
                "penalty=1.0 or the 'monte-carlo' backend for "
                "penalty-weighted estimates"
            )
        return ScoreEstimator(
            graph,
            model_name,
            objective=objective,
            max_path_length=spec.max_path_length,
        )
    raise ConfigurationError(f"unknown estimator backend {backend!r}")


def build_selector(
    spec: AlgorithmSpec,
    *,
    model: Union[str, DiffusionModel, None] = None,
    objective: Optional[str] = None,
    penalty: Optional[float] = None,
    seed: Optional[int] = None,
) -> SeedSelector:
    """Instantiate an algorithm, injecting context by declared capability.

    Explicit entries in ``spec.options`` always win; the model, objective,
    penalty and selection seed are only added where the registry metadata
    says the constructor accepts them.  An algorithm with a restricted
    ``supported_models`` set rejects other models with a
    :class:`ConfigurationError` listing the supported ones — declarative
    specs never silently coerce.
    """
    info = algorithm_info(spec.name)
    options = dict(spec.options)
    if model is not None and info.model_aware and "model" not in options:
        model_name = model if isinstance(model, str) else model.name
        # Declarative specs never coerce: an unsupported model raises with
        # the supported list (a RIS algorithm in an opinion-aware experiment
        # names its ic/wc/lt layer in algorithm.options.model).
        check_model_support(spec.name, model_name)
        options["model"] = model_name if info.supported_models is not None else model
    if objective is not None and info.objective_aware and "objective" not in options:
        options["objective"] = objective
    if penalty is not None and info.penalty_aware:
        options.setdefault("penalty", penalty)
    if seed is not None and info.seedable and "seed" not in options:
        options["seed"] = seed
    return get_algorithm(spec.name, **options)


# ------------------------------------------------------------------- RunResult


def _round_floats(value: object, digits: int = 4) -> object:
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, digits) for v in value]
    return value


def jsonable(value: object) -> object:
    """Best-effort conversion of metadata values to JSON-encodable types.

    Public shared infrastructure: :class:`RunResult` payloads and the CLI's
    serve loop both flatten numpy scalars/arrays and arbitrary metadata
    through this one function.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy scalar or array of any shape
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


_jsonable = jsonable


@dataclass
class RunResult:
    """Outcome of one experiment run, with full provenance.

    Serialises to the ``repro/run-result@1`` JSON schema (see
    :meth:`to_payload`), the one shape the CLI's ``select``, ``evaluate``,
    ``index query`` and ``run`` commands all emit under ``--json``.
    """

    query: str
    seeds: List[Node]
    model: str
    objective: str
    backend: str
    value: Optional[float] = None
    algorithm: Optional[str] = None
    budget: Optional[int] = None
    dataset: Optional[str] = None
    curve: Optional[Dict[int, float]] = None
    spreads: Dict[str, float] = field(default_factory=dict)
    selection: Optional[SeedSelectionResult] = None
    selection_metadata: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)
    spec: Optional[ExperimentSpec] = None

    def __iter__(self) -> Iterator:
        return iter(self.seeds)

    def __len__(self) -> int:
        return len(self.seeds)

    def to_payload(self) -> Dict[str, object]:
        """The canonical JSON-ready dictionary (``repro/run-result@1``).

        Field order is stable: identity first (schema/query/dataset/
        algorithm/model/objective/backend/budget), then the seeds and the
        estimates (the flattened ``spreads`` mapping, ``value``, ``curve``),
        then estimator-specific ``extras`` at top level (e.g. ``theta``,
        ``memory_mapped`` for ``index query``), then ``selection_metadata``,
        ``runtime_seconds``, ``timings`` and ``provenance``.  ``None``-valued
        fields are omitted.
        """
        payload: Dict[str, object] = {
            "schema": RESULT_SCHEMA,
            "query": self.query,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "model": self.model,
            "objective": self.objective,
            "backend": self.backend,
            "budget": self.budget,
            "seeds": [str(s) for s in self.seeds],
        }
        for name, spread in self.spreads.items():
            payload[name] = round(float(spread), 3)
        if self.value is not None:
            payload["value"] = round(float(self.value), 3)
        if self.curve is not None:
            payload["curve"] = {
                str(k): round(float(v), 3) for k, v in self.curve.items()
            }
        for key, value in self.extras.items():
            payload.setdefault(key, _jsonable(value))
        if self.selection_metadata:
            payload["selection_metadata"] = _jsonable(self.selection_metadata)
        if "selection_seconds" in self.timings:
            payload["runtime_seconds"] = round(self.timings["selection_seconds"], 4)
        payload["timings"] = _round_floats(dict(self.timings), 4)
        payload["provenance"] = _jsonable(self.provenance)
        return {k: v for k, v in payload.items() if v is not None}

    def to_dict(self) -> Dict[str, object]:
        return self.to_payload()

    @property
    def telemetry(self) -> Dict[str, object]:
        """The run's telemetry section (stage timings, spans, peak RSS).

        Lives inside ``provenance`` so it serialises — and round-trips
        through :meth:`to_dict`/:meth:`from_dict` — with no extra schema
        field.  Empty when the run predates telemetry.
        """
        section = self.provenance.get("telemetry", {})
        return dict(section) if isinstance(section, Mapping) else {}

    def to_json(self, indent: Optional[int] = 2) -> str:
        import json

        return json.dumps(self.to_payload(), indent=indent)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RunResult":
        """Rehydrate a result from its serialised payload (best effort).

        Round-trips the canonical fields; estimator extras land in
        ``extras`` and the flattened spread values in ``spreads``.
        """
        if payload.get("schema") != RESULT_SCHEMA:
            raise ConfigurationError(
                f"payload schema {payload.get('schema')!r} is not {RESULT_SCHEMA!r}"
            )
        known = {
            "schema", "query", "dataset", "algorithm", "model", "objective",
            "backend", "budget", "seeds", "value", "curve",
            "selection_metadata", "runtime_seconds", "timings", "provenance",
        }
        spread_keys = {
            "spread", "opinion_spread", "effective_opinion_spread",
            "estimated_spread", "score",
        }
        curve = payload.get("curve")
        return cls(
            query=str(payload["query"]),
            seeds=list(payload.get("seeds", [])),
            model=str(payload["model"]),
            objective=str(payload["objective"]),
            backend=str(payload["backend"]),
            value=payload.get("value"),
            algorithm=payload.get("algorithm"),
            budget=payload.get("budget"),
            dataset=payload.get("dataset"),
            curve=None if curve is None else {int(k): float(v) for k, v in curve.items()},
            spreads={k: float(payload[k]) for k in spread_keys if k in payload},
            selection_metadata=dict(payload.get("selection_metadata", {})),
            provenance=dict(payload.get("provenance", {})),
            timings=dict(payload.get("timings", {})),
            extras={
                k: v
                for k, v in payload.items()
                if k not in known and k not in spread_keys
            },
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunResult":
        """Alias for :meth:`from_payload` (pairs with :meth:`to_dict`)."""
        return cls.from_payload(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        import json

        return cls.from_payload(json.loads(text))


# -------------------------------------------------------------- run_experiment

#: details() key that carries each objective's value.
_OBJECTIVE_DETAIL_KEYS = {
    "spread": "spread",
    "opinion": "opinion_spread",
    "effective-opinion": "effective_opinion_spread",
}


def _objective_value(details: Mapping, objective: str) -> float:
    """Read the configured objective out of an estimator's named values.

    Every backend's ``details()`` already contains its headline number, so
    the runner never pays for a second ``estimate()`` pass.
    """
    key = _OBJECTIVE_DETAIL_KEYS.get(objective, objective)
    if key in details:
        return float(details[key])
    if "score" in details:  # the heuristic score backend
        return float(details["score"])
    raise ConfigurationError(
        f"estimator details {sorted(details)} carry no value for the "
        f"{objective!r} objective"
    )


def _build_provenance(
    spec: ExperimentSpec,
    compiled: CompiledGraph,
    estimator: SpreadEstimator,
) -> Dict[str, object]:
    return {
        "graph_fingerprint": graph_fingerprint(compiled),
        "n": compiled.number_of_nodes,
        "m": compiled.number_of_edges,
        "graph_seed": spec.graph.seed,
        "selection_seed": spec.seed,
        "penalty": spec.evaluation.penalty,
        "estimator": estimator.describe(),
        "library_version": __version__,
        "numpy_version": np.__version__,
        "spec": spec.to_dict(),
    }


def run_experiment(
    spec: ExperimentSpec,
    *,
    graph: Union[DiGraph, CompiledGraph, None] = None,
    checkpoint: Union[str, "pathlib.Path", "RunCheckpoint", None] = None,
    resume: bool = False,
) -> RunResult:
    """Execute a declarative :class:`~repro.specs.ExperimentSpec` end-to-end.

    Loads (or accepts) the graph, builds the algorithm with
    capability-injected context and selects seeds — or takes the spec's
    fixed seed list — then estimates the configured objective through the
    negotiated backend, sweeping every requested prefix.  Pass ``graph`` to
    reuse an already-materialised graph (it must match the spec's
    description; the content fingerprint is recorded either way).  An
    ``opinion`` or ``effective-opinion`` objective on a graph without
    opinion annotations raises
    :class:`~repro.exceptions.MissingAnnotationError` before selection.

    ``checkpoint`` (a path or a
    :class:`~repro.runtime.checkpoint.RunCheckpoint`) persists the
    completed selection stage — the expensive half of a run — keyed by the
    spec's canonical digest; with ``resume=True`` a matching checkpoint
    skips the selector and goes straight to estimation.  A checkpoint
    written for a different spec is refused
    (:class:`~repro.exceptions.CheckpointError`), never silently served.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ConfigurationError(
            f"spec must be an ExperimentSpec, got {type(spec).__name__}; "
            "build one with repro.ExperimentSpec or load one with "
            "repro.load_experiment_spec()"
        )
    run_checkpoint: Optional["RunCheckpoint"] = None
    spec_digest = ""
    if checkpoint is not None:
        from repro.runtime.checkpoint import RunCheckpoint as _RunCheckpoint

        run_checkpoint = (
            checkpoint
            if isinstance(checkpoint, _RunCheckpoint)
            else _RunCheckpoint(checkpoint)
        )
        spec_digest = _RunCheckpoint.spec_digest(spec)
    total_started = time.perf_counter()
    timings: Dict[str, float] = {}
    # Span trees are recorded per run with a spec-seeded recorder so span
    # IDs — and therefore the serialised provenance — are reproducible
    # (REP002: no wall-clock identity in results).
    recorder = TraceRecorder(seed=spec.seed or 0)

    with recording(recorder):
        started = time.perf_counter()
        with span("stage_load", dataset=str(spec.graph.dataset)):
            loaded = spec.graph.build() if graph is None else graph
            dataset = getattr(loaded, "name", None) or spec.graph.dataset
            compiled = loaded.compile() if isinstance(loaded, DiGraph) else loaded
        timings["load_seconds"] = time.perf_counter() - started
        if (
            spec.evaluation.objective in ("opinion", "effective-opinion")
            and isinstance(loaded, DiGraph)
            and not loaded.has_opinions()
        ):
            # Unannotated nodes compile to opinion 0, so every opinion
            # objective would quietly report 0.0.  (A CompiledGraph no longer
            # records which nodes were annotated, so it is taken as given.)
            raise MissingAnnotationError("opinion")

        model = spec.model.build()

        selection: Optional[SeedSelectionResult] = None
        resumed_selection = False
        if spec.algorithm is not None:
            if run_checkpoint is not None and resume:
                selection = run_checkpoint.load_selection(spec_digest)
                resumed_selection = selection is not None
            if selection is not None:
                # The checkpointed stage's own runtime, not the (near-zero)
                # time to reload it — sweeps that sum stage timings should
                # see the cost the run actually paid once.
                timings["selection_seconds"] = selection.runtime_seconds
            else:
                selector = build_selector(
                    spec.algorithm,
                    model=model,
                    objective=spec.evaluation.objective,
                    penalty=spec.evaluation.penalty,
                    seed=spec.seed,
                )
                started = time.perf_counter()
                with span(
                    "stage_select",
                    algorithm=spec.algorithm.name,
                    budget=int(spec.budget or 0),
                ):
                    selection = selector.select(compiled, spec.budget)
                timings["selection_seconds"] = time.perf_counter() - started
                if run_checkpoint is not None:
                    run_checkpoint.save_selection(spec_digest, selection)
            seeds = list(selection.seeds)
        else:
            seeds = list(spec.seeds)

        started = time.perf_counter()
        with span(
            "stage_build_estimator", backend=str(spec.evaluation.estimator.backend)
        ):
            estimator = build_estimator(
                spec.evaluation.estimator,
                compiled,
                model,
                objective=spec.evaluation.objective,
                penalty=spec.evaluation.penalty,
            )
        timings["estimator_build_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        with span("stage_estimate", seeds=len(seeds)):
            spreads = estimator.details(seeds)
            value = _objective_value(spreads, spec.evaluation.objective)
            curve: Optional[Dict[int, float]] = None
            if spec.evaluation.seed_counts is not None:
                curve = estimator.sweep(seeds, spec.evaluation.seed_counts)
        timings["estimate_seconds"] = time.perf_counter() - started
        timings["total_seconds"] = time.perf_counter() - total_started

    telemetry: Dict[str, object] = {
        "stages": {name: round(seconds, 6) for name, seconds in timings.items()},
        "spans": [finished.to_dict() for finished in recorder.finished()],
        "dropped_spans": recorder.dropped,
    }
    rss = peak_rss_mb()
    if rss is not None:
        telemetry["peak_rss_mb"] = round(rss, 3)
    provenance = _build_provenance(spec, compiled, estimator)
    provenance["telemetry"] = telemetry

    return RunResult(
        query="run" if spec.algorithm is not None else "evaluate",
        seeds=seeds,
        model=spec.model.name,
        objective=spec.evaluation.objective,
        backend=estimator.backend,
        value=value,
        algorithm=selection.algorithm if selection is not None else None,
        budget=spec.budget,
        dataset=dataset,
        curve=curve,
        spreads=spreads,
        selection=selection,
        selection_metadata=dict(selection.metadata) if selection is not None else {},
        provenance=provenance,
        timings=timings,
        extras=(
            {"name": spec.name, "resumed_selection": True}
            if resumed_selection
            else {"name": spec.name}
        ),
        spec=spec,
    )
