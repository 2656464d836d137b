"""repro — a reproduction of "Holistic Influence Maximization: Combining
Scalability and Efficiency with Opinion-Aware Models" (SIGMOD 2016).

The package provides:

* the **OI** (Opinion-cum-Interaction) diffusion model plus the classical
  IC/WC/LT models and the prior opinion-aware baselines IC-N and OC;
* the **MEO** objective (maximise the effective opinion spread) next to the
  classical IM spread objective, both served by one declarative
  experiment API (:func:`run_experiment`);
* the paper's **EaSyIM** and **OSIM** algorithms alongside a full suite of
  competitors (GREEDY/CELF/CELF++, TIM+/IMM, IRIE, SIMPATH, degree and
  PageRank heuristics);
* synthetic stand-ins for the paper's datasets and case studies (Table 2
  graphs, the Twitter topic pipeline, the PAKDD churn pipeline);
* a selection harness that times and measures the memory of the
  evaluation's scalability panels.

Quickstart — the declarative experiment API::

    import repro

    spec = repro.ExperimentSpec(
        graph=repro.GraphSpec(dataset="nethept", seed=7, annotate=True,
                              opinion="normal"),
        model=repro.ModelSpec(name="oi-ic"),
        algorithm=repro.AlgorithmSpec(name="osim"),
        budget=10,
        evaluation=repro.EvalSpec(objective="effective-opinion"),
    )
    result = repro.run_experiment(spec)
    print(result.seeds, result.value)
    print(result.to_json())          # full provenance, repro/run-result@1

Every spec round-trips through JSON, so the same experiment can be checked
in as a file and executed with ``repro run``.
"""

from repro.exceptions import (
    AlgorithmError,
    BudgetError,
    ConfigurationError,
    DatasetError,
    GraphConstructionError,
    GraphError,
    IndexArtifactError,
    IndexMismatchError,
    LifecycleError,
    LintError,
    MissingAnnotationError,
    ReproError,
    RNGError,
    ServingError,
    SketchError,
    SketchIndexError,
    SpecError,
)
from repro.graphs import (
    CompiledGraph,
    DiGraph,
    compute_stats,
    figure1_example_graph,
    from_edge_list,
    graph_fingerprint,
    make_bidirectional,
    read_edge_list,
    write_edge_list,
)
from repro.diffusion import (
    BatchOutcome,
    MonteCarloEngine,
    available_models,
    expected_effective_opinion_spread,
    expected_opinion_spread,
    expected_spread,
    get_model,
    simulate_batch,
)
from repro.algorithms import (
    AlgorithmInfo,
    algorithm_capabilities,
    algorithm_info,
    available_algorithms,
    get_algorithm,
)
from repro.opinion import annotate_interactions, annotate_opinions
from repro.opinion.annotate import annotate_graph
from repro.datasets import available_datasets, load_dataset
from repro.serving import InfluenceIndex, InfluenceService
from repro.scoring import ScoreEngine
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
    load_experiment_spec,
)
from repro.api import (
    MonteCarloEstimator,
    RunResult,
    ScoreEstimator,
    SketchEstimator,
    SpreadEstimator,
    build_estimator,
    build_selector,
    estimator_capabilities,
    run_experiment,
)
from repro.telemetry import (
    MetricsRegistry,
    TraceRecorder,
    default_registry,
    recording,
    render_prometheus,
    set_default_registry,
    span,
    use_registry,
)

from repro._version import __version__

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "GraphConstructionError",
    "ConfigurationError",
    "RNGError",
    "LifecycleError",
    "LintError",
    "SketchError",
    "SketchIndexError",
    "MissingAnnotationError",
    "DatasetError",
    "AlgorithmError",
    "BudgetError",
    "ServingError",
    "IndexArtifactError",
    "IndexMismatchError",
    "SpecError",
    # graphs
    "DiGraph",
    "CompiledGraph",
    "from_edge_list",
    "make_bidirectional",
    "read_edge_list",
    "write_edge_list",
    "compute_stats",
    "figure1_example_graph",
    "graph_fingerprint",
    # diffusion
    "get_model",
    "available_models",
    "MonteCarloEngine",
    "BatchOutcome",
    "simulate_batch",
    "expected_spread",
    "expected_opinion_spread",
    "expected_effective_opinion_spread",
    # algorithms
    "get_algorithm",
    "available_algorithms",
    "AlgorithmInfo",
    "algorithm_info",
    "algorithm_capabilities",
    # opinion annotation
    "annotate_opinions",
    "annotate_interactions",
    "annotate_graph",
    # datasets
    "load_dataset",
    "available_datasets",
    # serving
    "InfluenceIndex",
    "InfluenceService",
    # scoring
    "ScoreEngine",
    # experiment specs
    "ExperimentSpec",
    "GraphSpec",
    "ModelSpec",
    "AlgorithmSpec",
    "EstimatorSpec",
    "EvalSpec",
    "load_experiment_spec",
    # unified experiment API
    "run_experiment",
    "RunResult",
    "SpreadEstimator",
    "build_estimator",
    "build_selector",
    "estimator_capabilities",
    "MonteCarloEstimator",
    "SketchEstimator",
    "ScoreEstimator",
    # telemetry
    "MetricsRegistry",
    "TraceRecorder",
    "default_registry",
    "recording",
    "render_prometheus",
    "set_default_registry",
    "span",
    "use_registry",
]
