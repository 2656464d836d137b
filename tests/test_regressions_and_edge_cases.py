"""Additional edge-case and cross-module consistency tests.

These cover behaviours not exercised by the per-module unit tests: score /
simulation consistency, degenerate graphs (isolated nodes, sinks, empty seed
sets), and the linear growth properties the paper's complexity analysis
promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import EaSyIMSelector, OSIMSelector, get_algorithm
from repro.algorithms.easyim import easyim_scores
from repro.algorithms.osim import osim_scores
from repro.analysis.paths import all_pairs_bounded_walk_weights
from repro.datasets import load_dataset
from repro.diffusion import MonteCarloEngine, get_model
from repro.diffusion.registry import OPINION_AWARE_MODELS
from repro.exceptions import ConfigurationError, ReproError
from repro.graphs import DiGraph, star_graph
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.io import iter_edge_tuples
from repro.opinion.annotate import annotate_graph
from repro.scoring import ScoreEngine
from repro.serving import InfluenceIndex, InfluenceService, save_index_artifact
from repro.utils.rng import ensure_rng


class TestDegenerateGraphs:
    def test_graph_with_isolated_nodes(self):
        graph = DiGraph()
        graph.add_nodes_from(range(5))
        graph.add_edge(0, 1, probability=1.0)
        compiled = graph.compile()
        scores = easyim_scores(compiled, max_path_length=3)
        assert scores[compiled.index_of[0]] == pytest.approx(1.0)
        assert scores[compiled.index_of[2]] == 0.0
        outcome = get_model("ic").simulate(compiled, [compiled.index_of[2]], ensure_rng(0))
        assert outcome.spread() == 0.0

    def test_single_node_graph(self):
        graph = DiGraph()
        graph.add_node("only", opinion=0.5)
        compiled = graph.compile()
        assert easyim_scores(compiled, max_path_length=3)[0] == 0.0
        assert osim_scores(compiled, max_path_length=3)[0] == 0.0
        engine = MonteCarloEngine(graph, "oi-ic", simulations=10, seed=0)
        estimate = engine.estimate(["only"])
        assert estimate.spread == 0.0
        assert estimate.opinion_spread == 0.0

    def test_sink_heavy_graph_selection(self):
        """Selecting more seeds than there are non-sink nodes still succeeds."""
        graph = star_graph(3)  # node 0 -> {1, 2, 3}; nodes 1-3 are sinks
        selector = EaSyIMSelector(max_path_length=2, seed=0)
        result = selector.select(graph, 4)
        assert set(result.seeds) == {0, 1, 2, 3}

    def test_empty_seed_estimate(self):
        graph = star_graph(3)
        engine = MonteCarloEngine(graph, "ic", simulations=10, seed=0)
        estimate = engine.estimate([])
        assert estimate.spread == 0.0
        assert estimate.effective_opinion_spread == 0.0


class TestScoreSimulationConsistency:
    def test_easyim_scores_correlate_with_simulated_spread(self):
        """Node ranking by EaSyIM score should broadly agree with the ranking by
        simulated single-seed spread (the premise of ScoreGREEDY)."""
        graph = load_dataset("nethept", scale=0.15, seed=77)
        compiled = graph.compile()
        scores = easyim_scores(compiled, max_path_length=3)
        engine = MonteCarloEngine(compiled, "ic", simulations=200, seed=1)
        nodes = list(range(compiled.number_of_nodes))
        spreads = np.array([engine.expected_spread([node]) for node in nodes[:40]])
        correlation = np.corrcoef(scores[:40], spreads)[0, 1]
        assert correlation > 0.5

    def test_osim_scores_correlate_with_simulated_opinion_spread(self):
        graph = load_dataset("nethept", scale=0.15, seed=78)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=78)
        compiled = graph.compile()
        scores = osim_scores(compiled, max_path_length=3)
        engine = MonteCarloEngine(compiled, "oi-ic", simulations=300, seed=1)
        spreads = np.array(
            [engine.expected_opinion_spread([node]) for node in range(40)]
        )
        correlation = np.corrcoef(scores[:40], spreads)[0, 1]
        assert correlation > 0.3

    def test_walk_weights_upper_bound_easyim_scores(self):
        """EaSyIM counts walks, so its score equals the total bounded-walk weight."""
        graph = load_dataset("nethept", scale=0.1, seed=79)
        compiled = graph.compile()
        scores = easyim_scores(compiled, max_path_length=3)
        walks = all_pairs_bounded_walk_weights(graph, max_length=3)
        for label in list(graph.nodes())[:15]:
            total = sum(w for (u, _), w in walks.items() if u == label)
            assert scores[compiled.index_of[label]] == pytest.approx(total, rel=1e-9)


class TestComplexityTrends:
    def test_easyim_runtime_grows_roughly_linearly_with_l(self):
        graph = load_dataset("dblp", scale=0.4, seed=80)
        compiled = graph.compile()
        import time

        def measure(length: int) -> float:
            start = time.perf_counter()
            for _ in range(3):
                easyim_scores(compiled, max_path_length=length)
            return time.perf_counter() - start

        short = measure(1)
        long = measure(8)
        # 8x the path length must not cost more than ~30x the time (generous
        # bound; the point is ruling out super-linear blow-ups).
        assert long <= max(30 * short, short + 0.5)

    def test_score_memory_is_linear_in_nodes(self):
        from repro.utils.memory import MemoryTracker

        small = load_dataset("nethept", scale=0.2, seed=81).compile()
        large = load_dataset("nethept", scale=0.8, seed=81).compile()
        with MemoryTracker() as tracker_small:
            easyim_scores(small, max_path_length=3)
        with MemoryTracker() as tracker_large:
            easyim_scores(large, max_path_length=3)
        ratio_nodes = large.number_of_nodes / small.number_of_nodes
        if tracker_small.peak_mb > 0.01:
            ratio_memory = tracker_large.peak_mb / tracker_small.peak_mb
            assert ratio_memory <= ratio_nodes * 8


class TestRegistryConsistency:
    def test_opinion_aware_models_flagged(self):
        for name in OPINION_AWARE_MODELS:
            assert get_model(name).opinion_aware

    def test_opinion_oblivious_models_not_flagged(self):
        for name in ("ic", "wc", "lt", "lt-live-edge"):
            assert not get_model(name).opinion_aware

    def test_every_algorithm_constructible_without_arguments(self):
        from repro.algorithms.registry import available_algorithms

        for name in available_algorithms():
            assert get_algorithm(name) is not None

    def test_iter_edge_tuples(self):
        graph = DiGraph()
        graph.add_edge("a", "b", probability=0.3, interaction=0.7)
        tuples = list(iter_edge_tuples(graph))
        assert tuples == [("a", "b", 0.3, 0.7)]


class TestOSIMWeightingVariants:
    @pytest.mark.parametrize("weighting", ["ic", "wc", "lt"])
    def test_osim_runs_under_every_weighting(self, weighting):
        graph = load_dataset("nethept", scale=0.1, seed=90)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=90)
        if weighting == "lt":
            graph.set_linear_threshold_weights()
        selector = OSIMSelector(max_path_length=2, weighting=weighting, seed=0)
        result = selector.select(graph, 3)
        assert len(result.seeds) == 3

    def test_unknown_weighting_rejected(self):
        graph = load_dataset("nethept", scale=0.1, seed=91)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=91)
        selector = OSIMSelector(max_path_length=2, weighting="bogus", seed=0)
        with pytest.raises(ConfigurationError):
            selector.select(graph, 2)


# Public entry points fed a malformed input must raise a ReproError
# subclass, never a bare builtin.  Entry points whose own tests already
# check this are not repeated here: run_experiment and build_estimator
# (test_experiment_api.py), InfluenceIndex.build/grow/select and
# load_index_artifact (test_serving.py), SupervisedPool.run
# (test_runtime.py).
def _serving(index):
    """A service with ``index`` attached."""
    service = InfluenceService()
    service.attach(index)
    return service


MALFORMED_CALLS = [
    ("InfluenceService.evaluate",
     lambda graph, index, tmp: _serving(index).evaluate(
         graph, "ic", ["no-such-node"])),
    ("InfluenceService.select",
     lambda graph, index, tmp: _serving(index).select(graph, "ic", -1)),
    ("InfluenceService.select-unattached",
     lambda graph, index, tmp: InfluenceService().select(graph, "ic", 1)),
    ("InfluenceService.select-over-budget",
     lambda graph, index, tmp: _serving(index).select(
         graph, "ic", graph.number_of_nodes + 1)),
    ("InfluenceService.evaluate-unattached",
     lambda graph, index, tmp: InfluenceService().evaluate(graph, "ic", [0])),
    ("InfluenceService-zero-capacity",
     lambda graph, index, tmp: InfluenceService(capacity=0)),
    ("InfluenceIndex.estimate_spread",
     lambda graph, index, tmp: index.estimate_spread(["no-such-node"])),
    ("InfluenceIndex.estimate_spreads",
     lambda graph, index, tmp: index.estimate_spreads([[0], ["no-such-node"]])),
    ("save_index_artifact",
     lambda graph, index, tmp: save_index_artifact(
         tmp / "index.npz", index.collection, {})),
    ("ScoreEngine.mark_active",
     lambda graph, index, tmp: ScoreEngine(graph).mark_active(
         [graph.number_of_nodes])),
]


@pytest.fixture(scope="module")
def served_graph_and_index():
    graph = erdos_renyi_graph(60, 0.08, seed=5).compile()
    return graph, InfluenceIndex.build(graph, "ic", 500, engine_seed=1)


@pytest.mark.parametrize(
    "call", [call for _, call in MALFORMED_CALLS],
    ids=[name for name, _ in MALFORMED_CALLS],
)
def test_malformed_input_raises_repro_error(call, served_graph_and_index, tmp_path):
    graph, index = served_graph_and_index
    with pytest.raises(ReproError):
        call(graph, index, tmp_path)
