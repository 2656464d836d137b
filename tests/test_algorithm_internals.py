"""White-box tests for algorithm internals not covered by the selection tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.score_greedy import ScoreGreedySelector
from repro.algorithms.simpath import SimPathSelector
from repro.algorithms.tim import TIMPlusSelector, _log_binomial
from repro.bench.reporting import _format_value
from repro.diffusion import MonteCarloEngine
from repro.graphs import DiGraph, path_graph, star_graph
from repro.sketches import RRSetCollection, greedy_max_coverage, pad_with_unselected
from repro.utils.rng import ensure_rng


class TestScoreGreedyDriver:
    def test_fallback_when_every_node_is_activated(self):
        """If the update step marks the whole graph active, the driver must
        still return the requested number of seeds instead of stalling."""
        graph = path_graph(4, probability=1.0)

        def constant_scores(compiled, active):
            return np.ones(compiled.number_of_nodes)

        selector = ScoreGreedySelector(
            score_function=constant_scores, model="ic",
            update_strategy="single", seed=0,
        )
        result = selector.select(graph, 3)
        assert len(result.seeds) == 3
        assert len(set(result.seeds)) == 3

    def test_update_strategy_none_only_marks_seed(self):
        graph = path_graph(4, probability=1.0)
        picked: list = []

        def spy_scores(compiled, active):
            picked.append(active.copy())
            return np.arange(compiled.number_of_nodes, dtype=float)

        selector = ScoreGreedySelector(
            score_function=spy_scores, model="ic", update_strategy="none", seed=0
        )
        selector.select(graph, 2)
        # Second call sees exactly one active node (the first seed), nothing else.
        assert picked[1].sum() == 1

    def test_majority_update_marks_deterministic_cascade(self):
        graph = path_graph(3, probability=1.0)

        def degree_scores(compiled, active):
            return np.array([compiled.out_degree(v) for v in range(compiled.number_of_nodes)],
                            dtype=float)

        selector = ScoreGreedySelector(
            score_function=degree_scores, model="ic",
            update_strategy="majority", update_simulations=5, seed=0,
        )
        result = selector.select(graph, 2)
        # The deterministic cascade from node 0 covers the whole path, so the
        # second seed is forced to come from the fallback (already-active) pool.
        assert result.seeds[0] == 0


class TestTIMInternals:
    def test_log_binomial_matches_small_values(self):
        import math

        assert _log_binomial(5, 2) == pytest.approx(math.log(10))
        assert _log_binomial(10, 0) == pytest.approx(0.0)
        assert _log_binomial(3, 5) == float("-inf")

    def test_rr_set_contains_root_and_respects_direction(self):
        graph = DiGraph()
        graph.add_edge(0, 1, probability=1.0)
        graph.add_edge(1, 2, probability=1.0)
        compiled = graph.compile()
        selector = TIMPlusSelector(epsilon=0.5, seed=0)
        probabilities = selector._in_probabilities(compiled)
        members, width = selector._sample_rr_set(
            compiled, probabilities, compiled.index_of[2]
        )
        # With p = 1 the RR set of node 2 is every node that can reach it.
        assert set(members) == {compiled.index_of[0], compiled.index_of[1],
                                compiled.index_of[2]}
        assert width >= 2

    def test_lt_rr_set_is_a_path(self):
        graph = star_graph(5)
        graph.set_linear_threshold_weights()
        compiled = graph.compile()
        selector = TIMPlusSelector(model="lt", epsilon=0.5, seed=1)
        probabilities = selector._in_probabilities(compiled)
        members, _ = selector._sample_rr_set_lt(
            compiled, probabilities, compiled.index_of[3]
        )
        # A leaf's only possible live in-edge comes from the hub.
        assert members[0] == compiled.index_of[3]
        assert len(members) <= 2

    def test_max_coverage_prefers_frequent_nodes(self):
        rr_sets = [[0, 1], [0, 2], [0, 3], [4]]
        collection = RRSetCollection.from_lists(5, rr_sets)
        covering, fraction = greedy_max_coverage(collection, 1)
        assert pad_with_unselected(5, covering, 1) == [0]
        assert fraction == pytest.approx(0.75)
        # Two picks cover every set; a third slot is padded with the
        # smallest unselected node, as TIM+ does.
        covering, fraction = greedy_max_coverage(collection, 3)
        assert covering == [0, 4] and fraction == pytest.approx(1.0)
        assert pad_with_unselected(5, covering, 3) == [0, 4, 1]


class TestSimPathInternals:
    def test_backtrack_spread_on_path_matches_weights(self):
        graph = path_graph(3)
        graph.set_linear_threshold_weights()
        compiled = graph.compile()
        selector = SimPathSelector(eta=1e-6, max_path_length=4)
        weights = selector._lt_weights(compiled)
        spread = selector._backtrack(compiled, weights, compiled.index_of[0], set())
        # 1 (self) + w(0,1) + w(0,1)*w(1,2) with both weights 1.0
        assert spread == pytest.approx(3.0)

    def test_eta_prunes_long_paths(self):
        graph = path_graph(5, probability=0.5)
        for source, target, data in graph.edges():
            data.weight = 0.5
        compiled = graph.compile()
        selector = SimPathSelector(eta=0.3, max_path_length=5)
        weights = selector._lt_weights(compiled)
        spread = selector._backtrack(compiled, weights, compiled.index_of[0], set())
        # Only the first hop (0.5) survives the eta = 0.3 threshold.
        assert spread == pytest.approx(1.5)

    def test_excluded_nodes_are_skipped(self):
        graph = path_graph(3)
        graph.set_linear_threshold_weights()
        compiled = graph.compile()
        selector = SimPathSelector(eta=1e-6, max_path_length=4)
        weights = selector._lt_weights(compiled)
        spread = selector._backtrack(
            compiled, weights, compiled.index_of[0], {compiled.index_of[1]}
        )
        assert spread == pytest.approx(1.0)


class TestReportingFormat:
    def test_format_value_branches(self):
        assert _format_value(0.0) == "0"
        assert _format_value(1234.5) == "1,234.5"
        assert _format_value(3.14159) == "3.14"
        assert _format_value(0.01234) == "0.0123"
        assert _format_value("text") == "text"
        assert _format_value(7) == "7"


class TestEngineReuseAcrossSelectors:
    def test_shared_compiled_graph_between_algorithms(self, small_ic_graph):
        """Algorithms accept a pre-compiled graph, so expensive compilation can
        be amortised across an experiment (used by the benchmark harness)."""
        compiled = small_ic_graph.compile()
        from repro.algorithms import EaSyIMSelector, HighDegreeSelector

        first = HighDegreeSelector().select(compiled, 3)
        second = EaSyIMSelector(max_path_length=2, seed=0).select(compiled, 3)
        engine = MonteCarloEngine(compiled, "ic", simulations=50, seed=0)
        assert engine.expected_spread(first.seeds) >= 0.0
        assert engine.expected_spread(second.seeds) >= 0.0
