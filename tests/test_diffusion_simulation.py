"""Unit tests for the Monte-Carlo engine, spread helpers and outcome objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion import MonteCarloEngine
from repro.diffusion.base import DiffusionOutcome
from repro.diffusion.spread import (
    effective_opinion_spread,
    expected_effective_opinion_spread,
    expected_opinion_spread,
    expected_spread,
    opinion_spread,
    simulate_once,
    spread,
)
from repro.exceptions import ConfigurationError
from repro.graphs import DiGraph, figure1_example_graph


class TestDiffusionOutcome:
    def _outcome(self) -> DiffusionOutcome:
        outcome = DiffusionOutcome(seeds=(0,))
        outcome.activated = [0, 1, 2, 3]
        outcome.final_opinions = {0: 0.5, 1: 0.4, 2: -0.2, 3: 0.0}
        return outcome

    def test_spread_excludes_seeds(self):
        assert self._outcome().spread() == 3.0

    def test_opinion_spread_excludes_seeds(self):
        assert self._outcome().opinion_spread() == pytest.approx(0.2)

    def test_effective_opinion_spread_penalty(self):
        outcome = self._outcome()
        assert outcome.effective_opinion_spread(penalty=1.0) == pytest.approx(0.2)
        assert outcome.effective_opinion_spread(penalty=0.0) == pytest.approx(0.4)
        assert outcome.effective_opinion_spread(penalty=2.0) == pytest.approx(0.0)


class TestMonteCarloEngine:
    def test_invalid_parameters(self, figure1):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(figure1, "ic", simulations=0)
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(figure1, "ic", penalty=-1.0)

    def test_reproducible_with_seed(self, figure1):
        a = MonteCarloEngine(figure1, "oi-ic", simulations=200, seed=5).estimate(["A"])
        b = MonteCarloEngine(figure1, "oi-ic", simulations=200, seed=5).estimate(["A"])
        assert a.opinion_spread == pytest.approx(b.opinion_spread)

    def test_estimate_by_label_and_index(self, figure1):
        engine = MonteCarloEngine(figure1, "ic", simulations=300, seed=0)
        by_label = engine.expected_spread(["C"])
        compiled_index = engine.graph.index_of["C"]
        by_index = engine.expected_spread([compiled_index])
        assert by_label == pytest.approx(by_index)

    def test_unknown_seed_raises(self, figure1):
        engine = MonteCarloEngine(figure1, "ic", simulations=10)
        with pytest.raises(ConfigurationError):
            engine.estimate(["nope"])

    def test_cache_hit_avoids_resimulation(self, figure1):
        engine = MonteCarloEngine(figure1, "ic", simulations=50, seed=1)
        engine.estimate(["A"])
        count = engine.total_simulations_run
        engine.estimate(["A"])
        assert engine.total_simulations_run == count

    def test_objective_accessor(self, figure1):
        engine = MonteCarloEngine(figure1, "oi-ic", simulations=100, seed=2)
        estimate = engine.estimate(["A"])
        assert estimate.objective("spread") == estimate.spread
        assert estimate.objective("opinion") == estimate.opinion_spread
        assert estimate.objective("effective-opinion") == estimate.effective_opinion_spread
        with pytest.raises(ConfigurationError):
            estimate.objective("bogus")

    def test_figure1_example2_values(self, figure1):
        engine = MonteCarloEngine(figure1, "oi-ic", simulations=4000, seed=3)
        assert engine.expected_opinion_spread(["A"]) == pytest.approx(0.136, abs=0.02)
        assert engine.expected_opinion_spread(["C"]) == pytest.approx(-0.351, abs=0.02)
        assert engine.expected_opinion_spread(["D"]) == pytest.approx(0.0, abs=1e-9)

    def test_parallel_workers_match_serial_statistics(self, annotated_small_graph):
        """Parallel estimation runs the serial block plan across processes, so
        every estimate is bit-identical to the serial one."""
        serial = MonteCarloEngine(
            annotated_small_graph, "ic", simulations=400, seed=7, workers=1
        ).estimate([0, 1, 2])
        parallel = MonteCarloEngine(
            annotated_small_graph, "ic", simulations=400, seed=7, workers=2
        ).estimate([0, 1, 2])
        assert parallel.spread == serial.spread
        assert parallel.opinion_spread == serial.opinion_spread
        assert parallel.effective_opinion_spread == serial.effective_opinion_spread
        assert parallel.simulations == serial.simulations

    def test_invalid_worker_count(self, figure1):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(figure1, "ic", workers=0)

    def test_spread_bounded_by_graph_size(self, annotated_small_graph):
        engine = MonteCarloEngine(annotated_small_graph, "ic", simulations=50, seed=0)
        estimate = engine.estimate([0, 1, 2])
        assert 0.0 <= estimate.spread <= annotated_small_graph.number_of_nodes


class TestFunctionalHelpers:
    def test_simulate_once(self, figure1):
        outcome = simulate_once(figure1, "ic", ["C"], seed=1)
        assert "C" not in outcome.final_opinions  # keys are compiled indices
        assert spread(outcome) >= 0.0
        assert opinion_spread(outcome) == outcome.opinion_spread()
        assert effective_opinion_spread(outcome) == outcome.effective_opinion_spread(1.0)

    def test_expected_spread_helpers(self, figure1):
        assert expected_spread(figure1, "ic", ["A"], simulations=2000, seed=0) == pytest.approx(
            0.8, abs=0.05
        )
        assert expected_opinion_spread(
            figure1, "oi-ic", ["C"], simulations=2000, seed=0
        ) == pytest.approx(-0.351, abs=0.03)
        value = expected_effective_opinion_spread(
            figure1, "oi-ic", ["C"], simulations=500, penalty=0.0, seed=0
        )
        assert value >= 0.0  # with no penalty the objective ignores negative mass

    def test_ic_seed_choice_vs_oi_seed_choice(self, figure1):
        """The motivating claim: IC picks C, OI picks A (Example 2)."""
        ic_engine = MonteCarloEngine(figure1, "ic", simulations=2000, seed=1)
        oi_engine = MonteCarloEngine(figure1, "oi-ic", simulations=2000, seed=1)
        nodes = ["A", "B", "C", "D"]
        ic_best = max(nodes, key=lambda v: ic_engine.expected_spread([v]))
        oi_best = max(nodes, key=lambda v: oi_engine.expected_opinion_spread([v]))
        assert ic_best == "C"
        assert oi_best == "A"
