"""Tests for the vectorized batch cascade engine.

Covers the ``simulate_batch`` API (native kernels for every registered model
plus the loop-over-``simulate`` fallback), the statistical equivalence of the
batch and scalar paths, determinism under a fixed generator, the block-based
Monte-Carlo engine (worker-count independence) and the LRU estimate cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion import MonteCarloEngine, simulate_batch
from repro.diffusion.base import BatchOutcome, DiffusionModel, DiffusionOutcome
from repro.diffusion.registry import available_models, get_model
from repro.exceptions import ConfigurationError
from repro.graphs import DiGraph
from repro.graphs.generators import barabasi_albert_graph
from repro.opinion.annotate import annotate_graph

ALL_MODELS = ("ic", "wc", "lt", "lt-live-edge", "oc", "oi-ic", "oi-wc", "oi-lt", "icn")


@pytest.fixture(scope="module")
def annotated_graph():
    graph = barabasi_albert_graph(120, 3, seed=3)
    annotate_graph(graph, opinion="normal", interaction="uniform", seed=4)
    return graph.compile()


class LoopOnlyModel(DiffusionModel):
    """A third-party-style model that only defines the scalar entry point."""

    name = "loop-only"

    def simulate(self, graph, seeds, rng):
        outcome = DiffusionOutcome(seeds=tuple(seeds))
        for seed in seeds:
            outcome.activated.append(seed)
            outcome.final_opinions[seed] = float(graph.opinions[seed])
        # Activate node 0 with probability 1/2 so the fallback is exercised
        # with real randomness.
        if 0 not in seeds and rng.random() < 0.5:
            outcome.activated.append(0)
            outcome.final_opinions[0] = float(graph.opinions[0])
        outcome.rounds = 1
        return outcome


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_mean_objectives_within_three_sigma(self, annotated_graph, model_name):
        """The batch kernel must be statistically indistinguishable from the
        scalar path: mean spread AND mean opinion spread over >= 2000
        cascades within 3 sigma."""
        model = get_model(model_name)
        seeds = [0, 7, 19]
        n_sims = 2000
        rng = np.random.default_rng(21)
        scalar_spread = np.zeros(n_sims)
        scalar_opinion = np.zeros(n_sims)
        for i in range(n_sims):
            outcome = model.simulate(annotated_graph, seeds, rng)
            scalar_spread[i] = outcome.spread()
            scalar_opinion[i] = outcome.opinion_spread()
        batch = model.simulate_batch(
            annotated_graph, seeds, np.random.default_rng(22), n_sims
        )
        for scalar, batched in (
            (scalar_spread, batch.spreads()),
            (scalar_opinion, batch.opinion_spreads()),
        ):
            sigma = np.sqrt(scalar.var() / n_sims + batched.var() / n_sims)
            assert abs(scalar.mean() - batched.mean()) <= 3.0 * max(sigma, 1e-12)

    def test_contested_target_tie_break_matches_scalar(self):
        """Two seeds with opposite opinions contest one target: both paths
        must apply first-attempt-wins, so the target's mean final opinion
        agrees (regression for a last-wins batch dedup that flipped it)."""
        graph = DiGraph()
        graph.add_node("u", opinion=1.0)
        graph.add_node("v", opinion=-1.0)
        graph.add_node("t", opinion=0.0)
        graph.add_edge("u", "t", probability=0.9, interaction=1.0)
        graph.add_edge("v", "t", probability=0.9, interaction=1.0)
        compiled = graph.compile()
        model = get_model("oi-ic")
        seeds = compiled.indices_for(["u", "v"])
        target = compiled.index_of["t"]
        n_sims = 4000
        rng = np.random.default_rng(0)
        scalar = np.array(
            [
                model.simulate(compiled, seeds, rng).final_opinions.get(target, 0.0)
                for _ in range(n_sims)
            ]
        )
        batch = model.simulate_batch(
            compiled, seeds, np.random.default_rng(1), n_sims
        ).opinions[:, target]
        sigma = np.sqrt(scalar.var() / n_sims + batch.var() / n_sims)
        assert abs(scalar.mean() - batch.mean()) <= 3.0 * max(sigma, 1e-12)
        # Both favour u (processed first): the mean must be clearly positive.
        assert scalar.mean() > 0.2
        assert batch.mean() > 0.2

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_deterministic_given_seeded_generator(self, annotated_graph, model_name):
        model = get_model(model_name)
        a = model.simulate_batch(annotated_graph, [1, 2], np.random.default_rng(9), 64)
        b = model.simulate_batch(annotated_graph, [1, 2], np.random.default_rng(9), 64)
        assert np.array_equal(a.active, b.active)
        assert np.array_equal(a.opinions, b.opinions)
        assert np.array_equal(a.rounds, b.rounds)

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_seeds_always_active_and_inactive_opinions_zero(
        self, annotated_graph, model_name
    ):
        model = get_model(model_name)
        outcome = model.simulate_batch(
            annotated_graph, [3, 11], np.random.default_rng(1), 32
        )
        assert outcome.active[:, [3, 11]].all()
        assert np.all(outcome.opinions[~outcome.active] == 0.0)


class TestBatchOutcome:
    def test_objective_reductions_match_scalar_outcome_methods(self, annotated_graph):
        model = get_model("oi-ic")
        batch = model.simulate_batch(
            annotated_graph, [0, 5], np.random.default_rng(3), 40
        )
        objectives = batch.objectives(penalty=1.5)
        for i in range(batch.count):
            scalar = batch.outcome(i)
            assert objectives[0, i] == pytest.approx(scalar.spread())
            assert objectives[1, i] == pytest.approx(scalar.opinion_spread())
            assert objectives[2, i] == pytest.approx(
                scalar.effective_opinion_spread(1.5)
            )
        assert np.allclose(objectives[0], batch.spreads())
        assert np.allclose(objectives[1], batch.opinion_spreads())
        assert np.allclose(objectives[2], batch.effective_opinion_spreads(1.5))

    def test_functional_helper_accepts_labels(self):
        graph = DiGraph()
        graph.add_edge("a", "b", probability=1.0)
        outcome = simulate_batch(graph, "ic", ["a"], 16, seed=0)
        assert isinstance(outcome, BatchOutcome)
        assert outcome.count == 16
        assert outcome.spreads().min() == 1.0  # deterministic edge always fires


class TestFallback:
    def test_models_without_batch_kernel_fall_back_to_simulate(self, annotated_graph):
        model = LoopOnlyModel()
        outcome = model.simulate_batch(
            annotated_graph, [5], np.random.default_rng(0), 400
        )
        assert outcome.count == 400
        assert outcome.active[:, 5].all()
        # Node 0 activates in roughly half of the cascades.
        rate = outcome.active[:, 0].mean()
        assert 0.35 < rate < 0.65
        assert np.array_equal(outcome.rounds, np.ones(400))

    def test_fallback_engine_estimate(self, annotated_graph):
        engine = MonteCarloEngine(
            annotated_graph, LoopOnlyModel(), simulations=300, seed=1
        )
        estimate = engine.estimate([5])
        assert 0.35 < estimate.spread < 0.65


class TestEngineBatching:
    def test_workers_do_not_change_the_estimate(self, annotated_graph):
        """Regression: per-block seeds are derived once, so ``workers=1`` and
        ``workers=2`` must agree exactly for a fixed engine seed."""
        serial = MonteCarloEngine(
            annotated_graph, "ic", simulations=700, seed=13, workers=1, batch_size=256
        ).estimate([0, 1, 2])
        parallel = MonteCarloEngine(
            annotated_graph, "ic", simulations=700, seed=13, workers=2, batch_size=256
        ).estimate([0, 1, 2])
        assert parallel.spread == pytest.approx(serial.spread, abs=1e-12)
        assert parallel.opinion_spread == pytest.approx(
            serial.opinion_spread, abs=1e-12
        )
        assert parallel.effective_opinion_spread == pytest.approx(
            serial.effective_opinion_spread, abs=1e-12
        )
        assert parallel.spread_std == pytest.approx(serial.spread_std, abs=1e-12)

    def test_batch_size_does_not_bias_the_estimate(self, annotated_graph):
        small = MonteCarloEngine(
            annotated_graph, "wc", simulations=600, seed=2, batch_size=64
        ).estimate([0, 1])
        large = MonteCarloEngine(
            annotated_graph, "wc", simulations=600, seed=2, batch_size=600
        ).estimate([0, 1])
        sigma = max(small.spread_std, large.spread_std) / np.sqrt(600)
        assert abs(small.spread - large.spread) <= 5 * sigma

    def test_invalid_batch_size(self, annotated_graph):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(annotated_graph, "ic", batch_size=0)

    def test_all_registered_models_estimate(self, annotated_graph):
        for name in available_models():
            engine = MonteCarloEngine(annotated_graph, name, simulations=50, seed=0)
            estimate = engine.estimate([0])
            assert 0.0 <= estimate.spread <= annotated_graph.number_of_nodes


class TestLRUCache:
    def test_lru_eviction_keeps_recently_used_entries(self, annotated_graph):
        engine = MonteCarloEngine(
            annotated_graph, "ic", simulations=20, seed=0, cache_size=2
        )
        engine.estimate([0])  # cache: {0}
        engine.estimate([1])  # cache: {0, 1}
        engine.estimate([0])  # refresh 0 -> LRU order: 1, 0
        engine.estimate([2])  # evicts 1, keeps 0
        simulations_before = engine.total_simulations_run
        engine.estimate([0])  # hit
        assert engine.total_simulations_run == simulations_before
        engine.estimate([1])  # miss (was evicted)
        assert engine.total_simulations_run == simulations_before + 20

    def test_cache_never_exceeds_capacity(self, annotated_graph):
        engine = MonteCarloEngine(
            annotated_graph, "ic", simulations=5, seed=0, cache_size=3
        )
        for node in range(8):
            engine.estimate([node])
        assert len(engine._cache) <= 3
