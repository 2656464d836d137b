"""Tests for the vectorized batch cascade engine.

Covers the ``simulate_batch`` API (the one cascade implementation of every
registered model), its one-cascade view ``simulate``, exact and statistical
agreement with the scalar reference cascades below, determinism under a
fixed generator, the block-based Monte-Carlo engine (worker-count
independence) and the LRU estimate cache.

The scalar references are plain per-node loops over the CSR arrays: one for
the IC family, one for the LT family and one for the live-edge formulation.
They are the independent oracle the batch kernels are checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion import MonteCarloEngine, simulate_batch
from repro.diffusion.base import (
    BatchOutcome,
    DiffusionModel,
    DiffusionOutcome,
    validate_seed_indices,
)
from repro.diffusion.registry import available_models, get_model
from repro.exceptions import ConfigurationError
from repro.graphs import DiGraph
from repro.graphs.generators import barabasi_albert_graph
from repro.opinion.annotate import annotate_graph

ALL_MODELS = ("ic", "wc", "lt", "lt-live-edge", "oc", "oi-ic", "oi-wc", "oi-lt", "icn")


# ------------------------------------------------------------ references


def reference_ic_cascade(
    graph, seeds, rng, edge_probability, opinion="initial", quality_factor=None
):
    """Scalar IC-family cascade: a FIFO frontier, one draw per out-edge.

    ``opinion`` is ``"initial"`` (IC/WC), ``"interaction"`` (OI: after a
    frontier node's edge draws, one agreement coin per successful attempt)
    or ``"polarity"`` (IC-N: one quality coin per seed and per activation
    by a positive node).  The second-layer coins are drawn per frontier
    node here and per round in the batch kernel, so only ``"initial"``
    consumes the generator in the kernel's order.
    """
    seeds = validate_seed_indices(graph, seeds)
    outcome = DiffusionOutcome(seeds=seeds)
    active = np.zeros(graph.number_of_nodes, dtype=bool)
    final = np.zeros(graph.number_of_nodes, dtype=np.float64)

    def activate(node, value):
        active[node] = True
        final[node] = value
        outcome.activated.append(node)
        outcome.final_opinions[node] = float(value)

    def quality_sign():
        return 1.0 if rng.random() < quality_factor else -1.0

    for seed in seeds:
        activate(seed, quality_sign() if opinion == "polarity" else graph.opinions[seed])
    frontier = list(seeds)
    while frontier:
        outcome.rounds += 1
        next_frontier = []
        for node in frontier:
            start, end = graph.out_indptr[node], graph.out_indptr[node + 1]
            if start == end:
                continue
            draws = rng.random(end - start)
            successes = np.flatnonzero(draws < edge_probability[start:end])
            if opinion == "interaction" and successes.size:
                agreement_draws = rng.random(successes.size)
            for slot, offset in enumerate(successes):
                target = int(graph.out_indices[start + offset])
                if active[target]:
                    continue
                if opinion == "interaction":
                    agrees = agreement_draws[slot] < graph.out_interaction[start + offset]
                    contribution = final[node] if agrees else -final[node]
                    value = (graph.opinions[target] + contribution) / 2.0
                elif opinion == "polarity":
                    value = -1.0 if final[node] < 0 else quality_sign()
                else:
                    value = graph.opinions[target]
                activate(target, value)
                next_frontier.append(target)
        frontier = next_frontier
    return outcome


def reference_lt_weights(graph):
    """In-CSR LT weights: annotated where any are, else ``1 / in_degree``."""
    if np.any(graph.in_weight > 0):
        return graph.in_weight
    in_degrees = np.diff(graph.in_indptr)
    return np.repeat(1.0 / np.maximum(in_degrees, 1), in_degrees)


def reference_lt_cascade(graph, seeds, rng, opinion="initial"):
    """Scalar LT-family cascade with strict synchronous rounds.

    Thresholds are drawn first (annotated values override the draw).  Each
    round pushes the frontier's edge weights onto inactive out-neighbours,
    summed per target in first-touch order, and activates the touched
    targets whose accumulated weight reaches their threshold, in that same
    order.  ``opinion`` is ``"initial"`` (LT), ``"mean"`` (OC: the mean
    final opinion of the pre-round active in-neighbours) or
    ``"interaction"`` (OI-LT: each of those is negated unless an agreement
    coin, drawn in in-edge order, lands below ``phi``).
    """
    seeds = validate_seed_indices(graph, seeds)
    outcome = DiffusionOutcome(seeds=seeds)
    n = graph.number_of_nodes
    thresholds = rng.random(n)
    annotated = ~np.isnan(graph.thresholds)
    thresholds[annotated] = graph.thresholds[annotated]
    weights = reference_lt_weights(graph)
    active = np.zeros(n, dtype=bool)
    final = np.zeros(n, dtype=np.float64)
    accumulated = np.zeros(n, dtype=np.float64)
    for seed in seeds:
        active[seed] = True
        final[seed] = graph.opinions[seed]
        outcome.activated.append(seed)
        outcome.final_opinions[seed] = float(graph.opinions[seed])

    frontier = list(seeds)
    while frontier:
        outcome.rounds += 1
        pushed = {}
        for node in frontier:
            for position in range(graph.out_indptr[node], graph.out_indptr[node + 1]):
                target = int(graph.out_indices[position])
                if not active[target]:
                    weight = weights[graph.out_to_in_position[position]]
                    pushed[target] = pushed.get(target, 0.0) + weight
        for target, weight in pushed.items():
            accumulated[target] += weight
        newly = [t for t in pushed if accumulated[t] >= thresholds[t]]
        for target in newly:
            value = graph.opinions[target]
            if opinion != "initial":
                contributions = []
                for position in range(graph.in_indptr[target], graph.in_indptr[target + 1]):
                    source = int(graph.in_indices[position])
                    if not active[source]:
                        continue
                    agrees = (
                        opinion == "mean"
                        or rng.random() < graph.in_interaction[position]
                    )
                    contributions.append(final[source] if agrees else -final[source])
                value = (value + sum(contributions) / max(len(contributions), 1)) / 2.0
            final[target] = value
            outcome.activated.append(target)
            outcome.final_opinions[target] = float(value)
        active[newly] = True
        frontier = newly
    return outcome


def reference_live_edge_cascade(graph, seeds, rng):
    """Scalar live-edge cascade: sample parents, then walk the live forest.

    Every node with in-edges draws once, in node order, and keeps the
    in-edge whose cumulative-weight interval holds the draw (none when the
    draw is at least the weight sum).  A round activates the inactive live
    children of the previous round's nodes, in node-index order.
    """
    seeds = validate_seed_indices(graph, seeds)
    outcome = DiffusionOutcome(seeds=seeds)
    weights = reference_lt_weights(graph)
    children = {}
    for node in range(graph.number_of_nodes):
        start, end = graph.in_indptr[node], graph.in_indptr[node + 1]
        if start == end:
            continue
        local = weights[start:end]
        draw = rng.random()
        if draw < local.sum():
            position = int(np.searchsorted(np.cumsum(local), draw, side="right"))
            children.setdefault(int(graph.in_indices[start + position]), []).append(node)

    active = np.zeros(graph.number_of_nodes, dtype=bool)
    active[list(seeds)] = True
    for seed in seeds:
        outcome.activated.append(seed)
        outcome.final_opinions[seed] = float(graph.opinions[seed])
    frontier = list(seeds)
    while frontier:
        outcome.rounds += 1
        frontier = sorted(
            {child for node in frontier for child in children.get(node, ()) if not active[child]}
        )
        active[frontier] = True
        for node in frontier:
            outcome.activated.append(node)
            outcome.final_opinions[node] = float(graph.opinions[node])
    return outcome


def reference_cascade(model_name, graph, seeds, rng):
    """The scalar reference cascade of a registered model."""
    if model_name == "lt-live-edge":
        return reference_live_edge_cascade(graph, seeds, rng)
    lt_family = {"lt": "initial", "oc": "mean", "oi-lt": "interaction"}
    if model_name in lt_family:
        return reference_lt_cascade(graph, seeds, rng, lt_family[model_name])
    weighting, opinion = {
        "ic": ("ic", "initial"),
        "wc": ("wc", "initial"),
        "oi-ic": ("ic", "interaction"),
        "oi-wc": ("wc", "interaction"),
        "icn": ("ic", "polarity"),
    }[model_name]
    return reference_ic_cascade(
        graph,
        seeds,
        rng,
        graph.resolved_edge_probabilities(weighting),
        opinion,
        quality_factor=getattr(get_model(model_name), "quality_factor", None),
    )


# --------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def annotated_graph():
    graph = barabasi_albert_graph(120, 3, seed=3)
    annotate_graph(graph, opinion="normal", interaction="uniform", seed=4)
    return graph.compile()


@pytest.fixture(scope="module")
def lt_annotated_graph():
    """The annotated graph plus random LT weights (each in-weight sum < 1)
    and a few fixed thresholds."""
    graph = barabasi_albert_graph(120, 3, seed=3)
    annotate_graph(graph, opinion="normal", interaction="uniform", seed=4)
    rng = np.random.default_rng(8)
    for source, target, data in graph.edges():
        data.weight = float(rng.uniform(0.2, 1.0) / graph.in_degree(target))
    for node in (5, 30, 77):
        graph.set_threshold(node, 0.25)
    return graph.compile()


class BatchOnlyModel(DiffusionModel):
    """A third-party-style model that defines only ``simulate_batch``."""

    name = "batch-only"

    def simulate_batch(self, graph, seeds, rng, count):
        # Activate node 0 with probability 1/2 in every cascade.
        seeds = validate_seed_indices(graph, seeds)
        hits = np.flatnonzero(rng.random(count) < 0.5) if 0 not in seeds else []
        hits = np.asarray(hits, dtype=np.int64)
        active = np.zeros((count, graph.number_of_nodes), dtype=bool)
        active[:, list(seeds)] = True
        active[hits, 0] = True
        return BatchOutcome(
            seeds=seeds,
            active=active,
            rounds=np.ones(count, dtype=np.int64),
            seed_opinions=np.tile(graph.opinions[list(seeds)], (count, 1)),
            log_cascades=hits,
            log_nodes=np.zeros(hits.size, dtype=np.int64),
            log_opinions=np.full(hits.size, graph.opinions[0]),
        )


#: Models whose batch kernel draws in the scalar reference's order.
EXACT_MODELS = ("ic", "wc", "lt", "oc", "oi-lt", "lt-live-edge")


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("graph_name", ["annotated_graph", "lt_annotated_graph"])
    @pytest.mark.parametrize("model_name", EXACT_MODELS)
    def test_simulate_equals_reference_cascade(self, request, graph_name, model_name):
        """Same generator, same cascade: activation order, final opinions,
        rounds and the generator position all match exactly."""
        graph = request.getfixturevalue(graph_name)
        model = get_model(model_name)
        for generator_seed in range(200):
            rng = np.random.default_rng(generator_seed)
            reference_rng = np.random.default_rng(generator_seed)
            outcome = model.simulate(graph, [0, 7, 19], rng)
            expected = reference_cascade(model_name, graph, [0, 7, 19], reference_rng)
            assert outcome.activated == expected.activated
            assert outcome.final_opinions == expected.final_opinions
            assert outcome.rounds == expected.rounds
            assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_mean_objectives_within_three_sigma(self, annotated_graph, model_name):
        """On independent streams — and for OI-IC, OI-WC and IC-N, whose
        reference draws second-layer coins in another order — the batch
        kernel must be statistically indistinguishable from the reference:
        mean spread AND mean opinion spread over 2000 cascades within 3 sigma."""
        model = get_model(model_name)
        seeds = [0, 7, 19]
        n_sims = 2000
        rng = np.random.default_rng(21)
        scalar_spread = np.zeros(n_sims)
        scalar_opinion = np.zeros(n_sims)
        for i in range(n_sims):
            outcome = reference_cascade(model_name, annotated_graph, seeds, rng)
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
                reference_cascade("oi-ic", compiled, seeds, rng).final_opinions.get(
                    target, 0.0
                )
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


class TestOneCascadeView:
    def test_outcome_lists_activations_in_log_order(self, annotated_graph):
        batch = get_model("ic").simulate_batch(
            annotated_graph, [0, 7], np.random.default_rng(2), 8
        )
        for i in range(batch.count):
            outcome = batch.outcome(i)
            logged = batch.log_nodes[batch.log_cascades == i].tolist()
            assert outcome.activated == [0, 7] + logged
            assert set(outcome.activated) == set(np.flatnonzero(batch.active[i]))
        assert batch.outcome(-1) == batch.outcome(batch.count - 1)
        with pytest.raises(IndexError):
            batch.outcome(batch.count)

    def test_batch_only_model_gets_simulate_for_free(self, annotated_graph):
        model = BatchOnlyModel()
        batch = model.simulate_batch(annotated_graph, [5], np.random.default_rng(0), 400)
        assert batch.active[:, 5].all()
        # Node 0 activates in roughly half of the cascades.
        assert 0.35 < batch.active[:, 0].mean() < 0.65
        activated = [
            model.simulate(annotated_graph, [5], np.random.default_rng(seed)).activated
            for seed in range(200)
        ]
        assert {tuple(a) for a in activated} == {(5,), (5, 0)}

    def test_batch_only_model_engine_estimate(self, annotated_graph):
        engine = MonteCarloEngine(
            annotated_graph, BatchOnlyModel(), simulations=300, seed=1
        )
        estimate = engine.estimate([5])
        assert 0.35 < estimate.spread < 0.65

    def test_a_model_must_define_simulate_batch(self):
        class ScalarOnly(DiffusionModel):
            def simulate(self, graph, seeds, rng):
                return DiffusionOutcome(seeds=tuple(seeds))

        with pytest.raises(TypeError):
            ScalarOnly()


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
