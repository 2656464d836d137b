"""Unit tests for the diffusion models (IC, WC, LT, live-edge, OI, IC-N, OC)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.diffusion import (
    ICNModel,
    IndependentCascadeModel,
    LinearThresholdModel,
    LiveEdgeModel,
    MonteCarloEngine,
    OCModel,
    OpinionInteractionModel,
    WeightedCascadeModel,
    available_models,
    get_model,
)
from repro.diffusion.base import validate_seed_indices
from repro.diffusion.batch import _sample_live_parent_matrix
from repro.exceptions import ConfigurationError
from repro.graphs import DiGraph, path_graph
from repro.specs import ModelSpec
from repro.utils.rng import ensure_rng


def _simulate(model, graph, seeds, seed=0):
    """Simulate with seeds given as node *labels* (mapped to compiled indices)."""
    compiled = graph.compile()
    indices = [compiled.index_of.get(s, s) for s in seeds]
    return model.simulate(compiled, indices, ensure_rng(seed))


class TestSeedValidation:
    def test_duplicates_removed(self, figure1):
        compiled = figure1.compile()
        assert validate_seed_indices(compiled, [0, 0, 1]) == (0, 1)

    def test_out_of_range_rejected(self, figure1):
        compiled = figure1.compile()
        with pytest.raises(ValueError):
            validate_seed_indices(compiled, [99])


class TestIndependentCascade:
    def test_deterministic_chain(self, line_graph):
        outcome = _simulate(IndependentCascadeModel(), line_graph, [0])
        assert outcome.spread() == 4.0
        assert len(outcome.activated) == 5

    def test_zero_probability_no_spread(self):
        graph = path_graph(4, probability=0.0)
        outcome = _simulate(IndependentCascadeModel(), graph, [0])
        assert outcome.spread() == 0.0

    def test_seed_not_counted_in_spread(self, line_graph):
        outcome = _simulate(IndependentCascadeModel(), line_graph, [0, 1])
        assert outcome.spread() == 3.0

    def test_active_set_monotone_in_seeds(self, small_dag):
        # With p = 1 everywhere the cascade is reachability, so adding a
        # seed can only add activated nodes.
        for _, _, data in small_dag.edges():
            data.probability = 1.0
        compiled = small_dag.compile()
        model = IndependentCascadeModel()
        single = model.simulate(compiled, [0], ensure_rng(3))
        double = model.simulate(compiled, [0, 1], ensure_rng(3))
        assert len(single.activated) > 1
        assert set(single.activated) <= set(double.activated)

    def test_expected_spread_monotone_in_seeds(self, small_dag):
        compiled = small_dag.compile()
        single = MonteCarloEngine(compiled, "ic", simulations=4000, seed=3).estimate([0])
        double = MonteCarloEngine(compiled, "ic", simulations=4000, seed=4).estimate([0, 1])
        standard_error = np.hypot(single.spread_std, double.spread_std) / np.sqrt(4000)
        assert double.spread >= single.spread - 4.0 * standard_error

    def test_expected_spread_matches_hand_computation(self, figure1):
        # sigma(A) = p_AD = 0.8 and sigma(C) = p_CD = 0.9 (Example 2).
        compiled = figure1.compile()
        model = IndependentCascadeModel()
        rng = ensure_rng(0)
        for label, expected in (("A", 0.8), ("C", 0.9)):
            batch = model.simulate_batch(compiled, [compiled.index_of[label]], rng, 3000)
            assert batch.spreads().mean() == pytest.approx(expected, abs=0.05)

    def test_final_opinions_are_initial_opinions(self, figure1):
        compiled = figure1.compile()
        outcome = IndependentCascadeModel().simulate(
            compiled, [compiled.index_of["A"]], ensure_rng(1)
        )
        for node, opinion in outcome.final_opinions.items():
            assert opinion == pytest.approx(float(compiled.opinions[node]))


class TestWeightedCascade:
    def test_probability_is_inverse_in_degree(self):
        # The stored p = 0.9 is ignored: node 2 has in-degree 2, so the
        # seed 0 reaches it with probability 1/2.
        graph = DiGraph()
        graph.add_edge(0, 2, probability=0.9)
        graph.add_edge(1, 2, probability=0.9)
        compiled = graph.compile()
        batch = WeightedCascadeModel().simulate_batch(
            compiled, [compiled.index_of[0]], ensure_rng(0), 4000
        )
        spreads = batch.spreads()
        assert abs(spreads.mean() - 0.5) <= 4.0 * spreads.std() / np.sqrt(4000)

    def test_single_parent_always_activates(self):
        graph = path_graph(4, probability=0.0)  # stored p ignored under WC
        outcome = _simulate(WeightedCascadeModel(), graph, [0])
        assert outcome.spread() == 3.0


class TestLinearThreshold:
    def test_annotated_thresholds_respected(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.set_linear_threshold_weights()
        graph.set_threshold(1, 0.5)  # single in-edge weight 1.0 >= 0.5
        outcome = _simulate(LinearThresholdModel(), graph, [0])
        assert outcome.spread() == 1.0

    def test_high_threshold_blocks_activation(self):
        graph = DiGraph()
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.set_linear_threshold_weights()
        graph.set_threshold(2, 0.9)  # needs both parents; only one is seeded
        outcome = _simulate(LinearThresholdModel(), graph, [0])
        assert outcome.spread() == 0.0

    def test_both_parents_activate(self):
        graph = DiGraph()
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.set_linear_threshold_weights()
        graph.set_threshold(2, 0.9)
        outcome = _simulate(LinearThresholdModel(), graph, [0, 1])
        assert outcome.spread() == 1.0

    def test_threshold_reached_exactly_activates(self):
        # A node activates once the weight sum *reaches* its threshold.
        graph = DiGraph()
        graph.add_edge(0, 1, weight=0.5)
        graph.set_threshold(1, 0.5)
        outcome = _simulate(LinearThresholdModel(), graph, [0])
        assert outcome.spread() == 1.0


#: A tiny LT graph with a cycle (h -> b): 8 nodes, in-degree <= 3, and every
#: node's in-weight sum below 1, so "no live in-edge" has positive mass.
LT_ORACLE_EDGES = [
    # (source, target, weight)
    ("a", "c", 0.3), ("b", "c", 0.4),
    ("a", "d", 0.5), ("c", "d", 0.3),
    ("c", "e", 0.6), ("d", "e", 0.2), ("b", "e", 0.1),
    ("d", "f", 0.45), ("e", "f", 0.35),
    ("e", "g", 0.5), ("f", "g", 0.25), ("c", "g", 0.15),
    ("g", "h", 0.6), ("f", "h", 0.2),
    ("h", "b", 0.4),
]
LT_ORACLE_SEEDS = ["a"]


def exact_lt_spread(edges, seeds):
    """Exact LT spread by enumerating every live-edge world (Kempe et al.).

    Each node keeps one in-edge with probability its weight, or none with
    the remaining mass; the spread is the number of non-seed nodes reachable
    from the seeds through kept edges.
    """
    choices = {}
    for source, target, weight in edges:
        choices.setdefault(target, []).append((source, weight))
    for target, options in choices.items():
        options.append((None, 1.0 - sum(weight for _, weight in options)))
    targets = list(choices)
    expected = 0.0
    for world in itertools.product(*(choices[t] for t in targets)):
        probability = float(np.prod([weight for _, weight in world]))
        parent = {t: source for t, (source, _) in zip(targets, world)}
        reached = set(seeds)
        grew = True
        while grew:
            grown = {t for t, source in parent.items() if source in reached}
            grew = not grown <= reached
            reached |= grown
        expected += probability * (len(reached) - len(seeds))
    return expected


class TestExactLT:
    def test_oracle_graph_shape(self):
        in_degree = {}
        in_weight = {}
        for _, target, weight in LT_ORACLE_EDGES:
            in_degree[target] = in_degree.get(target, 0) + 1
            in_weight[target] = in_weight.get(target, 0.0) + weight
        nodes = {node for edge in LT_ORACLE_EDGES for node in edge[:2]}
        assert len(nodes) <= 8
        assert max(in_degree.values()) <= 3
        assert max(in_weight.values()) < 1.0

    @pytest.mark.parametrize("model_name", ["lt", "lt-live-edge"])
    def test_monte_carlo_within_four_standard_errors(self, model_name):
        graph = DiGraph()
        for source, target, weight in LT_ORACLE_EDGES:
            graph.add_edge(source, target, weight=weight)
        compiled = graph.compile()
        simulations = 20_000
        estimate = MonteCarloEngine(
            compiled, model_name, simulations=simulations, seed=2016
        ).estimate(compiled.indices_for(LT_ORACLE_SEEDS))
        exact = exact_lt_spread(LT_ORACLE_EDGES, LT_ORACLE_SEEDS)
        standard_error = estimate.spread_std / np.sqrt(simulations)
        assert abs(estimate.spread - exact) <= 4.0 * standard_error


class TestLiveEdge:
    def test_parent_sampling_respects_weights(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.set_linear_threshold_weights()
        compiled = graph.compile()
        parents = _sample_live_parent_matrix(compiled, ensure_rng(0), 50)
        assert (parents[:, compiled.index_of[1]] == compiled.index_of[0]).all()
        outcome = _simulate(LiveEdgeModel(), graph, [0])
        assert outcome.activated == [compiled.index_of[0], compiled.index_of[1]]

    def test_draw_on_a_boundary_selects_the_next_edge(self):
        # In-edge i owns the half-open interval [c_(i-1), c_i) of the
        # cumulative weights; a draw exactly on c_0 belongs to edge 1.
        class BoundaryDraws:
            def random(self, size):
                return np.full(size, 0.5)

        graph = DiGraph()
        graph.add_edge(0, 2, weight=0.5)
        graph.add_edge(1, 2, weight=0.5)
        compiled = graph.compile()
        parents = _sample_live_parent_matrix(compiled, BoundaryDraws(), 1)
        assert parents[0, compiled.index_of[2]] == compiled.index_of[1]

    def test_last_node_without_in_edges(self):
        # Regression: the sampler read one past the end of the edge arrays
        # when the last compiled node had no in-edges.
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        graph.set_linear_threshold_weights()
        estimate = MonteCarloEngine(
            graph.compile(), "lt-live-edge", simulations=10, seed=0
        ).estimate([0])
        assert estimate.spread == 1.0

    def test_no_in_edges_no_parent(self):
        graph = path_graph(3)
        graph.set_linear_threshold_weights()
        compiled = graph.compile()
        parents = _sample_live_parent_matrix(compiled, ensure_rng(0), 50)
        assert (parents[:, compiled.index_of[0]] == -1).all()


class TestOpinionInteraction:
    def test_invalid_first_layer(self):
        with pytest.raises(ConfigurationError):
            OpinionInteractionModel("bogus")

    def test_seed_keeps_own_opinion(self, figure1):
        compiled = figure1.compile()
        outcome = OpinionInteractionModel("ic").simulate(
            compiled, [compiled.index_of["A"]], ensure_rng(0)
        )
        assert outcome.final_opinions[compiled.index_of["A"]] == pytest.approx(0.8)

    def test_opinion_mixing_agreement(self):
        # A(o=0.8) -> D(o=-0.3), p=1, phi=1: o'_D = (-0.3 + 0.8)/2 = 0.25.
        graph = DiGraph()
        graph.add_node("A", opinion=0.8)
        graph.add_node("D", opinion=-0.3)
        graph.add_edge("A", "D", probability=1.0, interaction=1.0)
        outcome = _simulate(OpinionInteractionModel("ic"), graph, [0])
        compiled_opinion = list(outcome.final_opinions.values())
        assert pytest.approx(0.25) in [round(v, 6) for v in compiled_opinion]

    def test_opinion_mixing_disagreement(self):
        # phi = 0 always flips the upstream opinion: o'_D = (-0.3 - 0.8)/2 = -0.55.
        graph = DiGraph()
        graph.add_node("A", opinion=0.8)
        graph.add_node("D", opinion=-0.3)
        graph.add_edge("A", "D", probability=1.0, interaction=0.0)
        compiled = graph.compile()
        outcome = OpinionInteractionModel("ic").simulate(
            compiled, [compiled.index_of["A"]], ensure_rng(0)
        )
        assert outcome.final_opinions[compiled.index_of["D"]] == pytest.approx(-0.55)

    def test_expected_opinion_spread_matches_example2(self, figure1):
        compiled = figure1.compile()
        model = OpinionInteractionModel("ic")
        batch = model.simulate_batch(compiled, [compiled.index_of["A"]], ensure_rng(2), 4000)
        assert batch.opinion_spreads().mean() == pytest.approx(0.136, abs=0.02)

    def test_opinions_stay_in_range(self, annotated_small_graph):
        compiled = annotated_small_graph.compile()
        model = OpinionInteractionModel("ic")
        outcome = model.simulate(compiled, [0, 1, 2], ensure_rng(3))
        for opinion in outcome.final_opinions.values():
            assert -1.0 <= opinion <= 1.0

    def test_lt_first_layer_runs(self, annotated_small_graph):
        annotated_small_graph.set_linear_threshold_weights()
        compiled = annotated_small_graph.compile()
        model = OpinionInteractionModel("lt")
        outcome = model.simulate(compiled, [0, 1, 2], ensure_rng(4))
        assert outcome.spread() >= 0.0
        for opinion in outcome.final_opinions.values():
            assert -1.0 <= opinion <= 1.0

    def test_wc_first_layer_runs(self, annotated_small_graph):
        compiled = annotated_small_graph.compile()
        outcome = OpinionInteractionModel("wc").simulate(compiled, [0], ensure_rng(5))
        assert outcome.spread() >= 0.0


class TestICN:
    def test_quality_factor_validation(self):
        with pytest.raises(ConfigurationError):
            ICNModel(quality_factor=1.5)

    def test_all_positive_when_quality_one(self, line_graph):
        outcome = _simulate(ICNModel(quality_factor=1.0), line_graph, [0])
        assert all(v == 1.0 for v in outcome.final_opinions.values())

    def test_all_negative_when_quality_zero(self, line_graph):
        outcome = _simulate(ICNModel(quality_factor=0.0), line_graph, [0])
        assert all(v == -1.0 for v in outcome.final_opinions.values())

    def test_negativity_dominance(self, line_graph):
        # Once a node turns negative, everything downstream is negative.
        outcome = _simulate(ICNModel(quality_factor=0.5), line_graph, [0], seed=1)
        opinions = [outcome.final_opinions[n] for n in outcome.activated]
        if -1.0 in opinions:
            first_negative = opinions.index(-1.0)
            assert all(v == -1.0 for v in opinions[first_negative:])


class TestOC:
    def test_runs_and_mixes_opinions(self, annotated_small_graph):
        annotated_small_graph.set_linear_threshold_weights()
        compiled = annotated_small_graph.compile()
        outcome = OCModel().simulate(compiled, [0, 1], ensure_rng(6))
        for opinion in outcome.final_opinions.values():
            assert -1.0 <= opinion <= 1.0

    def test_single_edge_mixing(self):
        graph = DiGraph()
        graph.add_node(0, opinion=1.0)
        graph.add_node(1, opinion=0.0)
        graph.add_edge(0, 1)
        graph.set_linear_threshold_weights()
        graph.set_threshold(1, 0.5)
        outcome = _simulate(OCModel(), graph, [0])
        compiled = graph.compile()
        assert outcome.final_opinions[compiled.index_of[1]] == pytest.approx(0.5)


class TestRegistry:
    def test_available_models(self):
        names = available_models()
        for expected in ("ic", "wc", "lt", "oi-ic", "oi-lt", "icn", "oc"):
            assert expected in names

    def test_get_model_instances(self):
        assert isinstance(get_model("ic"), IndependentCascadeModel)
        assert isinstance(get_model("oi-lt"), OpinionInteractionModel)
        assert get_model("oi-lt").first_layer == "lt"

    def test_get_model_with_parameters(self):
        model = get_model("icn", quality_factor=0.7)
        assert model.quality_factor == pytest.approx(0.7)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("oi-ic", {"quality_factor": 0.1}),
            ("oi-lt", {"first_layer": "ic"}),
            ("ic", {"x": 1}),
            ("wc", {"quality_factor": 0.5}),
            ("icn", {"quality": 0.5}),
        ],
    )
    def test_unaccepted_parameters_raise(self, name, params):
        with pytest.raises(ConfigurationError):
            get_model(name, **params)

    def test_model_spec_params_are_not_dropped(self):
        assert ModelSpec(name="icn", params={"quality_factor": 0.3}).build().quality_factor == 0.3
        with pytest.raises(ConfigurationError):
            ModelSpec(name="oi-wc", params={"quality_factor": 0.3}).build()

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            get_model("does-not-exist")

    def test_model_passthrough(self):
        model = IndependentCascadeModel()
        assert get_model(model) is model
