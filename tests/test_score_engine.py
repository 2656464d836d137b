"""Tests for the incremental residual scoring engine (repro.scoring).

The load-bearing property throughout: the engine's scores must equal the
reference full-recompute score functions **bit-for-bit** (``np.array_equal``,
no tolerance) after any sequence of activation updates, across weightings,
dirty-region fallback settings and algorithms — and therefore ScoreGREEDY
seed selection through the engine must be indistinguishable from the
historical full-recompute driver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.easyim import EaSyIMSelector, easyim_scores
from repro.algorithms.osim import OSIMSelector, osim_scores
from repro.exceptions import ConfigurationError
from repro.graphs import DiGraph, random_kout_graph
from repro.graphs.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.opinion.annotate import annotate_graph
from repro.scoring import DEFAULT_FALLBACK_FRACTION, ScoreEngine
from repro.scoring.engine import FALLBACK_PATIENCE

REFERENCES = {"easyim": easyim_scores, "osim": osim_scores}


def make_graph(n=120, out_degree=4, seed=2, wc=False):
    graph = random_kout_graph(n, out_degree, seed=seed)
    if wc:
        graph.set_weighted_cascade_probabilities()
    annotate_graph(graph, opinion="uniform", interaction="uniform", seed=seed + 1)
    return graph.compile()


def assert_engine_matches_reference(engine, compiled, active, weighting):
    reference = REFERENCES[engine.algorithm](
        compiled, active, engine.max_path_length, weighting
    )
    assert np.array_equal(engine.scores, reference)
    masked = np.where(active, -np.inf, reference)
    if np.isfinite(masked.max()):
        assert engine.best_inactive() == int(np.argmax(masked))
    else:
        assert engine.best_inactive() is None


class TestBitForBitEquivalence:
    @pytest.mark.parametrize("algorithm", ["easyim", "osim"])
    @pytest.mark.parametrize("weighting", ["ic", "wc", "lt"])
    def test_grown_active_sets_match_reference(self, algorithm, weighting):
        compiled = make_graph()
        engine = ScoreEngine(
            compiled, algorithm=algorithm, max_path_length=3, weighting=weighting
        )
        rng = np.random.default_rng(9)
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        assert_engine_matches_reference(engine, compiled, active, weighting)
        for _ in range(12):
            newly = rng.choice(
                compiled.number_of_nodes, size=int(rng.integers(1, 7)), replace=False
            )
            active[newly] = True
            engine.mark_active(newly)
            assert_engine_matches_reference(engine, compiled, active, weighting)

    def test_osim_under_oc_matches_reference(self):
        compiled = make_graph()
        engine = ScoreEngine(compiled, algorithm="osim", weighting="lt", model="oc")
        rng = np.random.default_rng(5)
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        for _ in range(6):
            reference = osim_scores(compiled, active, 3, "lt", model="oc")
            assert np.array_equal(engine.scores, reference)
            newly = rng.choice(compiled.number_of_nodes, size=4, replace=False)
            active[newly] = True
            engine.mark_active(newly)
        # OC has no interaction term: psi = 1/2 on every edge, whatever the
        # annotated phi says.
        assert not np.array_equal(
            osim_scores(compiled, max_path_length=3, weighting="lt", model="oc"),
            osim_scores(compiled, max_path_length=3, weighting="lt"),
        )

    @pytest.mark.parametrize("algorithm", ["easyim", "osim"])
    @pytest.mark.parametrize("fallback_fraction", [0.0, 0.05, 1.0])
    def test_fallback_boundary_preserves_scores(self, algorithm, fallback_fraction):
        """The incremental/fallback decision must never change a score:
        fraction 0 forces a rebuild on every update, 1.0 essentially never
        falls back, and a small fraction exercises the mid-update abort."""
        compiled = make_graph(wc=True)
        engine = ScoreEngine(
            compiled,
            algorithm=algorithm,
            weighting="wc",
            fallback_fraction=fallback_fraction,
        )
        rng = np.random.default_rng(4)
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        for _ in range(8):
            newly = rng.choice(
                compiled.number_of_nodes, size=int(rng.integers(1, 9)), replace=False
            )
            active[newly] = True
            engine.mark_active(newly)
            assert_engine_matches_reference(engine, compiled, active, "wc")
        if fallback_fraction == 0.0:
            assert engine.stats["incremental_updates"] == 0
            assert (
                engine.stats["fallback_rebuilds"]
                + engine.stats["direct_rebuilds"]
                > 0
            )
        if fallback_fraction == 1.0:
            assert engine.stats["fallback_rebuilds"] == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_random_activation_sequences(self, seed):
        """Hypothesis-driven: any activation sequence on a random graph keeps
        the engine bit-for-bit equal to the reference, for both algorithms."""
        rng = np.random.default_rng(seed)
        compiled = make_graph(
            n=int(rng.integers(20, 90)),
            out_degree=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 1000)),
            wc=bool(rng.integers(0, 2)),
        )
        weighting = ("ic", "wc", "lt")[int(rng.integers(0, 3))]
        fraction = float(rng.choice([0.0, 0.1, DEFAULT_FALLBACK_FRACTION, 1.0]))
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        engines = {
            name: ScoreEngine(
                compiled, algorithm=name, weighting=weighting,
                fallback_fraction=fraction,
            )
            for name in ("easyim", "osim")
        }
        for _ in range(6):
            newly = rng.choice(
                compiled.number_of_nodes,
                size=int(rng.integers(1, max(2, compiled.number_of_nodes // 8))),
                replace=False,
            )
            active[newly] = True
            for name, engine in engines.items():
                engine.mark_active(newly)
                assert_engine_matches_reference(engine, compiled, active, weighting)

    def test_repeated_and_empty_activations_are_noops(self):
        compiled = make_graph()
        engine = ScoreEngine(compiled, algorithm="easyim")
        first = engine.mark_active([3, 5])
        before = engine.scores.copy()
        assert engine.mark_active([]).size == 0
        assert engine.mark_active([3, 5]).size == 0
        assert np.array_equal(engine.scores, before)
        assert first.size >= 0  # dirty set returned for fresh activations

    def test_activation_without_in_edges_changes_nothing(self):
        graph = DiGraph()
        graph.add_edge(0, 1, probability=0.5)
        graph.add_edge(0, 2, probability=0.5)
        compiled = graph.compile()
        engine = ScoreEngine(compiled, algorithm="easyim")
        before = engine.scores.copy()
        dirty = engine.mark_active([compiled.index_of[0]])  # 0 has no in-edges
        assert dirty.size == 0
        assert np.array_equal(engine.scores, before)


class TestLazyArgmax:
    def test_all_active_returns_none(self):
        compiled = make_graph(n=30)
        engine = ScoreEngine(compiled, algorithm="easyim")
        engine.mark_active(np.arange(30))
        assert engine.best_inactive() is None

    def test_pool_decay_triggers_rebuild_and_stays_exact(self):
        """Activating the entire current top pool forces a pool rebuild; the
        repaired argmax must still match the full masked argmax."""
        compiled = make_graph(n=200, out_degree=4)
        engine = ScoreEngine(compiled, algorithm="easyim")
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        # Eat the top of the ranking, forcing decay.
        for _ in range(40):
            best = engine.best_inactive()
            active[best] = True
            engine.mark_active([best])
            assert_engine_matches_reference(engine, compiled, active, "ic")

    def test_osim_score_increase_is_not_missed(self):
        """Activating a negative-opinion node can *raise* an in-neighbour's
        OSIM score; the engine must surface such risers in the argmax."""
        graph = DiGraph()
        # hub -> sink_neg (strongly negative), hub -> sink_pos
        graph.add_edge(0, 1, probability=0.9, interaction=1.0)
        graph.add_edge(0, 2, probability=0.9, interaction=1.0)
        graph.add_edge(3, 1, probability=0.9, interaction=1.0)
        graph.add_node(0, opinion=0.1)
        graph.add_node(1, opinion=-1.0)
        graph.add_node(2, opinion=0.9)
        graph.add_node(3, opinion=0.1)
        compiled = graph.compile()
        engine = ScoreEngine(compiled, algorithm="osim")
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        neg = compiled.index_of[1]
        active[neg] = True
        engine.mark_active([neg])
        assert_engine_matches_reference(engine, compiled, active, "ic")


class TestSelectorParity:
    """EaSyIM/OSIM selection must be unchanged by the engine rewiring."""

    @pytest.mark.parametrize("strategy", ["single", "majority", "none"])
    def test_easyim_seed_sets_match_pre_engine_driver(self, strategy, small_ic_graph):
        compiled = small_ic_graph.compile()
        incremental = EaSyIMSelector(
            model="wc", update_strategy=strategy, seed=17
        ).select(compiled, 8)
        full = EaSyIMSelector(
            model="wc", update_strategy=strategy, seed=17, incremental=False
        ).select(compiled, 8)
        assert incremental.seeds == full.seeds
        assert incremental.scores == full.scores
        assert "engine" in incremental.metadata

    @pytest.mark.parametrize("strategy", ["single", "majority", "none"])
    def test_osim_seed_sets_match_pre_engine_driver(
        self, strategy, annotated_small_graph
    ):
        compiled = annotated_small_graph.compile()
        incremental = OSIMSelector(
            model="oi-ic", update_strategy=strategy, seed=23
        ).select(compiled, 8)
        full = OSIMSelector(
            model="oi-ic", update_strategy=strategy, seed=23, incremental=False
        ).select(compiled, 8)
        assert incremental.seeds == full.seeds
        assert incremental.scores == full.scores

    @pytest.mark.parametrize(
        "shape, selector, model, falls_back",
        [
            # Subcritical uniform-IC cascades: small dirty balls.
            ("kout", EaSyIMSelector, "ic", False),
            ("kout", OSIMSelector, "oi-ic", False),
            # WC gives mean branching factor 1: critical cascades.
            ("kout-wc", EaSyIMSelector, "wc", True),
            # Hubs blow the edge budget on almost every update, so the
            # engine lives in its full-rebuild fallback.
            ("ba-wc", EaSyIMSelector, "wc", True),
        ],
    )
    def test_large_graph_seed_sets_match_full_recompute(
        self, shape, selector, model, falls_back
    ):
        if shape == "ba-wc":
            graph = barabasi_albert_graph(5_000, 3, seed=1)
        else:
            graph = random_kout_graph(5_000, 6, seed=1)
        if shape != "kout":
            graph.set_weighted_cascade_probabilities()
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=3)
        compiled = graph.compile()
        incremental = selector(model=model, seed=7).select(compiled, 50)
        full = selector(model=model, seed=7, incremental=False).select(
            compiled, 50
        )
        assert incremental.seeds == full.seeds
        assert incremental.scores == full.scores
        engine = incremental.metadata["engine"]
        assert engine["incremental_updates"] > 0
        if falls_back:
            assert engine["fallback_rebuilds"] > 0

    def test_regression_fixed_seed_sets_unchanged(self):
        """Pinned seed sets from the pre-engine driver on a fixed graph: both
        drivers must keep reproducing them exactly (update_strategy='none'
        avoids any dependence on the selector RNG)."""
        graph = erdos_renyi_graph(60, 0.08, seed=5)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=6)
        compiled = graph.compile()
        easyim_expected = EaSyIMSelector(
            model="ic", update_strategy="none", incremental=False
        ).select(compiled, 6).seeds
        osim_expected = OSIMSelector(
            model="oi-ic", update_strategy="none", incremental=False
        ).select(compiled, 6).seeds
        assert EaSyIMSelector(
            model="ic", update_strategy="none"
        ).select(compiled, 6).seeds == easyim_expected
        assert OSIMSelector(
            model="oi-ic", update_strategy="none"
        ).select(compiled, 6).seeds == osim_expected

    def test_oversubscribed_budget_fallback_matches(self, line_graph):
        """When the cascade activates the whole graph, the engine driver must
        fall back to unselected nodes exactly like the historical one."""
        compiled = line_graph.compile()
        incremental = EaSyIMSelector(model="ic", seed=0).select(compiled, 4)
        full = EaSyIMSelector(model="ic", seed=0, incremental=False).select(
            compiled, 4
        )
        assert incremental.seeds == full.seeds
        assert len(set(incremental.seeds)) == 4


class TestFallbackAdaptivity:
    def test_direct_rebuild_mode_engages_after_repeated_fallbacks(self):
        compiled = make_graph(n=150, out_degree=5, wc=True)
        engine = ScoreEngine(
            compiled, algorithm="easyim", weighting="wc", fallback_fraction=0.0
        )
        rng = np.random.default_rng(1)
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        for _ in range(FALLBACK_PATIENCE + 3):
            newly = rng.choice(compiled.number_of_nodes, size=3, replace=False)
            active[newly] = True
            engine.mark_active(newly)
            assert_engine_matches_reference(engine, compiled, active, "wc")
        assert engine.stats["fallback_rebuilds"] >= FALLBACK_PATIENCE
        assert engine.stats["direct_rebuilds"] >= 1


class TestEngineValidation:
    def test_rejects_unknown_algorithm(self):
        compiled = make_graph(n=20)
        with pytest.raises(ConfigurationError):
            ScoreEngine(compiled, algorithm="pagerank")

    def test_rejects_unknown_weighting(self):
        compiled = make_graph(n=20)
        with pytest.raises(ConfigurationError):
            ScoreEngine(compiled, weighting="bogus")

    def test_rejects_bad_path_length_and_fraction(self):
        compiled = make_graph(n=20)
        with pytest.raises(ConfigurationError):
            ScoreEngine(compiled, max_path_length=0)
        with pytest.raises(ConfigurationError):
            ScoreEngine(compiled, fallback_fraction=-0.5)

    def test_score_greedy_requires_scorer_or_engine(self):
        from repro.algorithms.score_greedy import ScoreGreedySelector

        with pytest.raises(ConfigurationError):
            ScoreGreedySelector()


class TestGraphStaticCaches:
    def test_edge_sources_cached_and_correct(self):
        compiled = make_graph(n=40)
        sources = compiled.edge_sources
        assert sources is compiled.edge_sources  # same object: cached
        expected = np.repeat(
            np.arange(compiled.number_of_nodes), np.diff(compiled.out_indptr)
        )
        assert np.array_equal(sources, expected)

    def test_resolved_probabilities_cached_per_weighting(self):
        compiled = make_graph(n=40, wc=True)
        for weighting in ("ic", "wc", "lt"):
            first = compiled.resolved_edge_probabilities(weighting)
            assert first is compiled.resolved_edge_probabilities(weighting)
        with pytest.raises(ConfigurationError):
            compiled.resolved_edge_probabilities("nope")

    def test_position_map_is_a_bijection_onto_the_same_edges(self):
        compiled = make_graph(n=60, out_degree=3)
        out_to_in = compiled.out_to_in_position
        m = compiled.number_of_edges
        assert np.array_equal(np.sort(out_to_in), np.arange(m))
        # The mapped in-CSR entry must describe the same edge.
        assert np.array_equal(
            compiled.in_indices[out_to_in], compiled.edge_sources
        )
        in_targets = np.repeat(
            np.arange(compiled.number_of_nodes), np.diff(compiled.in_indptr)
        )
        assert np.array_equal(in_targets[out_to_in], compiled.out_indices)
        assert np.array_equal(
            compiled.in_probability[out_to_in], compiled.out_probability
        )

    def test_out_psi_matches_definition(self):
        compiled = make_graph(n=30)
        assert np.array_equal(
            compiled.out_psi, (2.0 * compiled.out_interaction - 1.0) / 2.0
        )


class TestCLIEngineFlags:
    def test_full_recompute_and_selection_seed_round_trip(self, capsys):
        """`select --selection-seed` makes runs reproducible, so the engine
        and --full-recompute paths must emit identical seed sets."""
        import json

        from repro.cli import main

        base = [
            "select", "--dataset", "nethept", "--scale", "0.12", "--seed", "3",
            "--algorithm", "easyim", "--model", "wc", "-k", "4",
            "--simulations", "10", "--selection-seed", "11", "--json",
        ]
        assert main(base) == 0
        incremental = json.loads(capsys.readouterr().out)
        assert main(base + ["--full-recompute"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert incremental["seeds"] == full["seeds"]
        assert "engine" in incremental["selection_metadata"]
        assert "engine" not in full["selection_metadata"]


class TestRandomKOutGenerator:
    def test_no_self_loops_and_degree_bound(self):
        graph = random_kout_graph(50, 4, seed=3)
        compiled = graph.compile()
        assert compiled.number_of_nodes == 50
        assert compiled.number_of_edges <= 50 * 4
        for u in range(50):
            assert u not in compiled.out_neighbors(u)
            assert compiled.out_degree(u) <= 4

    def test_deterministic_for_fixed_seed(self):
        a = random_kout_graph(40, 3, seed=8)
        b = random_kout_graph(40, 3, seed=8)
        assert sorted((u, v) for u, v, _ in a.edges()) == sorted(
            (u, v) for u, v, _ in b.edges()
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            random_kout_graph(5, 0)
        with pytest.raises(ConfigurationError):
            random_kout_graph(3, 3)
