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
from repro.scoring import engine as engine_module
from repro.telemetry.tracing import TraceRecorder, recording

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
        """The patch/full decision must never change a score: fraction 0
        makes every update a full pass, 1.0 patches every hop, and a small
        fraction switches to a full pass part-way through an update."""
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
            # The initial pass plus one full pass per update.
            assert engine.stats["incremental_updates"] == 0
            assert engine.stats["full_rebuilds"] == 1 + 8
        if fallback_fraction == 1.0:
            assert engine.stats["full_rebuilds"] == 1
            assert engine.stats["incremental_updates"] == 8

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

    @pytest.mark.parametrize("fraction", [0.0, 1.0], ids=["full", "patched"])
    def test_osim_riser_outside_the_pool_becomes_the_argmax(
        self, monkeypatch, fraction
    ):
        """A one-node pool holds only ``top`` (score 0.25).  Activating
        ``neg`` lifts ``riser`` from 0 to 0.5, past the pool threshold, so
        the update must re-pool it — on the full path by the whole-array
        diff, on the patched path from the dirty set."""
        monkeypatch.setattr(engine_module, "POOL_TARGET", 1)
        graph = DiGraph()
        for node, opinion in (("top", 0.0), ("pos", 1.0), ("riser", 0.0),
                              ("neg", -1.0), ("pos2", 1.0)):
            graph.add_node(node, opinion=opinion)
        graph.add_edge("top", "pos", probability=0.5, interaction=1.0)
        graph.add_edge("riser", "neg", probability=1.0, interaction=1.0)
        graph.add_edge("riser", "pos2", probability=1.0, interaction=1.0)
        compiled = graph.compile()
        engine = ScoreEngine(compiled, algorithm="osim", fallback_fraction=fraction)
        top, riser = compiled.index_of["top"], compiled.index_of["riser"]
        assert engine.best_inactive() == top
        assert engine.score_of(riser) == 0.0
        engine.mark_active([compiled.index_of["neg"]])
        assert engine.score_of(riser) == 0.5 > engine.score_of(top)
        assert engine.best_inactive() == riser


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
        "shape, selector, model, goes_full, hub",
        [
            # Subcritical uniform-IC cascades: small dirty balls.
            ("kout", EaSyIMSelector, "ic", False, False),
            ("kout", OSIMSelector, "oi-ic", False, False),
            # WC gives mean branching factor 1: critical cascades.
            ("kout-wc", EaSyIMSelector, "wc", True, False),
            # Hubs blow the per-hop budget on every update: the first hops
            # are patched, the later ones recomputed in full.
            ("ba-wc", EaSyIMSelector, "wc", True, True),
        ],
    )
    def test_large_graph_seed_sets_match_full_recompute(
        self, shape, selector, model, goes_full, hub
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
        # Some hops are always patched; only on the hub graph does every
        # update go full at some hop.
        assert engine["edges_touched_incremental"] > 0
        assert (engine["incremental_updates"] == 0) == hub
        if goes_full:
            assert engine["full_rebuilds"] > 1

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


def dirty_work(compiled, active, fresh, hops):
    """Out-edge count of each hop's dirty set when ``fresh`` (inactive)
    become active — the engine's per-hop work, derived independently:
    ``D_0 = N_in(fresh)``, ``D_h = D_{h-1} | N_in(new_{h-1} - active)``."""
    in_indptr, in_indices = compiled.in_indptr, compiled.in_indices
    out_degree = np.diff(compiled.out_indptr)
    now_active = active.copy()
    now_active[fresh] = True
    dirty, frontier, work = set(), set(int(v) for v in fresh), []
    for _ in range(hops):
        new = {
            int(u)
            for v in frontier
            for u in in_indices[in_indptr[v]:in_indptr[v + 1]]
        } - dirty
        dirty |= new
        work.append(int(sum(out_degree[u] for u in dirty)))
        frontier = {u for u in new if not now_active[u]}
    return work


class TestPerHopSwitch:
    """Each hop of an update is patched or, from the first hop over budget
    on, recomputed in full — and scores stay bit-for-bit exact either way.

    The argmax pool is shrunk so that it never holds every inactive node:
    an OSIM riser left out of the pool then changes ``best_inactive``, so
    the risers re-pooling is checked on both the patched and full paths.
    """

    HOPS = 3

    @pytest.fixture(autouse=True)
    def small_pool(self, monkeypatch):
        monkeypatch.setattr(engine_module, "POOL_TARGET", 8)

    def _update(self, engine, compiled, active, fresh, weighting):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            engine.mark_active(fresh)
        active[fresh] = True
        assert_engine_matches_reference(engine, compiled, active, weighting)
        (rescore,) = [s for s in recorder.finished() if s.name == "score_rescore"]
        return rescore.attributes["full_from_hop"]

    @pytest.mark.parametrize("algorithm", ["easyim", "osim"])
    @pytest.mark.parametrize("weighting", ["ic", "wc", "lt"])
    @pytest.mark.parametrize("switch_hop", [0, 1, 2])
    def test_switch_at_each_hop_is_exact(self, algorithm, weighting, switch_hop):
        compiled = make_graph(n=300, out_degree=3, seed=7, wc=True)
        m = compiled.number_of_edges
        engine = ScoreEngine(
            compiled, algorithm=algorithm, max_path_length=self.HOPS,
            weighting=weighting,
        )
        rng = np.random.default_rng(switch_hop)
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        switched = 0
        for _ in range(25):
            fresh = rng.choice(np.flatnonzero(~active), size=2, replace=False)
            work = dirty_work(compiled, active, fresh, self.HOPS)
            if switch_hop == 0:
                if work[0] == 0:
                    continue
                # Anything below hop 0's work sends the whole update full.
                engine.fallback_fraction = (work[0] - 0.5) / m
            elif work[switch_hop] > work[switch_hop - 1]:
                # Within budget up to the previous hop, over it here.
                engine.fallback_fraction = (work[switch_hop - 1] + 0.5) / m
            else:
                continue
            full_from_hop = self._update(engine, compiled, active, fresh, weighting)
            assert full_from_hop == switch_hop
            switched += 1
        assert switched >= 5

    @pytest.mark.parametrize("algorithm", ["easyim", "osim"])
    @pytest.mark.parametrize("weighting", ["ic", "wc", "lt"])
    @pytest.mark.parametrize("fraction, expected_hop", [(0.0, 0), (1.0, None)])
    def test_edge_fractions(self, algorithm, weighting, fraction, expected_hop):
        """Fraction 0 makes every update full from hop 0; fraction 1 never
        goes full (a dirty set owns at most all m out-edges)."""
        compiled = make_graph(n=300, out_degree=3, seed=7, wc=True)
        engine = ScoreEngine(
            compiled, algorithm=algorithm, max_path_length=self.HOPS,
            weighting=weighting, fallback_fraction=fraction,
        )
        rng = np.random.default_rng(3)
        active = np.zeros(compiled.number_of_nodes, dtype=bool)
        updates = 0
        for _ in range(12):
            fresh = rng.choice(np.flatnonzero(~active), size=5, replace=False)
            if not any(dirty_work(compiled, active, fresh, self.HOPS)):
                continue  # no in-edges: nothing to patch or recompute
            full_from_hop = self._update(engine, compiled, active, fresh, weighting)
            assert full_from_hop == expected_hop
            updates += 1
        assert updates >= 8
        full_updates = updates if expected_hop == 0 else 0
        assert engine.stats["full_rebuilds"] == 1 + full_updates
        assert engine.stats["incremental_updates"] == updates - full_updates


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

    def test_uniform_probability_decided_once_per_weighting(self):
        compiled = make_graph(n=40)
        uniform = compiled.uniform_edge_probability("ic")
        assert uniform == compiled.out_probability[0]
        assert np.all(compiled.out_probability == uniform)
        assert uniform is compiled.uniform_edge_probability("ic")  # cached
        assert compiled.uniform_edge_probability("wc") is None
        edgeless = DiGraph()
        edgeless.add_node(0)
        assert edgeless.compile().uniform_edge_probability("ic") is None

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
