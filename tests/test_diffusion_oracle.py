"""Oracles for the IC-family Monte-Carlo path.

``reference_run_ic_batch`` is the dense kernel that ``run_ic_batch``
replaced: it expands every frontier edge into a cascade, target and key,
keeps ``(count, n)`` opinion state, and reduces the objectives over dense
matrices.  The sparse kernel must consume the same random numbers and
reach the same activations and opinions; only the summation order of the
opinion objectives may differ.

With one probability on every edge, ``run_ic_batch`` takes that probability
as a scalar and resolves the edge positions of the hits only.  The uniform
cases run through both forms, on a real generator and on ``GridRNG``, whose
draws land exactly on the probabilities (that pins the strict ``u < p``).

``exact_oi_ic_objectives`` enumerates every live-edge x agreement world of
a tiny in-forest (in-degree <= 1, so each activation has a unique
activator) to get the exact Def. 3/6/7 values that ``MonteCarloEngine``
must estimate.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diffusion import MonteCarloEngine, get_model
from repro.diffusion.base import validate_seed_indices
from repro.diffusion.batch import ic_edge_probability, run_ic_batch
from repro.graphs.digraph import CompiledGraph, DiGraph
from repro.graphs.generators import barabasi_albert_graph
from repro.opinion.annotate import annotate_graph

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class GridRNG:
    """Stand-in generator whose uniforms cycle through 0.0, 0.1, ..., 0.9.

    A real generator almost never draws a value equal to an edge
    probability, so ``u <= p`` and ``u < p`` would agree on it; on this
    grid the draws hit 0.0 and 0.3 exactly.
    """

    def __init__(self, position: int) -> None:
        self.position = position

    def random(self, size=None):
        count = 1 if size is None else int(size)
        values = np.arange(self.position, self.position + count) % 10 / 10.0
        self.position += count
        return float(values[0]) if size is None else values


def reference_run_ic_batch(
    graph: CompiledGraph,
    seeds,
    rng: np.random.Generator,
    count: int,
    edge_probability: np.ndarray,
    opinion: str = "initial",
    quality_factor=None,
):
    """Dense IC kernel: returns ``(active, opinions, rounds)`` matrices."""
    validated = validate_seed_indices(graph, seeds)
    n = graph.number_of_nodes
    seed_array = np.asarray(validated, dtype=np.int64)
    active = np.zeros(count * n, dtype=bool)
    track_opinions = opinion != "initial"
    opinions = np.zeros(count * n, dtype=np.float64) if track_opinions else None
    rounds = np.zeros(count, dtype=np.int64)
    indptr = graph.out_indptr

    frontier_cas = np.repeat(np.arange(count, dtype=np.int64), seed_array.size)
    frontier_node = np.tile(seed_array, count)
    seed_keys = frontier_cas * n + frontier_node
    if seed_array.size:
        active[seed_keys] = True
        if opinion == "polarity":
            positive = rng.random(seed_keys.size) < quality_factor
            opinions[seed_keys] = np.where(positive, 1.0, -1.0)
        elif track_opinions:
            opinions[seed_keys] = graph.opinions[frontier_node]

    while frontier_cas.size:
        alive = np.zeros(count, dtype=bool)
        alive[frontier_cas] = True
        rounds += alive

        degrees = indptr[frontier_node + 1] - indptr[frontier_node]
        total = int(degrees.sum())
        if total == 0:
            break
        positions = np.arange(total) + np.repeat(
            indptr[frontier_node] - np.cumsum(degrees) + degrees, degrees
        )
        cascades = np.repeat(frontier_cas, degrees)
        targets = graph.out_indices[positions]
        keys = cascades * n + targets

        draws = rng.random(total)
        success = draws < edge_probability[positions]
        success &= ~active[keys]
        if not success.any():
            break

        hit = np.flatnonzero(success)
        # First successful attempt on each target wins.
        _, first = np.unique(keys[hit], return_index=True)
        winners = hit[np.sort(first)]
        win_keys = keys[winners]
        win_tgt = targets[winners]
        win_cas = cascades[winners]
        active[win_keys] = True
        if opinion != "initial":
            source_keys = win_cas * n + np.repeat(frontier_node, degrees)[winners]
            if opinion == "interaction":
                agrees = (
                    rng.random(winners.size)
                    < graph.out_interaction[positions[winners]]
                )
                source_opinion = opinions[source_keys]
                contribution = np.where(agrees, source_opinion, -source_opinion)
                opinions[win_keys] = (graph.opinions[win_tgt] + contribution) / 2.0
            else:
                source_sign = opinions[source_keys]
                positive = rng.random(winners.size) < quality_factor
                opinions[win_keys] = np.where(
                    source_sign < 0, -1.0, np.where(positive, 1.0, -1.0)
                )
        frontier_cas = win_cas
        frontier_node = win_tgt

    active_matrix = active.reshape(count, n)
    if track_opinions:
        opinion_matrix = opinions.reshape(count, n)
    else:
        opinion_matrix = active_matrix * graph.opinions[None, :]
    return active_matrix, opinion_matrix, rounds


def reference_objectives(seeds, active, opinions, penalty):
    """Def. 3/6/7 per cascade by masking the dense matrices."""
    mask = active.copy()
    mask[:, list(seeds)] = False
    masked = np.where(mask, opinions, 0.0)
    positive = np.clip(masked, 0.0, None).sum(axis=1)
    negative = np.clip(-masked, 0.0, None).sum(axis=1)
    return np.stack([
        mask.sum(axis=1).astype(np.float64),
        masked.sum(axis=1),
        positive - penalty * negative,
    ])


@st.composite
def kernel_cases(draw):
    """A small random graph plus every argument of one kernel call."""
    n = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, opinion=draw(st.floats(-1.0, 1.0)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), unit, unit),
        max_size=40,
    ))
    for source, target, probability, interaction in pairs:
        if source != target:
            graph.add_edge(
                source, target, probability=probability, interaction=interaction
            )
    compiled = graph.compile()
    probabilities = draw(st.sampled_from(["annotated", "uniform", "wc"]))
    if probabilities == "wc":
        edge_probability = compiled.resolved_edge_probabilities("wc")
    elif probabilities == "uniform":
        uniform = draw(st.sampled_from([0.0, 0.3, 1.0]))
        if draw(st.booleans()):
            edge_probability = uniform
        else:
            edge_probability = np.full(compiled.number_of_edges, uniform)
    else:
        edge_probability = compiled.out_probability
    seeds = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return {
        "graph": compiled,
        "seeds": seeds,
        "count": draw(st.sampled_from([0, 1, 7])),
        "edge_probability": edge_probability,
        "opinion": draw(st.sampled_from(["initial", "interaction", "polarity"])),
        "quality_factor": draw(unit),
        "rng_seed": draw(st.integers(0, 2**32 - 1)),
        "penalty": draw(st.sampled_from([0.0, 1.0, 2.5])),
    }


def assert_matches_reference(case, make_rng=np.random.default_rng):
    """Run ``case`` through both kernels; return the sparse outcome.

    A scalar ``edge_probability`` reaches the reference as a full array.
    """
    penalty = case.pop("penalty")
    rng_seed = case.pop("rng_seed")
    sparse_rng = make_rng(rng_seed)
    dense_rng = make_rng(rng_seed)
    outcome = run_ic_batch(rng=sparse_rng, **case)
    dense_case = dict(case, edge_probability=np.broadcast_to(
        case["edge_probability"], (case["graph"].number_of_edges,)
    ))
    active, opinions, rounds = reference_run_ic_batch(rng=dense_rng, **dense_case)

    assert np.array_equal(outcome.active, active)
    assert np.array_equal(outcome.rounds, rounds)
    assert np.array_equal(outcome.opinions, opinions)
    expected = reference_objectives(outcome.seeds, active, opinions, penalty)
    objectives = outcome.objectives(penalty)
    assert objectives.shape == expected.shape
    assert np.array_equal(objectives[0], expected[0])
    np.testing.assert_allclose(objectives[1:], expected[1:], rtol=1e-12, atol=1e-12)
    # The RNG stream is left where the dense kernel left it.
    assert sparse_rng.random() == dense_rng.random()
    return outcome


def annotated_graph(probability: float = 0.1) -> CompiledGraph:
    graph = barabasi_albert_graph(300, 3, seed=5, probability=probability)
    annotate_graph(graph, opinion="normal", interaction="uniform", seed=6)
    return graph.compile()


class TestSparseICKernel:
    @SETTINGS
    @given(kernel_cases())
    def test_matches_dense_reference(self, case):
        assert_matches_reference(case)

    @pytest.mark.parametrize("opinion", ["initial", "interaction", "polarity"])
    def test_matches_dense_reference_on_annotated_graph(self, opinion):
        compiled = annotated_graph()
        assert_matches_reference({
            "graph": compiled,
            "seeds": [0, 4, 4, 17, 250],
            "count": 64,
            "edge_probability": compiled.out_probability,
            "opinion": opinion,
            "quality_factor": 0.6,
            "rng_seed": 11,
            "penalty": 1.5,
        })

    @pytest.mark.parametrize("make_rng", [np.random.default_rng, GridRNG],
                             ids=["generator", "grid"])
    @pytest.mark.parametrize("opinion", ["initial", "interaction", "polarity"])
    @pytest.mark.parametrize("probability", [0.0, 0.3, 1.0])
    def test_uniform_scalar_and_array_paths_match_reference(
        self, probability, opinion, make_rng
    ):
        compiled = annotated_graph()
        scalar, array = [
            assert_matches_reference({
                "graph": compiled,
                "seeds": [0, 4, 4, 17, 250],
                "count": 64,
                "edge_probability": edge_probability,
                "opinion": opinion,
                "quality_factor": 0.6,
                "rng_seed": 11,
                "penalty": 1.5,
            }, make_rng)
            for edge_probability in (
                probability, np.full(compiled.number_of_edges, probability)
            )
        ]
        # Same activation order and opinions, not only the same end state.
        for field in ("log_cascades", "log_nodes", "log_opinions", "seed_opinions"):
            assert np.array_equal(getattr(scalar, field), getattr(array, field))

    def test_models_pass_the_scalar_only_for_uniform_probabilities(self):
        uniform = DiGraph()
        uniform.add_edges_from([(0, 1), (1, 2), (0, 2)], probability=0.1)
        compiled = uniform.compile()
        assert ic_edge_probability(compiled, "ic") == 0.1
        assert isinstance(ic_edge_probability(compiled, "ic"), float)
        # In-degrees 1 and 2: WC probabilities differ, so the array goes in.
        assert ic_edge_probability(compiled, "wc") is (
            compiled.resolved_edge_probabilities("wc")
        )
        per_edge = barabasi_albert_graph(50, 2, seed=1)
        per_edge.set_weighted_cascade_probabilities()
        per_edge = per_edge.compile()
        assert ic_edge_probability(per_edge, "ic") is per_edge.out_probability

    @pytest.mark.parametrize("model", ["ic", "oi-ic", "icn"])
    def test_uniform_models_match_the_array_path(self, model):
        compiled = annotated_graph(probability=0.3)
        assert compiled.uniform_edge_probability("ic") == 0.3
        outcome = get_model(model).simulate_batch(
            compiled, [0, 17], np.random.default_rng(4), 32
        )
        opinion = {"ic": "initial", "oi-ic": "interaction", "icn": "polarity"}[model]
        expected = run_ic_batch(
            compiled, [0, 17], np.random.default_rng(4), 32,
            np.full(compiled.number_of_edges, 0.3), opinion=opinion,
            quality_factor=getattr(get_model(model), "quality_factor", None),
        )
        for field in ("active", "rounds", "log_cascades", "log_nodes", "log_opinions"):
            assert np.array_equal(getattr(outcome, field), getattr(expected, field))

    def test_log_holds_each_non_seed_activation_once(self):
        graph = barabasi_albert_graph(200, 4, seed=1)
        annotate_graph(graph, seed=2)
        compiled = graph.compile()
        outcome = run_ic_batch(
            compiled, [0, 1], np.random.default_rng(3), 32,
            np.full(compiled.number_of_edges, 0.5), opinion="interaction",
        )
        keys = outcome.log_cascades * compiled.number_of_nodes + outcome.log_nodes
        assert np.unique(keys).size == keys.size
        non_seed = outcome.active.copy()
        non_seed[:, [0, 1]] = False
        assert keys.size == non_seed.sum()
        assert non_seed[outcome.log_cascades, outcome.log_nodes].all()


# ---------------------------------------------------------------- exact OI-IC

#: A two-tree in-forest (every in-degree <= 1) with 8 edges.  ``d`` is a
#: seed with a parent, so the oracle also covers a seed that keeps its own
#: opinion although its in-edge may be live.
FOREST_OPINIONS = {
    "r": 0.8, "a": -0.4, "b": 0.3, "c": 0.9, "d": -0.7, "e": -0.2,
    "f": 0.5, "s": -0.6, "g": 0.1, "h": 0.4,
}
FOREST_EDGES = [
    # (source, target, p, phi)
    ("r", "a", 0.7, 0.8),
    ("r", "b", 0.4, 0.3),
    ("a", "c", 0.6, 0.5),
    ("a", "d", 0.5, 0.9),
    ("b", "e", 0.8, 0.2),
    ("d", "f", 0.9, 0.6),
    ("s", "g", 0.5, 0.1),
    ("g", "h", 0.3, 0.7),
]
FOREST_SEEDS = ["r", "d", "s"]


def build_forest() -> CompiledGraph:
    graph = DiGraph()
    for node, opinion in FOREST_OPINIONS.items():
        graph.add_node(node, opinion=opinion)
    for source, target, probability, interaction in FOREST_EDGES:
        graph.add_edge(source, target, probability=probability, interaction=interaction)
    return graph.compile()


def forest_worlds():
    """Yield ``(probability, final opinions of the active nodes)`` per world.

    Each edge is dead (``1 - p``), live and agreeing (``p * phi``) or live
    and disagreeing (``p * (1 - phi)``).  A node activates iff its unique
    in-edge is live and its parent is active; its final opinion is
    ``(o_v +/- o'_parent) / 2`` with the sign of the edge's agreement.
    """
    parent = {target: source for source, target, _, _ in FOREST_EDGES}
    order = list(FOREST_OPINIONS)  # parents listed before children
    for states in itertools.product(range(3), repeat=len(FOREST_EDGES)):
        weight = 1.0
        state_of = {}
        for (source, target, p, phi), state in zip(FOREST_EDGES, states):
            weight *= (1.0 - p, p * phi, p * (1.0 - phi))[state]
            state_of[target] = state
        final = {seed: FOREST_OPINIONS[seed] for seed in FOREST_SEEDS}
        for node in order:
            if node in final or node not in parent:
                continue
            source = parent[node]
            if source in final and state_of[node] != 0:
                sign = 1.0 if state_of[node] == 1 else -1.0
                final[node] = (FOREST_OPINIONS[node] + sign * final[source]) / 2.0
        yield weight, final


def exact_oi_ic_objectives(penalty: float) -> np.ndarray:
    """Exact expected spread, opinion spread and effective opinion spread."""
    expected = np.zeros(3)
    for weight, final in forest_worlds():
        reached = [final[node] for node in final if node not in FOREST_SEEDS]
        positive = sum(o for o in reached if o > 0)
        negative = -sum(o for o in reached if o < 0)
        expected += weight * np.array(
            [len(reached), sum(reached), positive - penalty * negative]
        )
    return expected


class TestExactOIIC:
    def test_forest_is_an_in_forest_listed_in_topological_order(self):
        targets = [target for _, target, _, _ in FOREST_EDGES]
        assert len(targets) == len(set(targets)) <= 8
        order = list(FOREST_OPINIONS)
        for source, target, _, _ in FOREST_EDGES:
            if target not in FOREST_SEEDS:
                assert order.index(source) < order.index(target)

    def test_world_probabilities_sum_to_one(self):
        assert sum(weight for weight, _ in forest_worlds()) == pytest.approx(1.0)

    @pytest.mark.parametrize("penalty", [0.0, 1.0, 2.0])
    def test_monte_carlo_within_four_standard_errors(self, penalty):
        graph = build_forest()
        simulations = 20_000
        engine = MonteCarloEngine(
            graph, "oi-ic", simulations=simulations, penalty=penalty, seed=2024
        )
        estimate = engine.estimate(FOREST_SEEDS)
        exact = exact_oi_ic_objectives(penalty)
        for value, std, truth in (
            (estimate.spread, estimate.spread_std, exact[0]),
            (estimate.opinion_spread, estimate.opinion_spread_std, exact[1]),
            (
                estimate.effective_opinion_spread,
                estimate.effective_opinion_spread_std,
                exact[2],
            ),
        ):
            standard_error = max(std / np.sqrt(simulations), 1e-12)
            assert abs(value - truth) <= 4.0 * standard_error
