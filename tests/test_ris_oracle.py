"""RIS unbiasedness against exact spread on tiny graphs.

The RIS estimator ``n * F(S)`` (``F`` the fraction of RR sets that meet
``S``) is unbiased for the expected spread ``sigma(S)``, seeds included.
On graphs with at most 12 edges every live-edge world can be enumerated, so
``sigma(S)`` is exact and the sampled estimate must land within four
standard errors of it.  The sampler runs with 16 slots, so each slot opens
about 1250 sets and its visited tags wrap four times.

A strict ``u < p`` test and a ``u <= p`` test differ with probability
``2**-53`` per edge, far below any sampling error, so the boundary is pinned
separately: an edge whose probability equals the uniform a token draws for
it must stay dead for that token.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.graphs.digraph import DiGraph
from repro.sketches import BatchRRSampler, RRSetCollection
from repro.sketches.sampler import _counter_hash, _mix64

#: Eight nodes, twelve edges: a 3-cycle, a 3-cycle through node 4, a node
#: with four in-edges (4) and one with two (5).
EDGES = (
    (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (1, 4),
    (0, 4), (4, 5), (5, 6), (6, 4), (3, 7), (7, 5),
)
NODES = 8

#: Per-edge IC probabilities, all different, so no in-slice is uniform.
IC_PROBABILITIES = (0.35, 0.6, 0.25, 0.5, 0.3, 0.45, 0.2, 0.55, 0.7, 0.4, 0.65, 0.15)

#: LT weights; node 4's in-weights sum to 0.85 and node 5's to 0.9, so
#: walks can also stop at a node with in-edges.
LT_WEIGHTS = (0.8, 0.7, 0.9, 0.6, 0.1, 0.3, 0.2, 0.6, 0.75, 0.25, 0.85, 0.3)

SEED_SETS = ((0,), (2,), (3,), (4,), (5,), (7,), (0, 5), (3, 6), (1, 7))

SETS = 20_000


def _graph(model: str) -> DiGraph:
    graph = DiGraph()
    for node in range(NODES):
        graph.add_node(node)
    for (source, target), probability, weight in zip(
        EDGES, IC_PROBABILITIES, LT_WEIGHTS
    ):
        graph.add_edge(source, target, probability=probability, weight=weight)
    if model == "wc":
        graph.set_weighted_cascade_probabilities()
    return graph


def _independent_worlds(graph: DiGraph):
    """``(probability, live edges)`` for every subset of the edges."""
    edges = [(u, v, data.probability) for u, v, data in graph.edges()]
    for live in itertools.product((False, True), repeat=len(edges)):
        probability = 1.0
        kept = []
        for (u, v, p), on in zip(edges, live):
            probability *= p if on else 1.0 - p
            if on:
                kept.append((u, v))
        yield probability, kept


def _lt_worlds(graph: DiGraph):
    """``(probability, live edges)``: each node keeps at most one in-edge."""
    choices = []
    for node in graph.nodes():
        options = [(1.0 - sum(data.weight for _, data in graph.in_edges(node)), None)]
        options += [(data.weight, (u, node)) for u, data in graph.in_edges(node)]
        choices.append(options)
    for picks in itertools.product(*choices):
        probability = 1.0
        kept = []
        for weight, edge in picks:
            probability *= weight
            if edge is not None:
                kept.append(edge)
        yield probability, kept


def _reached(live, seeds) -> int:
    successors: dict = {}
    for u, v in live:
        successors.setdefault(u, []).append(v)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for v in successors.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def exact_spreads(graph: DiGraph, model: str):
    """Expected spread of every seed set in :data:`SEED_SETS`, seeds included."""
    worlds = _lt_worlds(graph) if model == "lt" else _independent_worlds(graph)
    totals = np.zeros(len(SEED_SETS))
    mass = 0.0
    for probability, live in worlds:
        mass += probability
        totals += probability * np.array([_reached(live, s) for s in SEED_SETS])
    assert mass == pytest.approx(1.0)
    return totals


@pytest.mark.parametrize("model", ["ic", "wc", "lt"])
def test_ris_estimate_within_four_standard_errors(model):
    graph = _graph(model)
    compiled = graph.compile()
    collection = RRSetCollection(NODES)
    BatchRRSampler(compiled, model).sample_into(
        np.random.default_rng(2016), collection, SETS, 16
    )
    exact = exact_spreads(graph, model)
    for seeds, sigma in zip(SEED_SETS, exact):
        indices = compiled.indices_for(seeds)
        fraction = collection.covered_fraction(indices)
        error = NODES * np.sqrt(fraction * (1.0 - fraction) / SETS)
        estimate = collection.estimated_spread(indices)
        assert abs(estimate - sigma) < 4.0 * error, (seeds, estimate, sigma, error)


def _boundary_probability(token: int, position: int, above: bool) -> float:
    """The probability equal to (or one ulp above) the uniform ``token``
    draws for in-edge ``position``."""
    stream = _mix64(np.array([token], dtype=np.uint64))
    uniform = int(_counter_hash(stream, position)[0]) * 2.0 ** -53
    return float(np.nextafter(uniform, 1.0)) if above else uniform


def _token_rooted_at(root: int, n: int) -> int:
    return 2**40 * n + root


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("siblings", [0, 1])
def test_threshold_boundary_is_strict(above, siblings):
    # ``siblings`` adds a second in-edge of another probability to the
    # target, which switches the sampler from per-target to per-edge
    # thresholds.
    def build(probability):
        graph = DiGraph()
        graph.add_edge("s", "t", probability=probability)
        for extra in range(siblings):
            graph.add_edge(f"x{extra}", "t", probability=0.0)
        return graph.compile()

    layout = build(0.5)
    target = layout.index_of["t"]
    source = layout.index_of["s"]
    start = int(layout.in_indptr[target])
    position = start + list(layout.in_indices[start:]).index(source)
    token = _token_rooted_at(target, layout.number_of_nodes)
    compiled = build(_boundary_probability(token, position, above))
    members, indptr, _ = BatchRRSampler(compiled, "ic").sample_tokens(
        np.array([token], dtype=np.int64)
    )
    expected = [target, source] if above else [target]
    assert members.tolist() == expected
