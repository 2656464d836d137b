"""Synthetic graph generators.

These generators provide the topology substrate for the synthetic stand-ins of
the paper's benchmark datasets (Table 2) and for the randomised structures
used in tests (trees, DAGs, paths).  All generators accept a ``seed`` and are
fully deterministic for a fixed seed.

Every generator returns a directed :class:`DiGraph`; generators that are
conceptually undirected (Barabási–Albert, Watts–Strogatz, …) add arcs in both
directions, matching the paper's treatment of undirected SNAP graphs.  The
two that back the dataset stand-ins grow plain edge lists
(:func:`powerlaw_cluster_edges`, :func:`forest_fire_edges`) and return
array-backed graphs (:meth:`DiGraph.from_edge_arrays`).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import DEFAULT_INFLUENCE_PROBABILITY, DiGraph
from repro.utils.rng import RandomState, ensure_rng


def _empty(n: int, name: str) -> DiGraph:
    if n < 0:
        raise ConfigurationError(f"number of nodes must be >= 0, got {n}")
    graph = DiGraph(name=name)
    graph.add_nodes_from(range(n))
    return graph


# --------------------------------------------------------------------------
# deterministic topologies


def path_graph(n: int, probability: float = DEFAULT_INFLUENCE_PROBABILITY) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    graph = _empty(n, f"path-{n}")
    for i in range(n - 1):
        graph.add_edge(i, i + 1, probability=probability)
    return graph


def cycle_graph(n: int, probability: float = DEFAULT_INFLUENCE_PROBABILITY) -> DiGraph:
    """Directed cycle on ``n >= 2`` nodes."""
    if n < 2:
        raise ConfigurationError(f"a cycle needs at least 2 nodes, got {n}")
    graph = path_graph(n, probability=probability)
    graph.name = f"cycle-{n}"
    graph.add_edge(n - 1, 0, probability=probability)
    return graph


def star_graph(n_leaves: int, probability: float = DEFAULT_INFLUENCE_PROBABILITY) -> DiGraph:
    """Star with hub ``0`` pointing at ``n_leaves`` leaves."""
    graph = _empty(n_leaves + 1, f"star-{n_leaves}")
    for leaf in range(1, n_leaves + 1):
        graph.add_edge(0, leaf, probability=probability)
    return graph


def complete_graph(n: int, probability: float = DEFAULT_INFLUENCE_PROBABILITY) -> DiGraph:
    """Complete directed graph (both arcs between every node pair)."""
    graph = _empty(n, f"complete-{n}")
    for u in range(n):
        for v in range(n):
            if u != v:
                graph.add_edge(u, v, probability=probability)
    return graph


# --------------------------------------------------------------------------
# random topologies


def erdos_renyi_graph(
    n: int,
    edge_probability: float,
    seed: RandomState = None,
    directed: bool = True,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """G(n, p) random graph.

    ``edge_probability`` is the probability of each ordered (or unordered,
    when ``directed=False``) node pair being connected; ``probability`` is the
    IC influence probability assigned to the created edges.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError(
            f"edge_probability must lie in [0, 1], got {edge_probability}"
        )
    rng = ensure_rng(seed)
    graph = _empty(n, f"erdos-renyi-{n}")
    if n < 2 or edge_probability == 0.0:
        return graph
    for u in range(n):
        start = 0 if directed else u + 1
        draws = rng.random(n - start) if not directed else rng.random(n)
        # Only iterate the hits — the dense per-pair Python loop made sparse
        # G(n, p) quadratic in n.  The draw layout (and hence the generated
        # graph for a fixed seed) is unchanged.
        for offset in np.flatnonzero(draws < edge_probability):
            v = start + int(offset)
            if v == u:
                continue
            graph.add_edge(u, v, probability=probability)
            if not directed:
                graph.add_edge(v, u, probability=probability)
    return graph


def random_kout_graph(
    n: int,
    out_degree: int,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Random ``k``-out graph: every node points at ``out_degree`` uniformly
    random other nodes.

    Runs in ``O(n * out_degree)`` — unlike :func:`erdos_renyi_graph`, which
    must consider every node pair — so it is the substrate of choice for
    large-scale benchmarks.  In-degrees are Binomial(``n * k / n``), i.e.
    tightly concentrated: no hubs.  Repeat draws for the same (u, v) pair
    are possible but rare (expected ``k^2 / 2n`` per node) and collapse to a
    single edge, so the realised mean out-degree can fall marginally below
    ``out_degree``.
    """
    if out_degree < 1:
        raise ConfigurationError(f"out_degree must be >= 1, got {out_degree}")
    if n <= out_degree:
        raise ConfigurationError(
            f"need n > out_degree, got n={n}, out_degree={out_degree}"
        )
    rng = ensure_rng(seed)
    graph = _empty(n, f"random-{out_degree}out-{n}")
    targets = rng.integers(0, n - 1, size=(n, out_degree))
    # Shift draws >= u up by one: a uniform pick over the n-1 non-self nodes.
    targets += targets >= np.arange(n, dtype=np.int64)[:, None]
    for u, row in enumerate(targets.tolist()):
        for v in row:
            graph.add_edge(u, v, probability=probability)
    return graph


def barabasi_albert_graph(
    n: int,
    attachment: int,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Preferential-attachment (scale-free) graph, bidirected.

    Each new node attaches to ``attachment`` existing nodes chosen
    proportionally to their current degree.  Scale-free degree distributions
    match the heavy-tailed shape of the citation and social graphs in the
    paper's Table 2.
    """
    if attachment < 1:
        raise ConfigurationError(f"attachment must be >= 1, got {attachment}")
    if n <= attachment:
        raise ConfigurationError(
            f"need n > attachment, got n={n}, attachment={attachment}"
        )
    rng = ensure_rng(seed)
    graph = _empty(n, f"barabasi-albert-{n}-{attachment}")
    # Start from a small clique over the first (attachment + 1) nodes.
    repeated_targets: list[int] = []
    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            graph.add_edge(u, v, probability=probability)
            graph.add_edge(v, u, probability=probability)
            repeated_targets.extend((u, v))
    for new_node in range(attachment + 1, n):
        # Record picks in draw order: iterating a set here would make edge
        # insertion (and with it every later preferential draw) depend on
        # hash-table layout instead of the seeded RNG alone.
        chosen: list[int] = []
        chosen_seen: set[int] = set()
        while len(chosen) < attachment:
            pick = repeated_targets[int(rng.integers(0, len(repeated_targets)))]
            if pick not in chosen_seen:
                chosen_seen.add(pick)
                chosen.append(pick)
        for target in chosen:
            graph.add_edge(new_node, target, probability=probability)
            graph.add_edge(target, new_node, probability=probability)
            repeated_targets.extend((new_node, target))
    return graph


def watts_strogatz_graph(
    n: int,
    nearest_neighbors: int,
    rewire_probability: float,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Small-world ring lattice with random rewiring, bidirected."""
    if nearest_neighbors % 2 or nearest_neighbors < 2:
        raise ConfigurationError(
            f"nearest_neighbors must be an even integer >= 2, got {nearest_neighbors}"
        )
    if nearest_neighbors >= n:
        raise ConfigurationError("nearest_neighbors must be smaller than n")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ConfigurationError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}"
        )
    rng = ensure_rng(seed)
    graph = _empty(n, f"watts-strogatz-{n}")
    half = nearest_neighbors // 2
    undirected_edges: set[tuple[int, int]] = set()
    for u in range(n):
        for offset in range(1, half + 1):
            v = (u + offset) % n
            undirected_edges.add((min(u, v), max(u, v)))
    rewired: set[tuple[int, int]] = set()
    for u, v in sorted(undirected_edges):
        if rng.random() < rewire_probability:
            # Rewire the far endpoint to a uniformly random non-neighbour.
            for _ in range(8):  # bounded retries keep the generator total
                w = int(rng.integers(0, n))
                candidate = (min(u, w), max(u, w))
                if w != u and candidate not in undirected_edges and candidate not in rewired:
                    rewired.add(candidate)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    for u, v in sorted(rewired):
        graph.add_edge(u, v, probability=probability)
        graph.add_edge(v, u, probability=probability)
    return graph


def powerlaw_cluster_graph(
    n: int,
    attachment: int,
    triangle_probability: float,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Holme–Kim power-law graph with tunable clustering, bidirected.

    Like Barabási–Albert, but after each preferential attachment a triangle is
    closed with probability ``triangle_probability``.  The extra clustering
    better matches collaboration networks such as NetHEPT/HepPh/DBLP.
    """
    sources, targets = powerlaw_cluster_edges(n, attachment, triangle_probability, seed)
    return DiGraph.from_edge_arrays(
        n, sources, targets, probability, name=f"powerlaw-cluster-{n}-{attachment}"
    )


def powerlaw_cluster_edges(
    n: int, attachment: int, triangle_probability: float, seed: RandomState = None
) -> tuple[list[int], list[int]]:
    """The edges of :func:`powerlaw_cluster_graph`, as ``(sources, targets)``
    lists in insertion order."""
    if not 0.0 <= triangle_probability <= 1.0:
        raise ConfigurationError(
            f"triangle_probability must lie in [0, 1], got {triangle_probability}"
        )
    if attachment < 1 or n <= attachment:
        raise ConfigurationError(
            f"need 1 <= attachment < n, got attachment={attachment}, n={n}"
        )
    rng = ensure_rng(seed)
    successors: list[list[int]] = [[] for _ in range(n)]
    sources: list[int] = []
    targets: list[int] = []

    def link(u: int, v: int) -> None:
        successors[u].append(v)
        successors[v].append(u)
        sources.extend((u, v))
        targets.extend((v, u))

    repeated_targets: list[int] = list(range(attachment))
    for u in range(attachment):
        for v in range(u + 1, attachment):
            link(u, v)
    for new_node in range(attachment, n):
        # Draw-order list, set for membership only — see barabasi_albert.
        picks: list[int] = []
        picks_seen: set[int] = set()
        last_pick: Optional[int] = None
        while len(picks) < attachment:
            close_triangle = (
                last_pick is not None
                and rng.random() < triangle_probability
                and successors[last_pick]
            )
            if close_triangle:
                neighbors = successors[last_pick]
                pick = neighbors[int(rng.integers(0, len(neighbors)))]
            else:
                pick = repeated_targets[int(rng.integers(0, len(repeated_targets)))]
            if pick != new_node and pick not in picks_seen:
                picks_seen.add(pick)
                picks.append(pick)
                last_pick = pick
        for target in picks:
            link(new_node, target)
            repeated_targets.extend((new_node, target))
    return sources, targets


def forest_fire_graph(
    n: int,
    forward_probability: float = 0.35,
    backward_probability: float = 0.2,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Leskovec's forest-fire model — directed, densifying, small diameter.

    Used for the synthetic stand-ins of the large directed graphs (socLive,
    Twitter) because it produces shrinking-diameter, heavy-tailed directed
    topologies.
    """
    sources, targets = forest_fire_edges(n, forward_probability, backward_probability, seed)
    return DiGraph.from_edge_arrays(n, sources, targets, probability, name=f"forest-fire-{n}")


def forest_fire_edges(
    n: int,
    forward_probability: float = 0.35,
    backward_probability: float = 0.2,
    seed: RandomState = None,
) -> tuple[list[int], list[int]]:
    """The edges of :func:`forest_fire_graph`, as ``(sources, targets)`` lists
    in insertion order."""
    for name, value in (("forward_probability", forward_probability),
                        ("backward_probability", backward_probability)):
        if not 0.0 <= value < 1.0:
            raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
    if n < 0:
        raise ConfigurationError(f"number of nodes must be >= 0, got {n}")
    rng = ensure_rng(seed)
    successors: list[list[int]] = [[] for _ in range(n)]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    sources: list[int] = []
    targets: list[int] = []
    for new_node in range(1, n):
        ambassador = int(rng.integers(0, new_node))
        visited: set[int] = {new_node}
        frontier = [ambassador]
        while frontier:
            current = frontier.pop()
            if current in visited:
                continue
            visited.add(current)
            successors[new_node].append(current)
            predecessors[current].append(new_node)
            sources.append(new_node)
            targets.append(current)
            # Geometric number of forward / backward links to spread to.
            out_links = [v for v in successors[current] if v not in visited]
            in_links = [v for v in predecessors[current] if v not in visited]
            n_forward = _geometric(rng, forward_probability)
            n_backward = _geometric(rng, backward_probability)
            rng.shuffle(out_links)
            rng.shuffle(in_links)
            frontier.extend(out_links[:n_forward])
            frontier.extend(in_links[:n_backward])
    return sources, targets


def stochastic_block_graph(
    block_sizes: list[int],
    within_probability: float,
    between_probability: float,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Directed stochastic block model with dense blocks and sparse cross edges."""
    for name, value in (("within_probability", within_probability),
                        ("between_probability", between_probability)):
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    rng = ensure_rng(seed)
    n = sum(block_sizes)
    graph = _empty(n, f"sbm-{len(block_sizes)}x")
    block_of = np.zeros(n, dtype=np.int64)
    start = 0
    for block, size in enumerate(block_sizes):
        block_of[start:start + size] = block
        start += size
    for u in range(n):
        draws = rng.random(n)
        for v in range(n):
            if u == v:
                continue
            threshold = (
                within_probability if block_of[u] == block_of[v] else between_probability
            )
            if draws[v] < threshold:
                graph.add_edge(u, v, probability=probability)
    return graph


# --------------------------------------------------------------------------
# structures used by the theoretical analysis and tests


def random_tree(
    n: int,
    seed: RandomState = None,
    max_children: int = 4,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
    random_probabilities: bool = False,
) -> DiGraph:
    """Random rooted out-tree on ``n`` nodes (root is node 0).

    Trees are the structures on which the EaSyIM score assignment is exact
    (Conclusion 2 in the paper), so they anchor correctness tests.
    """
    if max_children < 1:
        raise ConfigurationError(f"max_children must be >= 1, got {max_children}")
    rng = ensure_rng(seed)
    graph = _empty(n, f"random-tree-{n}")
    children_count = {0: 0}
    available = [0]
    for node in range(1, n):
        parent_pos = int(rng.integers(0, len(available)))
        parent = available[parent_pos]
        p = float(rng.uniform(0.05, 0.9)) if random_probabilities else probability
        graph.add_edge(parent, node, probability=p)
        children_count[parent] += 1
        if children_count[parent] >= max_children:
            available.pop(parent_pos)
        children_count[node] = 0
        available.append(node)
    return graph


def random_dag(
    n: int,
    edge_probability: float,
    seed: RandomState = None,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
    random_probabilities: bool = False,
) -> DiGraph:
    """Random DAG: nodes are topologically ordered ``0..n-1``, edges go forward."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError(
            f"edge_probability must lie in [0, 1], got {edge_probability}"
        )
    rng = ensure_rng(seed)
    graph = _empty(n, f"random-dag-{n}")
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                p = float(rng.uniform(0.05, 0.9)) if random_probabilities else probability
                graph.add_edge(u, v, probability=p)
    return graph


def _geometric(rng: np.random.Generator, p: float) -> int:
    """Number of successes before failure for a burn probability ``p``."""
    if p <= 0.0:
        return 0
    # Mean p / (1 - p), matching the forest-fire formulation.
    return int(rng.geometric(1.0 - p)) - 1
