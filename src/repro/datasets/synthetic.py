"""Graph-family builders backing the synthetic dataset registry.

Three families cover the qualitative shapes of the paper's Table 2 graphs:

* *citation-like* (NetHEPT, HepPh, DBLP) — undirected collaboration networks
  with heavy-tailed degrees and high clustering → Holme–Kim power-law cluster
  generator, bidirected.
* *community social* (YouTube, Orkut, Friendster) — undirected social networks
  with community structure → power-law cluster core plus stochastic-block
  style cross-community edges.
* *directed social* (socLiveJournal, Twitter) — directed follower networks
  with shrinking diameter → forest-fire generator densified to the target
  average degree.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import DEFAULT_INFLUENCE_PROBABILITY, DiGraph
from repro.graphs.generators import (
    forest_fire_graph,
    powerlaw_cluster_graph,
)
from repro.utils.rng import RandomState, ensure_rng


def _attachment_for_degree(target_avg_degree: float) -> int:
    """Attachment parameter giving roughly the target average (directed) degree.

    A bidirected Holme–Kim graph with attachment ``a`` has about ``2 a n``
    directed edges, i.e. average directed out-degree ``≈ a``... but the paper
    reports average degree as ``m / n`` over directed edge count, so we match
    ``a ≈ target / 2`` and densify the remainder with random extra edges.
    """
    return max(1, int(round(target_avg_degree / 2.0)))


def _densify(
    graph: DiGraph, target_avg_degree: float, rng: np.random.Generator, probability: float
) -> None:
    """Add random bidirected edges until the average degree reaches the target."""
    n = graph.number_of_nodes
    target_edges = int(target_avg_degree * n)
    nodes = list(graph.nodes())
    attempts = 0
    max_attempts = 20 * max(target_edges, 1)
    while graph.number_of_edges < target_edges and attempts < max_attempts:
        attempts += 1
        u = nodes[int(rng.integers(0, n))]
        v = nodes[int(rng.integers(0, n))]
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v, probability=probability)
        graph.add_edge(v, u, probability=probability)


def make_citation_like_graph(
    nodes: int,
    target_avg_degree: float,
    seed: RandomState,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Collaboration-network stand-in (NetHEPT / HepPh / DBLP)."""
    rng = ensure_rng(seed)
    attachment = _attachment_for_degree(target_avg_degree)
    graph = powerlaw_cluster_graph(
        nodes, attachment=attachment, triangle_probability=0.6, seed=rng,
        probability=probability,
    )
    _densify(graph, target_avg_degree, rng, probability)
    return graph


def make_community_social_graph(
    nodes: int,
    target_avg_degree: float,
    seed: RandomState,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Community-structured social-network stand-in (YouTube / Orkut / Friendster)."""
    rng = ensure_rng(seed)
    attachment = _attachment_for_degree(target_avg_degree * 0.8)
    graph = powerlaw_cluster_graph(
        nodes, attachment=attachment, triangle_probability=0.3, seed=rng,
        probability=probability,
    )
    # Community overlay: partition nodes into sqrt(n)-sized groups and add a few
    # intra-community edges, which raises clustering and keeps diameter small.
    n = graph.number_of_nodes
    community_size = max(4, int(np.sqrt(n)))
    nodes_list = list(graph.nodes())
    rng.shuffle(nodes_list)
    for start in range(0, n, community_size):
        community = nodes_list[start:start + community_size]
        extra = max(1, len(community) // 2)
        for _ in range(extra):
            u = community[int(rng.integers(0, len(community)))]
            v = community[int(rng.integers(0, len(community)))]
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, probability=probability)
                graph.add_edge(v, u, probability=probability)
    _densify(graph, target_avg_degree, rng, probability)
    return graph


def make_directed_social_graph(
    nodes: int,
    target_avg_degree: float,
    seed: RandomState,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Directed follower-network stand-in (socLiveJournal / Twitter)."""
    rng = ensure_rng(seed)
    graph = forest_fire_graph(
        nodes, forward_probability=0.3, backward_probability=0.2, seed=rng,
        probability=probability,
    )
    # Forest fire alone is sparse; add preferential random directed edges up to
    # the target density.  Targets are sampled in batches proportionally to
    # their current in-degree, which preserves the heavy-tailed in-degree
    # distribution of follower networks while keeping generation fast.
    n = graph.number_of_nodes
    target_edges = int(target_avg_degree * n)
    nodes_list = list(graph.nodes())
    in_degree_weight = np.array(
        [graph.in_degree(v) + 1.0 for v in nodes_list], dtype=np.float64
    )
    max_batches = 200
    batch_size = max(256, target_edges // 50)
    for _ in range(max_batches):
        if graph.number_of_edges >= target_edges:
            break
        probabilities = in_degree_weight / in_degree_weight.sum()
        source_positions = rng.integers(0, n, size=batch_size)
        target_positions = rng.choice(n, size=batch_size, p=probabilities)
        # A drawn pair is accepted when it is not a self-loop, not already an
        # edge, and the first draw of its pair in this batch; the first
        # accepted pairs up to the edge target are added, in draw order.
        _, first = np.unique(source_positions * n + target_positions, return_index=True)
        first.sort()
        drawn = zip(source_positions[first].tolist(), target_positions[first].tolist())
        accepted = [
            (s, t) for s, t in drawn
            if s != t and not graph.has_edge(nodes_list[s], nodes_list[t])
        ][:target_edges - graph.number_of_edges]
        graph.add_edges_from(
            ((nodes_list[s], nodes_list[t]) for s, t in accepted), probability=probability
        )
        np.add.at(in_degree_weight, np.array([t for _, t in accepted], dtype=np.int64), 1.0)
    return graph
