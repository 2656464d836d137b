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

Each family grows plain ``(source, target)`` edge lists in generation order
and returns them as an array-backed :class:`~repro.graphs.digraph.DiGraph`,
so no edge-by-edge adjacency map is built before the graph is compiled.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import DEFAULT_INFLUENCE_PROBABILITY, DiGraph
from repro.graphs.generators import forest_fire_edges, powerlaw_cluster_edges
from repro.utils.rng import RandomState, ensure_rng


def _attachment_for_degree(target_avg_degree: float) -> int:
    """Attachment parameter giving roughly the target average (directed) degree.

    A bidirected Holme–Kim graph with attachment ``a`` has about ``2 a n``
    directed edges, i.e. average directed out-degree ``≈ a``... but the paper
    reports average degree as ``m / n`` over directed edge count, so we match
    ``a ≈ target / 2`` and densify the remainder with random extra edges.
    """
    return max(1, int(round(target_avg_degree / 2.0)))


class _BidirectedEdges:
    """The growing edge lists of a bidirected stand-in on nodes ``0..n-1``.

    ``keys`` holds ``source * n + target`` of every edge, so membership is
    one set lookup.
    """

    def __init__(self, n: int, sources: list[int], targets: list[int]) -> None:
        self.n = n
        self.sources = sources
        self.targets = targets
        self.keys = {s * n + t for s, t in zip(sources, targets)}

    def link(self, u: int, v: int) -> None:
        """Add ``u -> v`` and ``v -> u`` unless ``u == v`` or the edge exists."""
        if u != v and u * self.n + v not in self.keys:
            self.keys.update((u * self.n + v, v * self.n + u))
            self.sources.extend((u, v))
            self.targets.extend((v, u))

    def graph(self, probability: float) -> DiGraph:
        return DiGraph.from_edge_arrays(self.n, self.sources, self.targets, probability)


def _densify(
    edges: _BidirectedEdges, target_avg_degree: float, rng: np.random.Generator
) -> None:
    """Add random bidirected edges until the average degree reaches the target."""
    n = edges.n
    target_edges = int(target_avg_degree * n)
    attempts = 0
    max_attempts = 20 * max(target_edges, 1)
    while len(edges.sources) < target_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        edges.link(u, v)


def make_citation_like_graph(
    nodes: int,
    target_avg_degree: float,
    seed: RandomState,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Collaboration-network stand-in (NetHEPT / HepPh / DBLP)."""
    rng = ensure_rng(seed)
    attachment = _attachment_for_degree(target_avg_degree)
    edges = _BidirectedEdges(
        nodes, *powerlaw_cluster_edges(nodes, attachment, triangle_probability=0.6, seed=rng)
    )
    _densify(edges, target_avg_degree, rng)
    return edges.graph(probability)


def make_community_social_graph(
    nodes: int,
    target_avg_degree: float,
    seed: RandomState,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Community-structured social-network stand-in (YouTube / Orkut / Friendster)."""
    rng = ensure_rng(seed)
    attachment = _attachment_for_degree(target_avg_degree * 0.8)
    edges = _BidirectedEdges(
        nodes, *powerlaw_cluster_edges(nodes, attachment, triangle_probability=0.3, seed=rng)
    )
    # Community overlay: partition nodes into sqrt(n)-sized groups and add a few
    # intra-community edges, which raises clustering and keeps diameter small.
    community_size = max(4, int(np.sqrt(nodes)))
    nodes_list = list(range(nodes))
    rng.shuffle(nodes_list)
    for start in range(0, nodes, community_size):
        community = nodes_list[start:start + community_size]
        extra = max(1, len(community) // 2)
        for _ in range(extra):
            u = community[int(rng.integers(0, len(community)))]
            v = community[int(rng.integers(0, len(community)))]
            edges.link(u, v)
    _densify(edges, target_avg_degree, rng)
    return edges.graph(probability)


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in ``sorted_keys``: one binary search each."""
    positions = np.searchsorted(sorted_keys, keys)
    found = positions < sorted_keys.size
    found[found] = sorted_keys[positions[found]] == keys[found]
    return found


def make_directed_social_graph(
    nodes: int,
    target_avg_degree: float,
    seed: RandomState,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
) -> DiGraph:
    """Directed follower-network stand-in (socLiveJournal / Twitter)."""
    rng = ensure_rng(seed)
    n = nodes
    fire_sources, fire_targets = forest_fire_edges(
        n, forward_probability=0.3, backward_probability=0.2, seed=rng
    )
    sources = np.array(fire_sources, dtype=np.int64)
    targets = np.array(fire_targets, dtype=np.int64)
    # Forest fire alone is sparse; add preferential random directed edges up to
    # the target density.  Targets are sampled in batches proportionally to
    # their current in-degree, which preserves the heavy-tailed in-degree
    # distribution of follower networks while keeping generation fast.
    target_edges = int(target_avg_degree * n)
    in_degree_weight = np.bincount(targets, minlength=n) + 1.0
    keys = np.sort(sources * n + targets)
    added_sources, added_targets = [sources], [targets]
    edge_count = sources.size
    max_batches = 200
    batch_size = max(256, target_edges // 50)
    for _ in range(max_batches):
        if edge_count >= target_edges:
            break
        probabilities = in_degree_weight / in_degree_weight.sum()
        source_positions = rng.integers(0, n, size=batch_size)
        target_positions = rng.choice(n, size=batch_size, p=probabilities)
        # A drawn pair is accepted when it is not a self-loop, not already an
        # edge, and the first draw of its pair in this batch; the first
        # accepted pairs up to the edge target are added, in draw order.
        drawn = source_positions * n + target_positions
        _, first = np.unique(drawn, return_index=True)
        first.sort()
        fresh = (source_positions[first] != target_positions[first]) & ~_contains(
            keys, drawn[first]
        )
        accepted = first[fresh][:target_edges - edge_count]
        added_sources.append(source_positions[accepted])
        added_targets.append(target_positions[accepted])
        edge_count += accepted.size
        new_keys = np.sort(drawn[accepted])
        keys = np.insert(keys, np.searchsorted(keys, new_keys), new_keys)
        np.add.at(in_degree_weight, target_positions[accepted], 1.0)
    return DiGraph.from_edge_arrays(
        n, np.concatenate(added_sources), np.concatenate(added_targets), probability
    )
