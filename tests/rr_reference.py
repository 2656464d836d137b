"""Scalar reference RR-set samplers, one set at a time.

The library samples RR sets only through the vectorized
:class:`repro.sketches.BatchRRSampler`; these Python frontier loops are the
textbook definitions it is checked against.  They draw from a ``numpy``
generator, not the sampler's counter-based stream, so comparisons with the
batch sampler are statistical.
"""

from __future__ import annotations

import numpy as np


def sample_rr_set(graph, probabilities, root, rng, model="ic"):
    """One RR set rooted at ``root``; returns ``(members, edges_examined)``.

    IC/WC: reverse BFS that keeps each in-edge with its probability.  LT:
    the live-edge walk, see :func:`sample_rr_set_lt`.
    """
    if model == "lt":
        return sample_rr_set_lt(graph, probabilities, root, rng)
    members = [root]
    member_set = {root}
    frontier = [root]
    edges_examined = 0
    while frontier:
        next_frontier: list[int] = []
        for node in frontier:
            start, end = graph.in_indptr[node], graph.in_indptr[node + 1]
            count = end - start
            if count == 0:
                continue
            edges_examined += int(count)
            draws = rng.random(count)
            hits = np.flatnonzero(draws < probabilities[start:end])
            for offset in hits:
                source = int(graph.in_indices[start + offset])
                if source not in member_set:
                    member_set.add(source)
                    members.append(source)
                    next_frontier.append(source)
        frontier = next_frontier
    return members, edges_examined


def sample_rr_set_lt(graph, probabilities, root, rng):
    """LT RR set: walk a single live in-edge per node (live-edge model)."""
    members = [root]
    member_set = {root}
    current = root
    edges_examined = 0
    while True:
        start, end = graph.in_indptr[current], graph.in_indptr[current + 1]
        if start == end:
            break
        local = probabilities[start:end]
        total = float(local.sum())
        edges_examined += int(end - start)
        draw = rng.random()
        if draw >= total:
            break
        cumulative = np.cumsum(local)
        position = int(np.searchsorted(cumulative, draw, side="right"))
        source = int(graph.in_indices[start + position])
        if source in member_set:
            break
        member_set.add(source)
        members.append(source)
        current = source
    return members, edges_examined
