"""Vectorized batch cascade kernels: the one cascade implementation of every model.

Every kernel advances ``count`` independent cascades simultaneously: the
activation state is a ``(count, n)`` boolean matrix, the frontier is a pair of
flat ``(cascade, node)`` index arrays, and each synchronous diffusion round
expands *every* cascade's frontier in one CSR pass — ``np.repeat`` over the
``indptr`` degree slices plus a single ``rng.random`` draw covering all
frontier edges of the round.  No per-node or per-cascade Python loop survives
on the hot path.  Every kernel returns a
:class:`~repro.diffusion.base.BatchOutcome`: the activation matrix plus a log
of the non-seed activations and their final opinions.

Two frontier cores cover the whole model zoo:

* :func:`run_ic_batch` — the IC family (IC, WC, OI-IC/OI-WC, IC-N): each
  frontier node gets one independent activation attempt per out-edge.  A
  cascade typically reaches a few percent of the graph, so the kernel works
  in proportion to edge draws and activations: it compares the round's
  draws against the edge probabilities first and resolves cascade, target
  and activation state for the hits only; each frontier entry carries its
  final opinion, so no ``(count, n)`` opinion matrix is kept.  Per-edge
  probabilities need every draw's CSR edge position for the gather; when
  every edge has the same probability (:func:`ic_edge_probability` passes
  the graph's cached scalar), only the hits get a position.
* :func:`run_lt_batch` — the LT family (LT, OC, OI-LT): frontier nodes push
  their edge weight onto inactive out-neighbours, which activate once the
  accumulated weight reaches their (per-cascade) random threshold.

Opinion formation is layered onto both cores through a small ``opinion``
mode switch, mirroring how the paper layers the OI opinion dynamics on an IC
or LT activation layer (Sec. 2.2).  :func:`run_live_edge_batch` additionally
vectorises the live-edge formulation of LT (one in-edge sampled per node).

Every kernel writes its activation log in activation order: round by
round, and within a round in the order the kernel resolves its winners.
:meth:`~repro.diffusion.base.BatchOutcome.outcome` reads that order back,
which is how :meth:`~repro.diffusion.base.DiffusionModel.simulate` (a batch
of one) reports ``activated``.

Tie-breaking: when several frontier nodes successfully reach the same
inactive target in the same round, the *first* successful attempt in
frontier order wins (a sort-free scatter dedup, :func:`_dedup_first`).  The
IC frontier is kept in hit order — seeds in seed order, then each round's
winners in the order they won — so a cascade contests targets exactly as a
FIFO queue of activations would.  The LT-family opinion layers average
in-neighbour opinions against the *pre-round* active set (strict
synchronous semantics).  Edge weights come from
:meth:`~repro.graphs.digraph.CompiledGraph.resolved_edge_probabilities`, the
one place that decides IC, WC and LT weighting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion.base import BatchOutcome, validate_seed_indices
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph

_EMPTY = np.empty(0, dtype=np.int64)


def draw_threshold_matrix(
    graph: CompiledGraph, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``(count, n)`` thresholds: annotated values where present, uniform otherwise."""
    thresholds = rng.random((count, graph.number_of_nodes))
    annotated = ~np.isnan(graph.thresholds)
    if annotated.any():
        thresholds[:, annotated] = graph.thresholds[annotated]
    return thresholds


def _expand_csr(
    indptr: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the CSR slices of ``nodes`` into one edge-position array.

    Returns ``(positions, owner)`` where ``positions`` indexes the global
    edge arrays and ``owner[j]`` is the index into ``nodes`` whose slice edge
    ``j`` came from.  This is the ``np.repeat``-over-``indptr`` trick that
    replaces the per-node neighbour loop.
    """
    degrees = indptr[nodes + 1] - indptr[nodes]
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    owner = np.repeat(np.arange(nodes.size), degrees)
    slice_starts = np.cumsum(degrees) - degrees
    within = np.arange(total) - slice_starts[owner]
    positions = indptr[nodes][owner] + within
    return positions, owner


def _validate_count(count: int) -> int:
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    return int(count)


def _seed_frontier(
    seed_array: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Initial ``(cascade, node)`` frontier pairs: every seed in every cascade."""
    cascades = np.repeat(np.arange(count, dtype=np.int64), seed_array.size)
    nodes = np.tile(seed_array, count)
    return cascades, nodes


def _dedup_first(keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Indices of the *first* occurrence of each distinct value of ``keys``.

    Sort-free alternative to ``np.unique(keys, return_index=True)`` for the
    per-round winner selection: scatter each element's position into
    ``scratch`` in reverse (numpy keeps the last write for duplicate
    indices, so the reversed scatter leaves the first occurrence) and keep
    the elements that read their own position back.  First-wins is the
    cascades' tie-break rule (see the module docstring).  ``scratch`` is a reusable
    ``(count * n,)`` int array; it never needs resetting because every entry
    read was just written by this call.
    """
    order = np.arange(keys.size, dtype=scratch.dtype)
    scratch[keys[::-1]] = order[::-1]
    return np.flatnonzero(scratch[keys] == order)


def _batch_outcome(
    seeds: tuple[int, ...],
    active: np.ndarray,
    rounds: np.ndarray,
    seed_opinions: np.ndarray,
    log: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> BatchOutcome:
    """Assemble a :class:`BatchOutcome` from per-round winner arrays.

    ``log`` holds one ``(cascades, nodes, opinions)`` triple per round.
    """
    if log:
        cascades, nodes, opinions = (np.concatenate(column) for column in zip(*log))
    else:
        cascades, nodes = _EMPTY, _EMPTY
        opinions = np.empty(0, dtype=np.float64)
    return BatchOutcome(
        seeds=seeds,
        active=active,
        rounds=rounds,
        seed_opinions=seed_opinions,
        log_cascades=cascades,
        log_nodes=nodes,
        log_opinions=opinions,
    )


def _count_rounds(rounds: np.ndarray, frontier_cascades: np.ndarray) -> None:
    """Increment the round counter of every cascade with a non-empty frontier."""
    alive = np.zeros(rounds.size, dtype=bool)
    alive[frontier_cascades] = True
    rounds += alive


# ---------------------------------------------------------------- IC family


def ic_edge_probability(
    graph: CompiledGraph, weighting: str
) -> Union[float, np.ndarray]:
    """The ``edge_probability`` argument of :func:`run_ic_batch` for ``weighting``.

    The graph's cached uniform value when every resolved edge probability
    is the same (the default IC ``p``), else the per-edge array.
    """
    uniform = graph.uniform_edge_probability(weighting)
    if uniform is None:
        return graph.resolved_edge_probabilities(weighting)
    return uniform


def run_ic_batch(
    graph: CompiledGraph,
    seeds: Sequence[int],
    rng: np.random.Generator,
    count: int,
    edge_probability: Union[float, np.ndarray],
    opinion: str = "initial",
    quality_factor: Optional[float] = None,
) -> BatchOutcome:
    """Batch kernel for IC-style diffusion (independent per-edge attempts).

    Parameters
    ----------
    edge_probability:
        ``(m,)`` activation probabilities aligned with the out-CSR edge
        arrays (annotated IC probabilities, WC ``1/indeg``, ...), or one
        scalar shared by every edge (see :func:`ic_edge_probability`).
        Both forms consume the same draws and give the same outcome.
    opinion:
        ``"initial"`` — activated nodes keep their initial opinion (IC/WC);
        ``"interaction"`` — the OI mixing rule using the activating edge's
        interaction probability ``phi`` (Sec. 2.2);
        ``"polarity"`` — the IC-N ±1 polarity rule driven by
        ``quality_factor``.
    """
    count = _validate_count(count)
    validated = validate_seed_indices(graph, seeds)
    n = graph.number_of_nodes
    seed_array = np.asarray(validated, dtype=np.int64)
    uniform = float(edge_probability) if np.ndim(edge_probability) == 0 else None
    # Flat (count * n) state keyed by ``cascade * n + node`` — 1D fancy
    # indexing on precomputed keys is measurably cheaper than repeated 2D
    # index arithmetic on the hot path.
    active = np.zeros(count * n, dtype=bool)
    rounds = np.zeros(count, dtype=np.int64)
    scratch = np.empty(count * n, dtype=np.int32)
    indptr = graph.out_indptr

    # Each frontier entry carries its own final opinion, which is the source
    # opinion of every attempt it wins — no per-node opinion state needed.
    frontier_cas, frontier_node = _seed_frontier(seed_array, count)
    active[frontier_cas * n + frontier_node] = True
    if opinion == "polarity":
        positive = rng.random(frontier_cas.size) < quality_factor
        frontier_opinion = np.where(positive, 1.0, -1.0)
    else:
        frontier_opinion = graph.opinions[frontier_node]
    seed_opinions = frontier_opinion.reshape(count, seed_array.size)
    log = []

    while frontier_cas.size:
        _count_rounds(rounds, frontier_cas)

        # CSR expansion inlined (rather than via _expand_csr): the cascade,
        # target and key of an attempt are looked up for its hits alone,
        # whose frontier owner is found from the degree prefix sums.  Per-
        # edge probabilities need every attempt's edge position; a uniform
        # probability needs the positions of the hits only.
        starts = indptr[frontier_node]
        degrees = indptr[frontier_node + 1] - starts
        ends = np.cumsum(degrees)
        total = int(ends[-1])
        if total == 0:
            break
        # Attempt j of frontier entry i sits at CSR position j + shift[i].
        shift = starts - ends + degrees
        draws = rng.random(total)
        if uniform is None:
            positions = np.arange(total) + np.repeat(shift, degrees)
            hits = np.flatnonzero(draws < edge_probability[positions])
            owner = np.searchsorted(ends, hits, side="right")
            positions = positions[hits]
        else:
            hits = np.flatnonzero(draws < uniform)
            owner = np.searchsorted(ends, hits, side="right")
            positions = hits + shift[owner]
        targets = graph.out_indices[positions]
        keys = frontier_cas[owner] * n + targets
        # Keep only successful attempts on still-inactive targets.
        fresh = np.flatnonzero(~active[keys])
        if fresh.size == 0:
            break

        winners = fresh[_dedup_first(keys[fresh], scratch)]
        owner = owner[winners]
        win_tgt = targets[winners]
        active[keys[winners]] = True
        if opinion == "interaction":
            agrees = (
                rng.random(winners.size)
                < graph.out_interaction[positions[winners]]
            )
            source_opinion = frontier_opinion[owner]
            contribution = np.where(agrees, source_opinion, -source_opinion)
            win_opinion = (graph.opinions[win_tgt] + contribution) / 2.0
        elif opinion == "polarity":  # IC-N: negativity dominates, else quality
            positive = rng.random(winners.size) < quality_factor
            win_opinion = np.where(
                frontier_opinion[owner] < 0, -1.0, np.where(positive, 1.0, -1.0)
            )
        else:
            win_opinion = graph.opinions[win_tgt]

        frontier_cas = frontier_cas[owner]
        frontier_node = win_tgt
        frontier_opinion = win_opinion
        log.append((frontier_cas, frontier_node, frontier_opinion))

    return _batch_outcome(
        validated, active.reshape(count, n), rounds, seed_opinions, log
    )


# ---------------------------------------------------------------- LT family


def run_lt_batch(
    graph: CompiledGraph,
    seeds: Sequence[int],
    rng: np.random.Generator,
    count: int,
    opinion: str = "initial",
) -> BatchOutcome:
    """Batch kernel for LT-style diffusion (threshold accumulation).

    ``opinion`` selects the opinion layer: ``"initial"`` (plain LT),
    ``"mean"`` (OC — average the final opinions of active in-neighbours) or
    ``"interaction"`` (OI under the LT first layer — each active
    in-neighbour's contribution is sign-flipped with probability
    ``1 - phi``).
    """
    count = _validate_count(count)
    validated = validate_seed_indices(graph, seeds)
    n = graph.number_of_nodes
    seed_array = np.asarray(validated, dtype=np.int64)
    active = np.zeros((count, n), dtype=bool)
    opinions = np.zeros((count, n), dtype=np.float64)
    rounds = np.zeros(count, dtype=np.int64)
    accumulated = np.zeros((count, n), dtype=np.float64)
    thresholds = draw_threshold_matrix(graph, rng, count)
    weights = graph.resolved_edge_probabilities("lt")
    scratch = np.empty(count * n, dtype=np.int32)

    if seed_array.size:
        active[:, seed_array] = True
        opinions[:, seed_array] = graph.opinions[seed_array]
    log = []

    frontier_cas, frontier_node = _seed_frontier(seed_array, count)
    while frontier_cas.size:
        _count_rounds(rounds, frontier_cas)
        positions, owner = _expand_csr(graph.out_indptr, frontier_node)
        if positions.size == 0:
            break
        cascades = frontier_cas[owner]
        targets = graph.out_indices[positions]
        keep = ~active[cascades, targets]
        cascades = cascades[keep]
        targets = targets[keep]
        positions = positions[keep]
        if cascades.size == 0:
            break

        # Segment-sum the pushed weights per touched (cascade, target) pair:
        # dedup the flat keys without sorting, compress every attempt onto its
        # representative with a searchsorted, and bincount the weights — much
        # faster than an unbuffered ``np.add.at`` scatter-add.
        keys = cascades * n + targets
        representatives = _dedup_first(keys, scratch)
        compact = np.searchsorted(representatives, scratch[keys])
        pushed = np.bincount(
            compact, weights=weights[positions], minlength=representatives.size
        )
        touch_cas = cascades[representatives]
        touch_tgt = targets[representatives]
        accumulated[touch_cas, touch_tgt] += pushed

        ready = accumulated[touch_cas, touch_tgt] >= thresholds[touch_cas, touch_tgt]
        win_cas = touch_cas[ready]
        win_tgt = touch_tgt[ready]
        if win_cas.size == 0:
            frontier_cas, frontier_node = _EMPTY, _EMPTY
            continue

        if opinion == "initial":
            win_opinion = graph.opinions[win_tgt]
        else:
            neighbour_term = _active_in_neighbour_mean(
                graph, active, opinions, win_cas, win_tgt, rng,
                signed=(opinion == "interaction"),
            )
            win_opinion = (graph.opinions[win_tgt] + neighbour_term) / 2.0
        opinions[win_cas, win_tgt] = win_opinion
        active[win_cas, win_tgt] = True
        log.append((win_cas, win_tgt, win_opinion))
        frontier_cas, frontier_node = win_cas, win_tgt

    return _batch_outcome(
        validated, active, rounds, opinions[:, seed_array], log
    )


def _active_in_neighbour_mean(
    graph: CompiledGraph,
    active: np.ndarray,
    opinions: np.ndarray,
    win_cas: np.ndarray,
    win_tgt: np.ndarray,
    rng: np.random.Generator,
    signed: bool,
) -> np.ndarray:
    """Mean (optionally sign-flipped) opinion of active in-neighbours.

    For every newly activated ``(cascade, target)`` pair, averages the final
    opinions of the target's in-neighbours that are already active in that
    cascade; with ``signed=True`` each contribution is negated with
    probability ``1 - phi_(u,v)`` (the OI disagreement draw).
    """
    positions, owner = _expand_csr(graph.in_indptr, win_tgt)
    if positions.size == 0:
        return np.zeros(win_cas.size, dtype=np.float64)
    sources = graph.in_indices[positions]
    cascades = win_cas[owner]
    is_active = active[cascades, sources]
    owner = owner[is_active]
    contributions = opinions[cascades[is_active], sources[is_active]]
    if signed:
        agrees = rng.random(owner.size) < graph.in_interaction[positions[is_active]]
        contributions = np.where(agrees, contributions, -contributions)
    sums = np.bincount(owner, weights=contributions, minlength=win_cas.size)
    counts = np.bincount(owner, minlength=win_cas.size)
    return sums / np.maximum(counts, 1.0)


# ---------------------------------------------------------------- live edge


def run_live_edge_batch(
    graph: CompiledGraph,
    seeds: Sequence[int],
    rng: np.random.Generator,
    count: int,
) -> BatchOutcome:
    """Batch kernel for the live-edge formulation of LT.

    Samples every cascade's live in-edge choices in one vectorized pass (a
    single uniform draw per ``(cascade, node)`` resolved against the global
    per-segment cumulative-weight array), then propagates reachability with
    whole-matrix gather steps.
    """
    count = _validate_count(count)
    validated = validate_seed_indices(graph, seeds)
    n = graph.number_of_nodes
    seed_array = np.asarray(validated, dtype=np.int64)
    active = np.zeros((count, n), dtype=bool)
    rounds = np.zeros(count, dtype=np.int64)
    if seed_array.size:
        active[:, seed_array] = True

    parents = _sample_live_parent_matrix(graph, rng, count)

    has_parent = parents >= 0
    safe_parent = np.where(has_parent, parents, 0)
    row = np.arange(count)[:, None]
    frontier_alive = np.ones(count, dtype=bool) if seed_array.size else np.zeros(
        count, dtype=bool
    )
    log = []
    while frontier_alive.any():
        rounds[frontier_alive] += 1
        newly = has_parent & active[row, safe_parent] & ~active
        active |= newly
        frontier_alive &= newly.any(axis=1)
        cascades, nodes = np.nonzero(newly)
        log.append((cascades, nodes, graph.opinions[nodes]))

    seed_opinions = np.tile(graph.opinions[seed_array], (count, 1))
    return _batch_outcome(validated, active, rounds, seed_opinions, log)


def _sample_live_parent_matrix(
    graph: CompiledGraph, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``(count, n)`` live parent of every node per cascade (``-1`` = none)."""
    n = graph.number_of_nodes
    parents = np.full((count, n), -1, dtype=np.int64)
    in_degrees = np.diff(graph.in_indptr)
    candidates = np.flatnonzero(in_degrees > 0)
    if candidates.size == 0:
        return parents

    # The LT weights, moved from out-CSR order into in-CSR order.
    weights = np.empty(graph.number_of_edges, dtype=np.float64)
    weights[graph.out_to_in_position] = graph.resolved_edge_probabilities("lt")
    cumulative = np.cumsum(weights)
    # Only nodes with in-edges have a first in-edge; a trailing source's
    # slice start is one past the last edge.
    prefix = np.zeros(n, dtype=np.float64)
    starts = graph.in_indptr[candidates]
    prefix[candidates] = cumulative[starts] - weights[starts]
    within = cumulative - np.repeat(prefix, in_degrees)
    totals = np.zeros(n, dtype=np.float64)
    totals[candidates] = within[graph.in_indptr[1:][candidates] - 1]

    # Shift each node's in-segment of the cumulative array into its own
    # disjoint value band so one global searchsorted resolves every draw.
    band = float(max(2.0, np.ceil(within.max()) + 1.0)) if within.size else 2.0
    segment_of_edge = np.repeat(np.arange(n), in_degrees)
    shifted = within + band * segment_of_edge

    draws = rng.random((count, candidates.size))
    has_live = draws < totals[candidates][None, :]
    cas_idx, cand_idx = np.nonzero(has_live)
    if cas_idx.size:
        nodes = candidates[cand_idx]
        queries = draws[cas_idx, cand_idx] + band * nodes
        edge_positions = np.searchsorted(shifted, queries, side="right")
        parents[cas_idx, nodes] = graph.in_indices[edge_positions]
    return parents
