"""Batched reverse-reachable (RR) set sampling.

An RR set for a uniformly random root ``v`` is the set of nodes that reach
``v`` in a randomly sampled possible world.  The scalar samplers in
:mod:`repro.algorithms.tim` walk one RR set at a time with Python-level
frontier loops; :class:`BatchRRSampler` advances whole blocks of RR sets per
vectorized pass over the in-CSR arrays, in the same kernel style as the
forward cascade kernels of :mod:`repro.diffusion.batch`:

* **IC/WC** — a block of reverse BFS frontiers.  Each round flattens every
  frontier node's in-edge slice with the ``np.repeat``-over-``indptr`` trick,
  draws one uniform per edge, and admits successful, still-unvisited sources
  with a sort-free first-wins scatter dedup.
* **LT** — the live-edge single-in-edge walk.  Every active walk consumes one
  uniform per step; the live in-edge is resolved with a single global
  ``searchsorted`` against a band-shifted per-segment cumulative-weight
  array (the same trick as ``_sample_live_parent_matrix``).

**Block-size independence.**  The RIS selectors must return identical seed
sets for a fixed engine seed regardless of how the sampling work is chunked
into blocks.  Per-block draws from a shared ``numpy`` generator would break
that (splitting a block changes the stream layout), so the sampler consumes
exactly *one* 63-bit token per RR set from the engine generator — bounded
``Generator.integers`` fills are split-invariant, i.e. drawing ``(10, 10)``
tokens equals drawing ``(20,)`` — and derives everything else from the token
with a counter-based generator: the root is ``token % n`` and uniform number
``t`` of the set is a SplitMix64 hash of ``(token, t)``.  Each set's draw
counter advances only with its own edges, so the sampled worlds depend only
on the token sequence, never on which block a set landed in.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph
from repro.telemetry.registry import default_registry
from repro.telemetry.tracing import span

SUPPORTED_MODELS = ("ic", "wc", "lt")

_EMPTY = np.empty(0, dtype=np.int64)

# SplitMix64 constants (Steele, Lea and Flood 2014) — the standard 64-bit
# finalizer used as a counter-based generator over (stream, counter) pairs.
_MIX_STEP = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array.

    Mutates and returns ``x`` (callers pass a fresh temporary); the
    arithmetic wraps modulo 2**64 by design.
    """
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def _counter_hash(streams: np.ndarray, counters) -> np.ndarray:
    """53-bit hash values for per-set stream keys at per-set draw counters."""
    counters = np.atleast_1d(np.asarray(counters))
    if counters.dtype != np.uint64:
        # int64 counters are always non-negative here; reinterpret in place.
        counters = counters.view(np.uint64) if counters.dtype == np.int64 else (
            counters.astype(np.uint64)
        )
    mixed = _mix64(streams + counters * _MIX_STEP)
    mixed >>= np.uint64(11)
    return mixed


def _counter_uniforms(streams: np.ndarray, counters) -> np.ndarray:
    """Uniforms in [0, 1) for per-set stream keys at per-set draw counters."""
    return _counter_hash(streams, counters).astype(np.float64) * _INV_2_53


def _integer_thresholds(probabilities: np.ndarray) -> np.ndarray:
    """Per-edge 53-bit acceptance thresholds.

    For an integer hash ``h`` uniform on ``[0, 2**53)``, ``h < ceil(p * 2**53)``
    is exactly equivalent to ``h * 2**-53 < p`` (and ``p = 1`` always
    accepts), so the IC kernel can compare hashes directly and skip the
    float conversion of the uniform.
    """
    return np.ceil(probabilities * float(1 << 53)).astype(np.uint64)


def expand_csr_positions(indptr: np.ndarray, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Global positions of every CSR entry of ``nodes``, slices concatenated.

    Returns ``(positions, degrees)``; the ``np.repeat``-over-``indptr`` trick
    shared by the sampler's frontier expansion and the coverage decrement.
    """
    degrees = indptr[nodes + 1] - indptr[nodes]
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY, degrees
    positions = np.arange(total) + np.repeat(
        indptr[nodes] - np.cumsum(degrees) + degrees, degrees
    )
    return positions, degrees


def stable_argsort_bounded(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    numpy's stable sort is a linear-time radix sort only for integer types
    of at most 16 bits; wider keys get a merge sort.  Keys below ``2**16``
    are therefore sorted as ``uint16`` in one radix pass, keys below
    ``2**32`` in two stable 16-bit passes (least significant digit first),
    and anything wider falls back to the merge sort.  The permutation is
    identical to the plain stable argsort in every case.
    """
    keys = np.asarray(keys)
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
        high = (keys[order] >> 16).astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def _dedup_first(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct key.

    Sort-based rather than the scatter dedup of ``repro.diffusion.batch``:
    RR keys range over ``block * n``, and scattering into an array that size
    is TLB-bound, while the per-round key counts here are small enough that
    ``np.unique`` stays in cache.
    """
    return np.sort(np.unique(keys, return_index=True)[1])


def in_edge_probabilities(graph: CompiledGraph, model: str) -> np.ndarray:
    """In-edge aligned traversal probabilities for an RIS model.

    ``ic`` uses the annotated influence probabilities, ``lt`` the annotated
    LT weights when present; ``wc`` (and ``lt`` without annotations) fall
    back to ``1 / in_degree(target)``.
    """
    if model not in SUPPORTED_MODELS:
        raise ConfigurationError(
            f"model must be one of {SUPPORTED_MODELS}, got {model!r}"
        )
    if model == "ic":
        return graph.in_probability
    if model == "lt" and np.any(graph.in_weight > 0):
        return graph.in_weight
    in_degrees = np.diff(graph.in_indptr).astype(np.float64)
    safe = np.where(in_degrees > 0, in_degrees, 1.0)
    return np.repeat(1.0 / safe, np.diff(graph.in_indptr))


#: Per-worker-process sampler installed by :func:`sampler_worker_init`.
_WORKER_STATE: dict = {}


def sampler_worker_init(graph, model: str) -> None:
    """Build the worker-side sampler once per supervised worker process.

    ``graph`` is either a :class:`~repro.graphs.digraph.CompiledGraph` or a
    picklable handle exposing ``load_compiled()`` (the runtime's mmap-backed
    :class:`~repro.runtime.sharedgraph.SharedGraph`), so workers on spawn
    platforms map the CSR arrays instead of copying them.
    """
    loader = getattr(graph, "load_compiled", None)
    if loader is not None:
        graph = loader()
    _WORKER_STATE["sampler"] = BatchRRSampler(graph, model)


def sampler_worker_run(tokens: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worker-side block task: sample the RR sets of one token block."""
    return _WORKER_STATE["sampler"].sample_tokens(tokens)


class BatchRRSampler:
    """Draws blocks of RR sets on a compiled graph under ``ic``/``wc``/``lt``.

    Parameters
    ----------
    graph:
        The compiled graph whose in-CSR arrays are traversed.
    model:
        One of ``"ic"``, ``"wc"`` or ``"lt"``.
    probabilities:
        Optional in-edge aligned traversal probabilities; computed with
        :func:`in_edge_probabilities` when omitted.
    """

    def __init__(
        self,
        graph: CompiledGraph,
        model: str,
        probabilities: np.ndarray = None,
    ) -> None:
        if model not in SUPPORTED_MODELS:
            raise ConfigurationError(
                f"model must be one of {SUPPORTED_MODELS}, got {model!r}"
            )
        self.graph = graph
        self.model = model
        self.n = graph.number_of_nodes
        if probabilities is None:
            probabilities = in_edge_probabilities(graph, model)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        self._in_degrees = np.diff(graph.in_indptr)
        # Persistent visited buffer: allocated once for the largest block
        # seen and wiped incrementally (only the keys a block touched),
        # because re-allocating a ``block * n`` array per block costs more
        # in page faults than the sampling itself on small-RR-set graphs.
        # Keys are node-major (``node * block + set``) so the hub nodes that
        # dominate reverse traversals share pages.
        self._visited = np.zeros(0, dtype=bool)
        if model == "lt":
            self._prepare_live_edge_arrays()
        else:
            self._thresholds = _integer_thresholds(self.probabilities)
            # Pre-multiplied per-edge counter offsets: one gather per round
            # instead of a gather plus a 64-bit multiply.
            self._edge_step = (
                np.arange(self.probabilities.size, dtype=np.uint64) * _MIX_STEP
            )

    def _prepare_live_edge_arrays(self) -> None:
        """Band-shifted per-segment cumulative weights for the LT walk."""
        n = self.n
        weights = self.probabilities
        in_degrees = self._in_degrees
        totals = np.zeros(n, dtype=np.float64)
        if weights.size:
            cumulative = np.cumsum(weights)
            starts = self.graph.in_indptr[:-1]
            prefix = cumulative[starts] - weights[starts]
            within = cumulative - np.repeat(prefix, in_degrees)
            positive = np.flatnonzero(in_degrees > 0)
            totals[positive] = within[self.graph.in_indptr[1:][positive] - 1]
            band = float(max(2.0, np.ceil(within.max()) + 1.0))
            segment_of_edge = np.repeat(np.arange(n), in_degrees)
            shifted = within + band * segment_of_edge
        else:
            band = 2.0
            shifted = np.empty(0, dtype=np.float64)
        self._totals = totals
        self._band = band
        self._shifted = shifted

    def _block_visited(self, count: int) -> np.ndarray:
        """Reusable visited buffer covering ``count`` sets.

        A larger block may arrive after a smaller one; the node-major key
        stride is the *buffer* capacity, not the block size, so existing
        clean state stays valid when only ``count`` grows.
        """
        if self._visited.size < count * self.n:
            self._visited = np.zeros(count * self.n, dtype=bool)
        return self._visited

    # ------------------------------------------------------------- sampling

    @staticmethod
    def draw_tokens(rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` per-set tokens from the engine generator.

        This is the *only* consumption the sampler makes of ``rng`` — one
        63-bit token per RR set — and the serving layer's deterministic
        growth replays it (:meth:`skip_tokens`), so every token draw must go
        through here: changing the bounds, dtype or fill semantics anywhere
        else would silently desynchronize grown indexes from fresh builds.
        """
        return rng.integers(0, np.iinfo(np.int64).max, size=count, dtype=np.int64)

    @classmethod
    def skip_tokens(cls, rng: np.random.Generator, count: int) -> None:
        """Advance ``rng`` past ``count`` RR-set tokens without sampling.

        Split-invariance of bounded ``integers`` fills makes one draw of
        ``count`` equal to the per-block draws an original build issued.
        """
        if count > 0:
            cls.draw_tokens(rng, count)

    def sample(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``count`` RR sets; return ``(members, indptr, widths)``.

        ``members``/``indptr`` form a CSR over the sets (members in
        discovery order, root first); ``widths[j]`` is the number of in-edges
        examined while growing set ``j`` (the ``EPT`` width used by TIM's
        KPT estimation).
        """
        count = int(count)
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0 or self.n == 0:
            return _EMPTY.copy(), np.zeros(count + 1, dtype=np.int64), _EMPTY.copy()
        return self.sample_tokens(self.draw_tokens(rng, count))

    def sample_tokens(
        self, tokens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one RR set per entry of ``tokens`` (see :meth:`sample`).

        This is the replay primitive behind the supervised runtime: a
        token fully determines its RR set (root and every uniform), so any
        process sampling the same token block — first try, crash replay or
        in-process fallback — produces bit-for-bit identical CSR arrays.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0 or self.n == 0:
            return (
                _EMPTY.copy(),
                np.zeros(tokens.size + 1, dtype=np.int64),
                _EMPTY.copy(),
            )
        roots = (tokens % self.n).astype(np.int64)
        streams = _mix64(tokens.astype(np.uint64))
        if self.model == "lt":
            return self._sample_lt_block(roots, streams)
        return self._sample_ic_block(roots, streams)

    def sample_into(
        self,
        rng: np.random.Generator,
        collection,
        target: int,
        block_size: int,
    ) -> None:
        """Sample RR sets block-wise until ``collection`` holds ``target``.

        The single grow loop shared by the selectors, the sketch spread
        oracle and the benchmark, so block chunking behaves identically
        everywhere.
        """
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        registry = default_registry()
        sets_total = blocks_total = None
        if registry is not None:
            sets_total = registry.counter(
                "repro_sketch_rr_sets_total", "RR sets drawn by sample_into."
            )
            blocks_total = registry.counter(
                "repro_sketch_rr_blocks_total", "Sampling blocks run by sample_into."
            )
        with span(
            "rr_sample",
            model=self.model,
            start=int(collection.num_sets),
            target=int(target),
        ):
            while collection.num_sets < target:
                block = min(block_size, target - collection.num_sets)
                members, indptr, _ = self.sample(rng, block)
                collection.append(members, indptr)
                if sets_total is not None:
                    sets_total.inc(block)
                    blocks_total.inc()

    def sample_roots(
        self, rng: np.random.Generator, roots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw one RR set per entry of ``roots`` (mainly for tests)."""
        roots = np.asarray(roots, dtype=np.int64)
        tokens = self.draw_tokens(rng, roots.size)
        streams = _mix64(tokens.astype(np.uint64))
        if self.model == "lt":
            return self._sample_lt_block(roots, streams)
        return self._sample_ic_block(roots, streams)

    # ------------------------------------------------------------ IC family

    def _sample_ic_block(
        self, roots: np.ndarray, streams: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        graph = self.graph
        n = self.n
        count = roots.size
        indptr = graph.in_indptr
        indices = graph.in_indices
        thresholds = self._thresholds

        visited = self._block_visited(count)
        stride = visited.size // n

        owner_chunks = [np.arange(count, dtype=np.int64)]
        node_chunks = [roots]
        frontier_owner = owner_chunks[0]
        frontier_node = roots
        visited[roots * stride + frontier_owner] = True

        while frontier_owner.size:
            positions, degrees = expand_csr_positions(indptr, frontier_node)
            if positions.size == 0:
                break
            edge_owner = np.repeat(frontier_owner, degrees)

            # The draw for a (set, edge) pair is keyed by the set's stream
            # and the *global edge id* — a set examines each in-edge at most
            # once (nodes enter its frontier once), so edge ids never repeat
            # within a set and the draws are independent of both the round
            # structure and the block composition.  The comparison runs in
            # the integer hash domain (see _integer_thresholds).
            hashes = _mix64(streams[edge_owner] + self._edge_step[positions])
            hashes >>= np.uint64(11)
            hit = np.flatnonzero(hashes < thresholds[positions])
            if hit.size == 0:
                break
            sources = indices[positions[hit]]
            keys = sources * stride + edge_owner[hit]
            fresh = np.flatnonzero(~visited[keys])
            if fresh.size == 0:
                break
            winners = fresh[_dedup_first(keys[fresh])]
            visited[keys[winners]] = True
            frontier_owner = edge_owner[hit[winners]]
            frontier_node = sources[winners]
            owner_chunks.append(frontier_owner)
            node_chunks.append(frontier_node)

        return self._finish_block(owner_chunks, node_chunks, count)

    # ------------------------------------------------------------ LT family

    def _sample_lt_block(
        self, roots: np.ndarray, streams: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        graph = self.graph
        n = self.n
        count = roots.size
        in_degrees = self._in_degrees

        visited = self._block_visited(count)
        stride = visited.size // n
        owner_chunks = [np.arange(count, dtype=np.int64)]
        node_chunks = [roots]
        visited[roots * stride + owner_chunks[0]] = True

        current = roots.copy()
        alive = np.arange(count, dtype=np.int64)
        step = np.uint64(0)
        while alive.size:
            nodes = current[alive]
            has_in = in_degrees[nodes] > 0
            alive = alive[has_in]
            nodes = nodes[has_in]
            if alive.size == 0:
                break

            # One uniform per walk per step; a walk's step index is its own
            # age, so the draws are independent of block composition.
            draws = _counter_uniforms(streams[alive], step)
            step += np.uint64(1)
            live = draws < self._totals[nodes]
            alive = alive[live]
            nodes = nodes[live]
            draws = draws[live]
            if alive.size == 0:
                break

            queries = draws + self._band * nodes
            edge_positions = np.searchsorted(self._shifted, queries, side="right")
            sources = graph.in_indices[edge_positions]
            keys = sources * stride + alive
            fresh = ~visited[keys]
            alive = alive[fresh]
            sources = sources[fresh]
            if alive.size == 0:
                break
            visited[keys[fresh]] = True
            owner_chunks.append(alive)
            node_chunks.append(sources)
            current[alive] = sources

        return self._finish_block(owner_chunks, node_chunks, count)

    def _finish_block(
        self,
        owner_chunks: list,
        node_chunks: list,
        count: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble the per-set CSR and wipe the visited keys for reuse.

        The stable sort preserves each set's discovery order, which is what
        makes the assembled arrays independent of how sets were blocked;
        owners are below ``count``, so it is radix passes, not a merge sort.
        Widths fall out of the membership: every member enters its set's
        frontier (or walk) exactly once and is expanded exactly once, so the
        edges a set examined are the summed in-degrees of its members.
        """
        owners = np.concatenate(owner_chunks)
        nodes = np.concatenate(node_chunks)
        stride = self._visited.size // self.n
        self._visited[nodes * stride + owners] = False
        order = stable_argsort_bounded(owners, count)
        members = nodes[order]
        sizes = np.bincount(owners, minlength=count)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        widths = np.bincount(
            owners, weights=self._in_degrees[nodes], minlength=count
        ).astype(np.int64)
        return members.astype(np.int64, copy=False), indptr, widths
