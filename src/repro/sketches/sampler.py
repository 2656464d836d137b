"""Batched reverse-reachable (RR) set sampling.

An RR set for a uniformly random root ``v`` is the set of nodes that reach
``v`` in a randomly sampled possible world.  :class:`BatchRRSampler` grows
many RR sets at once, one vectorized pass over the in-CSR arrays per round,
in the same kernel style as the forward cascade kernels of
:mod:`repro.diffusion.batch`:

* **IC/WC** — reverse BFS frontiers.  Each round flattens every frontier
  node's in-edge slice with the ``np.repeat``-over-``indptr`` trick, hashes
  one uniform per edge, and admits successful, still-unvisited sources in
  first-wins order.
* **LT** — the live-edge single-in-edge walk.  Every active walk consumes one
  uniform per step; the live in-edge is resolved with a single global
  ``searchsorted`` against a band-shifted per-segment cumulative-weight
  array (the same trick as ``_sample_live_parent_matrix``).

**Slots.**  A call samples one RR set per token, but at most ``slots`` sets
are in flight at a time.  Each set occupies a slot from its root until its
frontier (or walk) dies out; the next round the slot takes the root of the
next unstarted token.  Every round therefore stays full until the tokens run
out, instead of a block of sets starting together and trickling through a
long tail of near-empty rounds.  :meth:`BatchRRSampler.sample_into` hands the
sampler ``4 * block_size`` tokens per call with ``block_size`` slots, so
``block_size`` bounds the concurrent sets, and with them the visited buffer.

**Visited tags.**  The visited state is one ``uint8`` tag per
``(slot, node)``, slot-major (``slot * n + node``): each slot owns one
contiguous row of ``n`` tags.  A slot carries a generation number in
``1..255``; a node is visited by the slot's current set iff its tag equals
that generation.  Opening a set in a slot advances the generation, which
invalidates the previous set's tags without touching them; only when the
generation wraps is the slot's row wiped, one ``n``-byte memset.  The
layout is chosen for that wipe: node-major, it would be ``n`` single-byte
writes one cache line apart, and every call that hosts more than 255 sets
per slot (TIM+'s final θ, IMM, large-θ LT) wraps.  The buffer lives across
the calls of one :meth:`~BatchRRSampler.sample_into` (or a loop of
:meth:`~BatchRRSampler.sample` calls) and is freed when ``sample_into``
returns.

**Block-size independence.**  The RIS selectors must return identical seed
sets for a fixed engine seed regardless of how the sampling work is chunked.
Per-round draws from a shared ``numpy`` generator would break that, so the
sampler consumes exactly *one* 63-bit token per RR set from the engine
generator — bounded ``Generator.integers`` fills are split-invariant, i.e.
drawing ``(10, 10)`` tokens equals drawing ``(20,)`` — and derives
everything else from the token with a counter-based generator: the root is
``token % n``, the IC/WC draw for in-edge ``e`` is a SplitMix64 hash of
``(token, e)``, and LT step ``t`` of a walk hashes ``(token, t)``.  A set's
draws never depend on its slot, round or neighbours, and each set keeps its
own discovery order, so the sampled arrays are identical for any token
chunking and any slot count.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph
from repro.telemetry.registry import default_registry
from repro.telemetry.tracing import span
from repro.utils.rng import SPLITMIX64_GAMMA, SPLITMIX64_MUL_A, SPLITMIX64_MUL_B

SUPPORTED_MODELS = ("ic", "wc", "lt")

_EMPTY = np.empty(0, dtype=np.int64)

#: Tokens per :meth:`BatchRRSampler.sample_into` call, per slot.  Larger
#: calls spend a smaller share of rounds in the tail where the last sets
#: finish, but hold more sampled members at once before they are appended.
_TOKENS_PER_SLOT = 4

# The SplitMix64 finalizer of repro.utils.rng.splitmix64, used as a
# counter-based generator over (stream, counter) pairs.
_MIX_STEP = np.uint64(SPLITMIX64_GAMMA)
_MIX_A = np.uint64(SPLITMIX64_MUL_A)
_MIX_B = np.uint64(SPLITMIX64_MUL_B)
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
    shared by the coverage decrement and the spread oracle.
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


def _first_occurrences(keys: np.ndarray, bound: int) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct key.

    Sort-based rather than the scatter dedup of ``repro.diffusion.batch``:
    RR keys range over ``slots * n``, and scattering into an array that size
    is TLB-bound, while the per-round key counts here are small.  The sort
    is the radix :func:`stable_argsort_bounded`, so equal keys stay in
    index order and the head of each run is the first occurrence.
    """
    order = stable_argsort_bounded(keys, bound)
    ordered = keys[order]
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    first = np.zeros(keys.size, dtype=bool)
    first[order[head]] = True
    return np.flatnonzero(first)


def in_edge_probabilities(graph: CompiledGraph, model: str) -> np.ndarray:
    """In-edge aligned traversal probabilities for an RIS model.

    The out-edge weights of
    :meth:`~repro.graphs.digraph.CompiledGraph.resolved_edge_probabilities`
    (``ic``: the annotated probabilities; ``wc``: ``1 / in_degree``;
    ``lt``: the annotated LT weights, else ``1 / in_degree``), laid out in
    in-CSR order through
    :attr:`~repro.graphs.digraph.CompiledGraph.out_to_in_position`.
    """
    if model not in SUPPORTED_MODELS:
        raise ConfigurationError(
            f"model must be one of {SUPPORTED_MODELS}, got {model!r}"
        )
    resolved = graph.resolved_edge_probabilities(model)
    probabilities = np.empty(resolved.size, dtype=np.float64)
    probabilities[graph.out_to_in_position] = resolved
    return probabilities


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
    """Draws RR sets on a compiled graph under ``ic``/``wc``/``lt``.

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
        probabilities: Optional[np.ndarray] = None,
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
        # The slot frame (see the module docstring): ``_tags`` holds one
        # row of ``n`` visited tags per slot, ``_generation`` one generation
        # per slot; both start empty and grow to the largest slot count seen.
        self._tags = np.zeros(0, dtype=np.uint8)
        self._generation = np.zeros(0, dtype=np.uint8)
        # ``arange * gamma``, the per-edge counter offsets within one
        # round's flattened slices (IC/WC); grown on demand.
        self._ramp = np.zeros(0, dtype=np.uint64)
        if model == "lt":
            self._prepare_live_edge_arrays()
        else:
            self._prepare_thresholds()

    def _prepare_thresholds(self) -> None:
        """Acceptance thresholds, per target node when every slice allows it.

        WC slices are uniform by construction, as is IC with one global
        probability; the kernel then compares each slice against its
        target's threshold.  Any non-uniform slice makes the kernel gather
        per-edge thresholds instead.
        """
        thresholds = _integer_thresholds(self.probabilities)
        has_in = self._in_degrees > 0
        first = np.zeros(self.n, dtype=np.uint64)
        first[has_in] = thresholds[self.graph.in_indptr[:-1][has_in]]
        if np.array_equal(thresholds, np.repeat(first, self._in_degrees)):
            self._node_thresholds, self._edge_thresholds = first, None
        else:
            self._node_thresholds, self._edge_thresholds = None, thresholds

    def _prepare_live_edge_arrays(self) -> None:
        """Band-shifted per-segment cumulative weights for the LT walk."""
        n = self.n
        weights = self.probabilities
        in_degrees = self._in_degrees
        totals = np.zeros(n, dtype=np.float64)
        if weights.size:
            cumulative = np.cumsum(weights)
            # Only nodes with in-edges have a first in-edge; a trailing
            # source's slice start is one past the last edge.
            positive = np.flatnonzero(in_degrees > 0)
            starts = self.graph.in_indptr[positive]
            prefix = np.zeros(n, dtype=np.float64)
            prefix[positive] = cumulative[starts] - weights[starts]
            within = cumulative - np.repeat(prefix, in_degrees)
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

    # ----------------------------------------------------------- slot frame

    def _slot_frame(self, slots: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(tags, generation)`` covering at least ``slots`` slots.

        The visited key of ``(slot, node)`` is ``slot * n + node``.  A call
        with fewer slots than the buffer holds uses its first rows, whose
        keys do not depend on the buffer's capacity, so tags left by
        earlier calls stay valid for their slots.
        """
        if self._generation.size < slots:
            self._tags = np.zeros(slots * self.n, dtype=np.uint8)
            self._generation = np.zeros(slots, dtype=np.uint8)
        return self._tags, self._generation

    def _open_sets(
        self, roots: np.ndarray, opened: int, free: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Open the next unstarted sets in the ``free`` slots.

        Returns the new ``(set, slot, root)`` entries.  Each slot's
        generation advances and its root is tagged; a slot whose generation
        wraps past 255 has its row of tags wiped and restarts at
        generation 1 (tag 0 is never a live generation).
        """
        tags, generation = self._tags, self._generation
        slots = free[: roots.size - opened]
        sets = np.arange(opened, opened + slots.size, dtype=np.int32)
        nodes = roots[sets]
        generation[slots] += np.uint8(1)
        wrapped = slots[generation[slots] == 0]
        if wrapped.size:
            tags.reshape(generation.size, self.n)[wrapped] = 0
            generation[wrapped] = 1
        tags[slots * self.n + nodes] = generation[slots]
        return sets, slots, nodes

    @staticmethod
    def _free_slots(busy_slots: np.ndarray, slots: int) -> np.ndarray:
        """The slots in ``range(slots)`` that hold no live set."""
        busy = np.zeros(slots, dtype=bool)
        busy[busy_slots] = True
        return np.flatnonzero(~busy)

    def _release_frame(self) -> None:
        self._tags = np.zeros(0, dtype=np.uint8)
        self._generation = np.zeros(0, dtype=np.uint8)
        self._ramp = np.zeros(0, dtype=np.uint64)

    def _counter_ramp(self, total: int) -> np.ndarray:
        """``arange(total) * gamma`` as uint64, from a grown cache."""
        if self._ramp.size < total:
            self._ramp = np.arange(total, dtype=np.uint64) * _MIX_STEP
        return self._ramp[:total]

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
        discovery order, root first; int32 node ids, int64 offsets);
        ``widths[j]`` is the number of in-edges examined while growing set
        ``j`` (the ``EPT`` width used by TIM's KPT estimation).
        """
        count = int(count)
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count == 0 or self.n == 0:
            return (
                np.empty(0, dtype=np.int32),
                np.zeros(count + 1, dtype=np.int64),
                _EMPTY.copy(),
            )
        return self.sample_tokens(self.draw_tokens(rng, count))

    def sample_tokens(
        self, tokens: np.ndarray, slots: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one RR set per entry of ``tokens`` (see :meth:`sample`).

        At most ``slots`` sets are in flight at once (all of them when
        omitted); the result does not depend on ``slots``.  This is the
        replay primitive behind the supervised runtime: a token fully
        determines its RR set (root and every uniform), so any process
        sampling the same token block — first try, crash replay or
        in-process fallback — produces bit-for-bit identical CSR arrays.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0 or self.n == 0:
            return (
                np.empty(0, dtype=np.int32),
                np.zeros(tokens.size + 1, dtype=np.int64),
                _EMPTY.copy(),
            )
        roots = (tokens % self.n).astype(np.int64)
        streams = _mix64(tokens.astype(np.uint64))
        return self._sample(roots, streams, tokens.size if slots is None else slots)

    def sample_into(
        self,
        rng: np.random.Generator,
        collection,
        target: int,
        block_size: int,
    ) -> None:
        """Sample RR sets until ``collection`` holds ``target``.

        The single grow loop shared by the selectors, the sketch spread
        oracle and the benchmark.  Each sampler call takes up to
        ``4 * block_size`` tokens and keeps ``block_size`` sets in flight.
        The ``block_size * n`` byte tag buffer is freed on return: what
        follows (a cover, or spread queries) does not sample, and the
        buffer can outweigh the RR sets it helped draw.
        """
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        registry = default_registry()
        sets_total = calls_total = None
        if registry is not None:
            sets_total = registry.counter(
                "repro_sketch_rr_sets_total", "RR sets drawn by sample_into."
            )
            calls_total = registry.counter(
                "repro_sketch_rr_blocks_total", "Sampler calls made by sample_into."
            )
        with span(
            "rr_sample",
            model=self.model,
            start=int(collection.num_sets),
            target=int(target),
        ):
            try:
                while collection.num_sets < target:
                    count = min(
                        _TOKENS_PER_SLOT * block_size, target - collection.num_sets
                    )
                    members, indptr, _ = self.sample_tokens(
                        self.draw_tokens(rng, count), slots=block_size
                    )
                    collection.append(members, indptr)
                    if sets_total is not None:
                        sets_total.inc(count)
                        calls_total.inc()
            finally:
                self._release_frame()

    def sample_roots(
        self, rng: np.random.Generator, roots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw one RR set per entry of ``roots`` (mainly for tests)."""
        roots = np.asarray(roots, dtype=np.int64)
        tokens = self.draw_tokens(rng, roots.size)
        return self._sample(roots, _mix64(tokens.astype(np.uint64)), roots.size)

    def _sample(
        self, roots: np.ndarray, streams: np.ndarray, slots: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        slots = max(1, min(int(slots), roots.size))
        if self.model == "lt":
            set_chunks, node_chunks = self._walk_lt(roots, streams, slots)
        else:
            set_chunks, node_chunks = self._walk_ic(roots, streams, slots)
        return self._assemble(set_chunks, node_chunks, roots.size)

    # ------------------------------------------------------------ IC family

    def _walk_ic(
        self, roots: np.ndarray, streams: np.ndarray, slots: int
    ) -> Tuple[list, list]:
        """Reverse BFS of every token's set; returns per-round (set, node) chunks.

        The frontier is three parallel arrays (set, slot, node).  Within a
        set, entries stay in discovery order from round to round: new
        entries are ordered by frontier entry, then by in-edge, and
        :func:`_first_occurrences` keeps the first of duplicate discoveries.
        """
        count = roots.size
        indptr = self.graph.in_indptr
        indices = self.graph.in_indices
        in_degrees = self._in_degrees
        node_thresholds = self._node_thresholds
        edge_thresholds = self._edge_thresholds
        n = self.n
        tags, generation = self._slot_frame(slots)

        set_chunks: list = []
        node_chunks: list = []
        frontier_set = _EMPTY.astype(np.int32)
        frontier_slot = frontier_node = _EMPTY
        free = np.arange(slots, dtype=np.int64)
        opened = 0
        while True:
            if opened < count and free.size:
                new_set, new_slot, new_node = self._open_sets(roots, opened, free)
                opened += new_slot.size
                set_chunks.append(new_set)
                node_chunks.append(new_node)
                frontier_set = np.concatenate((frontier_set, new_set))
                frontier_slot = np.concatenate((frontier_slot, new_slot))
                frontier_node = np.concatenate((frontier_node, new_node))
            if frontier_set.size == 0:
                break

            degrees = in_degrees[frontier_node]
            ends = np.cumsum(degrees)
            total = int(ends[-1])
            # Flattened edge i of entry j sits at in-CSR position i + shift[j].
            shift = indptr[frontier_node] - (ends - degrees)

            # The draw for a (set, edge) pair hashes the set's stream and the
            # *global edge id*: a set examines each in-edge at most once
            # (nodes enter its frontier once), so edge ids never repeat
            # within a set and the draws depend on neither the round nor the
            # slot.  The comparison runs in the integer hash domain (see
            # _integer_thresholds).
            hashes = np.repeat(
                streams[frontier_set] + shift.view(np.uint64) * _MIX_STEP, degrees
            )
            hashes += self._counter_ramp(total)
            _mix64(hashes)
            hashes >>= np.uint64(11)
            if node_thresholds is not None:
                limits = np.repeat(node_thresholds[frontier_node], degrees)
            else:
                limits = edge_thresholds[
                    np.repeat(shift, degrees) + np.arange(total, dtype=np.int64)
                ]
            hit = np.flatnonzero(hashes < limits)

            entry = np.searchsorted(ends, hit, side="right")
            sources = indices[hit + shift[entry]]
            hit_slot = frontier_slot[entry]
            keys = hit_slot * n + sources
            fresh = np.flatnonzero(tags[keys] != generation[hit_slot])
            winners = fresh[_first_occurrences(keys[fresh], slots * n)]
            frontier_slot = hit_slot[winners]
            frontier_node = sources[winners]
            frontier_set = frontier_set[entry[winners]]
            tags[keys[winners]] = generation[frontier_slot]
            set_chunks.append(frontier_set)
            node_chunks.append(frontier_node)
            if opened < count:
                free = self._free_slots(frontier_slot, slots)
        return set_chunks, node_chunks

    # ------------------------------------------------------------ LT family

    def _walk_lt(
        self, roots: np.ndarray, streams: np.ndarray, slots: int
    ) -> Tuple[list, list]:
        """Live-edge walks of every token's set, in the IC kernel's slot frame.

        One uniform per walk per step; a walk's step counter is its own age,
        so the draws depend on neither the round nor the slot.
        """
        count = roots.size
        in_degrees = self._in_degrees
        totals = self._totals
        indices = self.graph.in_indices
        n = self.n
        tags, generation = self._slot_frame(slots)

        set_chunks: list = []
        node_chunks: list = []
        walk_set = _EMPTY.astype(np.int32)
        walk_slot = walk_node = _EMPTY
        walk_step = np.zeros(0, dtype=np.uint64)
        free = np.arange(slots, dtype=np.int64)
        opened = 0
        while True:
            if opened < count and free.size:
                new_set, new_slot, new_node = self._open_sets(roots, opened, free)
                opened += new_slot.size
                set_chunks.append(new_set)
                node_chunks.append(new_node)
                walk_set = np.concatenate((walk_set, new_set))
                walk_slot = np.concatenate((walk_slot, new_slot))
                walk_node = np.concatenate((walk_node, new_node))
                walk_step = np.concatenate(
                    (walk_step, np.zeros(new_slot.size, dtype=np.uint64))
                )
            if walk_set.size == 0:
                break

            keep = np.flatnonzero(in_degrees[walk_node] > 0)
            draws = _counter_uniforms(streams[walk_set[keep]], walk_step[keep])
            live = draws < totals[walk_node[keep]]
            keep = keep[live]
            draws = draws[live]

            queries = draws + self._band * walk_node[keep]
            sources = indices[np.searchsorted(self._shifted, queries, side="right")]
            slot = walk_slot[keep]
            keys = slot * n + sources
            fresh = tags[keys] != generation[slot]
            keep = keep[fresh]
            walk_slot = slot[fresh]
            walk_node = sources[fresh]
            walk_set = walk_set[keep]
            walk_step = walk_step[keep] + np.uint64(1)
            tags[keys[fresh]] = generation[walk_slot]
            set_chunks.append(walk_set)
            node_chunks.append(walk_node)
            if opened < count:
                free = self._free_slots(walk_slot, slots)
        return set_chunks, node_chunks

    def _assemble(
        self, set_chunks: list, node_chunks: list, count: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble the per-set CSR from the per-round (set, node) chunks.

        The stable sort preserves each set's discovery order, which is what
        makes the assembled arrays independent of slots and token chunking;
        set ids are below ``count``, so it is radix passes, not a merge
        sort.  Widths fall out of the membership: every member enters its
        set's frontier (or walk) exactly once and is expanded exactly once,
        so the edges a set examined are the summed in-degrees of its
        members.  Set ids are int32 and nodes are narrowed to int32, the
        width the collection stores node ids in, before the sort; the
        kernels keep nodes in int64 because their visited keys reach
        ``slots * n``.  Each temporary is dropped as soon as it is used, so
        a call's peak holds about two copies of its members.
        """
        owners = np.concatenate(set_chunks)
        nodes = np.concatenate(node_chunks, dtype=np.int32)
        set_chunks.clear()
        node_chunks.clear()
        members = nodes[stable_argsort_bounded(owners, count)]
        del nodes
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=count), out=indptr[1:])
        del owners
        # Every set holds its root, so the set starts strictly increase.
        widths = np.add.reduceat(self._in_degrees[members], indptr[:-1])
        return members, indptr, widths.astype(np.int64, copy=False)
