"""Compact CSR-backed storage for reverse-reachable set collections.

A collection holds ``num_sets`` RR sets over ``n`` nodes as two flat int64
arrays — ``members`` (all set members back to back) and ``indptr`` (set
boundaries) — instead of ``list[list[int]]``.  That keeps the per-set
overhead at zero Python objects, makes the coverage and spread queries pure
numpy reductions (over the members, or over the cached inverted index when
one exists), and lets IMM grow ``theta`` block-wise while reusing every
previously drawn set: blocks are appended in O(1) and consolidated lazily on
first read.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SketchError, SketchIndexError
from repro.sketches.sampler import expand_csr_positions, stable_argsort_bounded

_EMPTY = np.empty(0, dtype=np.int64)

#: Member entries gathered per pass of the batched spread oracle; bounds the
#: transient ``requests x chunk`` boolean matrix (a set larger than this
#: still forms one chunk on its own).
_SPREADS_CHUNK = 1 << 16


class RRSetCollection:
    """A growable collection of RR sets in CSR layout.

    Parameters
    ----------
    n:
        Number of nodes in the underlying graph (bounds the member values).
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise SketchError(f"n must be non-negative, got {n}")
        self.n = int(n)
        self._member_blocks: List[np.ndarray] = []
        self._size_blocks: List[np.ndarray] = []
        self._num_sets = 0
        self._members = _EMPTY
        self._indptr = np.zeros(1, dtype=np.int64)
        self._set_ids: Optional[np.ndarray] = _EMPTY
        self._node_indptr: Optional[np.ndarray] = None
        self._node_sets: Optional[np.ndarray] = None
        self._dirty = False

    # ------------------------------------------------------------- building

    @classmethod
    def from_lists(cls, n: int, rr_sets: Sequence[Iterable[int]]) -> "RRSetCollection":
        """Build a collection from a ``list[list[int]]`` of RR sets."""
        collection = cls(n)
        if not rr_sets:
            return collection
        arrays = [np.asarray(list(s), dtype=np.int64) for s in rr_sets]
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        members = np.concatenate(arrays) if arrays else _EMPTY
        collection.append(members, indptr)
        return collection

    @classmethod
    def from_csr(
        cls,
        n: int,
        members: np.ndarray,
        indptr: np.ndarray,
        validate: bool = True,
        node_indptr: Optional[np.ndarray] = None,
        node_sets: Optional[np.ndarray] = None,
    ) -> "RRSetCollection":
        """Wrap existing CSR arrays without copying.

        The arrays are adopted as-is — in particular they may be read-only
        ``np.memmap`` views of a persisted index artifact, which is what
        lets a 50k-set index open in milliseconds: nothing is touched until
        the first query.  With ``validate`` (cheap: reads only the ``indptr``
        boundary entries) malformed boundaries raise ``ValueError``.

        ``node_indptr``/``node_sets`` optionally seed the inverted index
        (see :meth:`inverted_index`) with a precomputed copy, e.g. the one
        persisted in an artifact; both must be supplied together.
        """
        collection = cls(n)
        if not isinstance(members, np.ndarray):
            members = np.asarray(members, dtype=np.int64)
        if not isinstance(indptr, np.ndarray):
            indptr = np.asarray(indptr, dtype=np.int64)
        if validate:
            if indptr.ndim != 1 or indptr.size == 0:
                raise SketchError("indptr must be a non-empty 1-d array")
            if int(indptr[0]) != 0 or int(indptr[-1]) != members.size:
                raise SketchError("indptr must start at 0 and end at members.size")
            if np.any(np.diff(indptr) < 0):
                raise SketchError("indptr must be non-decreasing")
        collection._members = members
        collection._indptr = indptr
        collection._num_sets = indptr.size - 1
        collection._set_ids = None  # computed lazily on first coverage query
        collection._dirty = False
        if node_indptr is not None and node_sets is not None:
            if node_indptr.size != n + 1 or node_sets.size != members.size or (
                members.size and int(node_indptr[-1]) != members.size
            ):
                raise SketchError(
                    "inverted index shape disagrees with the CSR arrays"
                )
            collection._node_indptr = node_indptr
            collection._node_sets = node_sets
        return collection

    def append(self, members: np.ndarray, indptr: np.ndarray) -> None:
        """Append a CSR block of RR sets (as produced by the batch sampler)."""
        members = np.asarray(members, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != members.size:
            raise SketchError("indptr must start at 0 and end at members.size")
        sizes = np.diff(indptr)
        if sizes.size == 0:
            return
        self._member_blocks.append(members)
        self._size_blocks.append(sizes)
        self._num_sets += sizes.size
        self._dirty = True

    # -------------------------------------------------------------- queries

    @property
    def num_sets(self) -> int:
        return self._num_sets

    def __len__(self) -> int:
        return self._num_sets

    @property
    def members(self) -> np.ndarray:
        """Flat member array (concatenation of every set's members)."""
        self._consolidate()
        return self._members

    @property
    def indptr(self) -> np.ndarray:
        """Set boundaries: set ``j`` is ``members[indptr[j]:indptr[j+1]]``."""
        self._consolidate()
        return self._indptr

    @property
    def set_ids(self) -> np.ndarray:
        """Set index of every entry of :attr:`members` (computed lazily)."""
        self._consolidate()
        if self._set_ids is None:
            sizes = np.diff(self._indptr)
            self._set_ids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        return self._set_ids

    def _consolidate(self) -> None:
        if not self._dirty:
            return
        members = [self._members] + self._member_blocks if self._members.size else (
            self._member_blocks
        )
        sizes_old = np.diff(self._indptr)
        sizes = np.concatenate([sizes_old] + self._size_blocks)
        self._members = np.concatenate(members) if members else _EMPTY
        self._indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._indptr[1:])
        self._set_ids = None
        self._node_indptr = None
        self._node_sets = None
        self._member_blocks = []
        self._size_blocks = []
        self._dirty = False

    def inverted_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sets containing each node, as a CSR keyed by node.

        Returns ``(node_indptr, node_sets)``: node ``v`` appears in sets
        ``node_sets[node_indptr[v]:node_indptr[v + 1]]``.  This is the
        access structure greedy max coverage walks, and once cached it is
        also how :meth:`estimated_spreads` answers.  Building it costs one
        stable sort of ``members`` by node — linear-time radix passes
        (:func:`~repro.sketches.sampler.stable_argsort_bounded`) for any
        ``n`` below ``2**32`` — so it is cached here and persisted inside
        index artifacts (where a warm ``select(k)`` would otherwise pay the
        sort on every reopen).  Deterministic given the CSR: within a node,
        set ids appear in ascending order.
        """
        self._consolidate()
        if self._node_indptr is None or self._node_sets is None:
            counts = np.bincount(self._members, minlength=self.n)
            node_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=node_indptr[1:])
            order = stable_argsort_bounded(self._members, self.n)
            self._node_sets = self.set_ids[order]
            self._node_indptr = node_indptr
        return self._node_indptr, self._node_sets

    def set_members(self, index: int) -> np.ndarray:
        """Members of set ``index`` in discovery order."""
        members, indptr = self.members, self.indptr
        if not 0 <= index < self.num_sets:
            raise SketchIndexError(f"set index {index} out of range 0..{self.num_sets - 1}")
        return members[indptr[index]:indptr[index + 1]]

    def as_lists(self) -> List[List[int]]:
        """The collection as ``list[list[int]]`` (tests and debugging)."""
        return [self.set_members(i).tolist() for i in range(self.num_sets)]

    def coverage_counts(self) -> np.ndarray:
        """Number of sets each node appears in (the initial greedy gains)."""
        return np.bincount(self.members, minlength=self.n)

    def covered_fraction(self, seeds: Sequence[int]) -> float:
        """Fraction of sets containing at least one seed."""
        covered = self._covered_counts([seeds])[0]
        return float(covered) / self.num_sets if self.num_sets else 0.0

    def estimated_spread(self, seeds: Sequence[int]) -> float:
        """Sketch estimate of the expected spread of ``seeds``.

        The standard RIS estimator: ``n`` times the fraction of RR sets the
        seed set covers.  Accuracy grows with the number of sets (theta).
        Note this counts the seeds themselves (a root drawn at a seed is
        always covered); the paper's Def. 3 objective excludes seeds, so
        subtract ``len(seeds)`` when comparing against
        :class:`~repro.diffusion.simulation.MonteCarloEngine` estimates.
        """
        return float(self.estimated_spreads([seeds])[0])

    def estimated_spreads(self, seed_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Sketch spread estimates for several seed sets in one call.

        Semantically ``[estimated_spread(s) for s in seed_sets]``; this is
        the kernel behind the serving layer's request coalescing.  The
        covered sets are counted along one of two paths, chosen from the
        cached state alone and giving identical counts:

        * **Index lookup** — when the inverted index is cached (built by
          :meth:`inverted_index` for a cover, or persisted in an artifact)
          and no appended blocks are pending, each request marks the sets
          listed under its seeds in one per-call ``num_sets`` mask and
          counts them.  The cost is the seeds' total coverage.
        * **Member walk** — otherwise, the member array is walked once for
          the whole batch: every request's seed mask is gathered against
          ``members`` and reduced per set, so R requests cost one
          ``O(|members|)`` traversal, not R.  The index is not built for
          this: on a one-shot collection building it costs more than the
          walk it would save.

        Raises :class:`~repro.exceptions.SketchIndexError` for a seed
        outside ``[0, n)``.
        """
        covered = self._covered_counts(seed_sets)
        if self.num_sets == 0:
            return np.zeros(covered.size, dtype=np.float64)
        return covered / self.num_sets * self.n

    def _covered_counts(self, seed_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Number of sets each seed set covers; picks the oracle path."""
        requests = [np.asarray(list(s), dtype=np.int64) for s in seed_sets]
        if not requests:
            return np.zeros(0, dtype=np.int64)
        flat = np.concatenate(requests)
        outside = flat[(flat < 0) | (flat >= self.n)]
        if outside.size:
            raise SketchIndexError(
                f"seed {int(outside[0])} is outside the node range 0..{self.n - 1}"
            )
        if self.num_sets == 0:
            return np.zeros(len(requests), dtype=np.int64)
        if not self._dirty and self._node_indptr is not None and self._node_sets is not None:
            return self._index_counts(requests)
        return self._walk_counts(requests)

    def _index_counts(self, requests: List[np.ndarray]) -> np.ndarray:
        """Index-lookup path of :meth:`_covered_counts`."""
        node_indptr, node_sets = self._node_indptr, self._node_sets
        covered = np.zeros(len(requests), dtype=np.int64)
        mask = np.zeros(self._num_sets, dtype=bool)
        for row, seeds in enumerate(requests):
            positions, _ = expand_csr_positions(node_indptr, seeds)
            hit = node_sets[positions]
            mask[hit] = True
            covered[row] = np.count_nonzero(mask)
            mask[hit] = False
        return covered

    def _walk_counts(self, requests: List[np.ndarray]) -> np.ndarray:
        """Member-walk path of :meth:`_covered_counts`."""
        members, indptr = self.members, self.indptr
        covered = np.zeros(len(requests), dtype=np.int64)
        if members.size == 0:
            return covered
        seed_mask = np.zeros((len(requests), self.n), dtype=bool)
        for row, seeds in enumerate(requests):
            seed_mask[row, seeds] = True
        # The member array is walked in set-aligned chunks so the transient
        # ``requests x chunk`` gather matrix stays bounded regardless of how
        # many requests a coalesced batch carries.  Within a chunk, reduceat
        # runs over the non-empty sets only: their starts are strictly
        # increasing, always valid, and consecutive starts delimit exactly
        # one set's members (reduceat misbehaves on empty segments — it
        # returns the element *at* the boundary, and errors when the
        # boundary equals the slice size; empty sets are never covered, so
        # they simply don't enter the count).
        set_start = 0
        while set_start < self.num_sets:
            limit = indptr[set_start] + _SPREADS_CHUNK
            set_end = int(np.searchsorted(indptr, limit, side="right")) - 1
            set_end = min(max(set_end, set_start + 1), self.num_sets)
            lo, hi = indptr[set_start], indptr[set_end]
            sizes = np.diff(indptr[set_start:set_end + 1])
            nonempty = np.flatnonzero(sizes > 0)
            if hi > lo and nonempty.size:
                hits = seed_mask[:, members[lo:hi]]
                starts = indptr[set_start:set_end][nonempty] - lo
                covered += np.logical_or.reduceat(hits, starts, axis=1).sum(axis=1)
            set_start = set_end
        return covered

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (pending blocks included)."""
        total = self._members.nbytes + self._indptr.nbytes
        if self._set_ids is not None:
            total += self._set_ids.nbytes
        if self._node_indptr is not None:
            total += self._node_indptr.nbytes
        if self._node_sets is not None:
            total += self._node_sets.nbytes
        total += sum(block.nbytes for block in self._member_blocks)
        total += sum(block.nbytes for block in self._size_blocks)
        return int(total)

    def __eq__(self, other: object) -> bool:
        """Content equality: same ``n`` and bit-identical CSR arrays.

        Used by the persistence tests to assert that a saved-and-reloaded
        (or incrementally grown) index equals a freshly built one.
        """
        if not isinstance(other, RRSetCollection):
            return NotImplemented
        return (
            self.n == other.n
            and self.num_sets == other.num_sets
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return (
            f"<RRSetCollection with {self.num_sets} sets over {self.n} nodes, "
            f"{self.members.size} members>"
        )
