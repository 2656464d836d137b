"""Vectorized reverse-reachable (RR) sketch subsystem for the RIS family.

The RIS-based selectors (TIM+, IMM) spend almost all of their time drawing
RR sets and covering them.  This package provides the batched building
blocks they run on:

* :class:`~repro.sketches.sampler.BatchRRSampler` — advances whole blocks of
  reverse BFS frontiers (IC/WC) or live-edge walks (LT) per vectorized pass
  over the in-CSR arrays, mirroring the forward batch kernels of
  :mod:`repro.diffusion.batch`.
* :class:`~repro.sketches.collection.RRSetCollection` — a compact CSR-backed
  store of RR sets (flat int32 ``members``, int64 ``indptr``) that grows
  incrementally, plus the sketch-based spread oracle
  :meth:`~repro.sketches.collection.RRSetCollection.estimated_spread`.
* :func:`~repro.sketches.coverage.greedy_max_coverage` — greedy maximum
  coverage by one ``argmax`` per pick over per-node gain counters, decremented
  with one ``np.bincount`` over the members of the newly covered sets:
  O(k · n + members of the covered sets).
"""

from repro.sketches.collection import RRSetCollection
from repro.sketches.coverage import greedy_max_coverage, pad_with_unselected
from repro.sketches.sampler import BatchRRSampler, in_edge_probabilities

__all__ = [
    "BatchRRSampler",
    "RRSetCollection",
    "greedy_max_coverage",
    "in_edge_probabilities",
    "pad_with_unselected",
]
