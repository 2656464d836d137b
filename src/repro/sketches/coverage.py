"""Greedy maximum coverage over an RR-set collection.

Each node keeps a *gain* counter — the number of still-uncovered sets that
contain it — initialised from the collection's cached inverted index.  Every
round picks ``argmax(gain)`` and then decrements the counters of exactly the
nodes that co-occur in the newly covered sets (one CSR gather plus one
``np.bincount``).  The picked node's own counter falls to zero in that
decrement, so it is never picked twice, and the loop stops once the largest
gain is zero.  Total work is O(k · n + |members of the covered sets|): each
round's ``bincount(minlength=n)`` and ``gain -=`` are already O(n), so the
``argmax`` adds no asymptotic term.

A lazy max-heap used to sit on top of the counters.  It was the cost, not
the member walks: a k=30 cover over a 50k-set IC collection did ~4,800
Python pop/re-push rounds, because every pick makes hundreds of heap entries
stale.  Replacing it with the argmax cut that cover from ~20 ms to ~4 ms.

Ties are broken towards the smaller node index (``argmax`` returns the first
maximum), which keeps the cover — and therefore the TIM+/IMM seed sets —
deterministic and independent of the sampling block size.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sketches.collection import RRSetCollection
from repro.sketches.sampler import expand_csr_positions


def greedy_max_coverage(
    collection: RRSetCollection, budget: int
) -> Tuple[List[int], float]:
    """Greedily pick up to ``budget`` nodes maximising RR-set coverage.

    Returns ``(seeds, covered_fraction)``.  Fewer than ``budget`` seeds are
    returned when no remaining node covers any uncovered set (use
    :func:`pad_with_unselected` to fill up a fixed-size seed set).
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be non-negative, got {budget}")
    n = collection.n
    num_sets = collection.num_sets
    if num_sets == 0 or budget == 0:
        return [], 0.0

    members = collection.members
    indptr = collection.indptr

    # Inverted index: the sets containing each node, as a CSR keyed by node.
    # Cached on the collection (and persisted inside index artifacts), so a
    # warm select over a reopened artifact skips the argsort entirely.
    # ``np.diff`` makes ``gain`` a fresh array; the index is never written.
    node_indptr, node_sets = collection.inverted_index()
    gain = np.diff(node_indptr).astype(np.int64, copy=False)

    covered = np.zeros(num_sets, dtype=bool)
    covered_count = 0
    selected: List[int] = []

    while len(selected) < budget:
        node = int(gain.argmax())
        if gain[node] <= 0:
            break
        selected.append(node)
        # Widened once here: numpy indexes several times faster with intp
        # index arrays than with the stored int32 set ids.
        containing = node_sets[node_indptr[node]:node_indptr[node + 1]].astype(
            np.intp, copy=False
        )
        newly = containing[~covered[containing]]
        covered[newly] = True
        covered_count += newly.size

        # Decrement the gain of every member of the newly covered sets.
        positions, _ = expand_csr_positions(indptr, newly)
        gain -= np.bincount(members[positions], minlength=n)

    return selected, covered_count / num_sets


def pad_with_unselected(n: int, seeds: Sequence[int], budget: int) -> List[int]:
    """Extend ``seeds`` to exactly ``budget`` nodes with unused indices.

    Mirrors the historical TIM+ behaviour when fewer distinct nodes appear
    in the RR sets than the budget requires: fill with the smallest node
    indices not yet selected.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) >= budget:
        return seeds[:budget]
    chosen = set(seeds)
    for node in range(n):
        if len(seeds) >= budget:
            break
        if node not in chosen:
            seeds.append(node)
            chosen.add(node)
    return seeds
