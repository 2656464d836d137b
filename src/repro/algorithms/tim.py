"""TIM+ — Two-phase Influence Maximisation (Tang, Xiao and Shi, SIGMOD 2014).

TIM+ draws reverse-reachable (RR) sets — for a uniformly random node ``v``,
the set of nodes that reach ``v`` in a randomly sampled possible world — and
solves a maximum-coverage problem over them.  With enough RR sets the greedy
cover is a ``(1 - 1/e - eps)``-approximation with high probability.

The implementation follows the published two-phase structure:

1. **KPT estimation** — estimate a lower bound on the optimal expected spread
   by measuring the width (number of edges traversed) of progressively larger
   batches of RR sets (Algorithm 2), then refine it with the KPT* step
   (Algorithm 3): greedily cover the estimation-phase RR sets, measure the
   fraction of fresh RR sets that cover hits, and take the larger bound.
2. **Node selection** — draw ``theta = lambda / KPT*`` RR sets and run greedy
   maximum coverage.

All RR-set machinery runs on the vectorized sketch subsystem
(:mod:`repro.sketches`): many reverse BFS frontiers are advanced per
numpy pass over the in-CSR arrays, sets are stored in a CSR-backed
:class:`~repro.sketches.collection.RRSetCollection`, and the cover picks
by ``argmax`` over per-node gain counters.  ``block_size`` bounds the sets
sampled concurrently; the per-set counter-based randomness guarantees that
the selected seeds are identical for a fixed engine seed regardless of the
block size.

The paper's scalability critique of TIM+ is its memory footprint — all
``theta`` RR sets are materialised — which this implementation reproduces
faithfully (and which the memory benchmarks measure).  ``max_rr_sets`` guards
against runaway allocations on large graphs; the cap is recorded in the
result metadata so benchmark output can flag it, mirroring the "TIM+ crashed
on our machine" annotations in the paper.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.algorithms.base import SeedSelector
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph
from repro.sketches.collection import RRSetCollection
from repro.sketches.coverage import greedy_max_coverage, pad_with_unselected
from repro.sketches.sampler import (
    SUPPORTED_MODELS as _SUPPORTED_MODELS,
    BatchRRSampler,
    in_edge_probabilities,
)
from repro.utils.rng import RandomState, ensure_rng


def _log_binomial(n: int, k: int) -> float:
    """``log C(n, k)`` computed through log-gamma (stable for large n)."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


class TIMPlusSelector(SeedSelector):
    """TIM+ seed selection under the IC, WC or LT model."""

    name = "tim+"

    def __init__(
        self,
        model: str = "ic",
        epsilon: float = 0.1,
        ell: float = 1.0,
        max_rr_sets: int = 2_000_000,
        block_size: int = 2048,
        seed: RandomState = None,
    ) -> None:
        if model not in _SUPPORTED_MODELS:
            raise ConfigurationError(
                f"model must be one of {_SUPPORTED_MODELS}, got {model!r}"
            )
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")
        if ell <= 0:
            raise ConfigurationError(f"ell must be > 0, got {ell}")
        if max_rr_sets < 1:
            raise ConfigurationError(
                f"max_rr_sets must be >= 1, got {max_rr_sets}"
            )
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.model = model
        self.epsilon = epsilon
        self.ell = ell
        self.max_rr_sets = max_rr_sets
        self.block_size = block_size
        self._rng = ensure_rng(seed)

    # --------------------------------------------------------------- RR sets

    def _in_probabilities(self, graph: CompiledGraph) -> np.ndarray:
        """In-edge aligned traversal probabilities for the configured model."""
        return in_edge_probabilities(graph, self.model)

    # ---------------------------------------------------------- block growth

    def _grow_collection(
        self,
        sampler: BatchRRSampler,
        collection: RRSetCollection,
        target: int,
    ) -> None:
        """Sample RR sets block-wise until ``collection`` holds ``target``."""
        sampler.sample_into(self._rng, collection, target, self.block_size)

    # ---------------------------------------------------------- KPT estimate

    def _estimate_kpt_with_sets(
        self,
        graph: CompiledGraph,
        sampler: BatchRRSampler,
        budget: int,
    ) -> Tuple[float, RRSetCollection]:
        """Algorithm 2 on the batch sampler.

        Also returns the RR sets of the final estimation round, which the
        KPT* refinement (Algorithm 3) reuses for its greedy cover.
        """
        n = graph.number_of_nodes
        m = max(graph.number_of_edges, 1)
        for i in range(1, max(2, int(math.log2(n)))):
            batch = int(
                (6 * self.ell * math.log(n)
                 + 6 * math.log(math.log2(max(n, 2)))) * (2 ** i)
            )
            batch = min(batch, self.max_rr_sets)
            collection = RRSetCollection(n)
            total = 0.0
            drawn = 0
            while drawn < batch:
                block = min(self.block_size, batch - drawn)
                members, indptr, widths = sampler.sample(self._rng, block)
                collection.append(members, indptr)
                kappa = 1.0 - (1.0 - widths / m) ** budget
                total += float(kappa.sum())
                drawn += block
            if batch and total / batch > 1.0 / (2 ** i):
                return max(n * total / (2.0 * batch), 1.0), collection
            if batch >= self.max_rr_sets:
                break
        return 1.0, collection

    def _refine_kpt(
        self,
        sampler: BatchRRSampler,
        estimation_sets: RRSetCollection,
        kpt: float,
        budget: int,
    ) -> float:
        """KPT* refinement (Algorithm 3 of the TIM paper).

        Greedily covers the estimation-phase RR sets to get an interim seed
        set, measures the fraction ``f`` of fresh RR sets that seed set
        intersects, and returns ``max(KPT, f * n / (1 + eps'))`` — a bound
        that is never worse than KPT, so phase-2 theta is never inflated by
        a weak phase-1 estimate.
        """
        n = sampler.n
        if estimation_sets.num_sets == 0 or n == 0:
            return kpt
        interim, _ = greedy_max_coverage(estimation_sets, budget)
        if not interim:
            return kpt
        epsilon_prime = 5.0 * (
            self.ell * self.epsilon ** 2 / (budget + self.ell)
        ) ** (1.0 / 3.0)
        lambda_prime = (
            (2.0 + epsilon_prime) * self.ell * n * math.log(max(n, 2))
            / (epsilon_prime ** 2)
        )
        theta_prime = int(math.ceil(lambda_prime / max(kpt, 1.0)))
        theta_prime = max(1, min(theta_prime, self.max_rr_sets))
        seed_mask = np.zeros(n, dtype=bool)
        seed_mask[np.asarray(interim, dtype=np.int64)] = True
        covered = 0
        drawn = 0
        while drawn < theta_prime:
            block = min(self.block_size, theta_prime - drawn)
            members, indptr, _ = sampler.sample(self._rng, block)
            # Every RR set holds its root, so the set starts are strictly
            # increasing and one reduceat yields each set's "any member hit".
            hits = seed_mask[members]
            covered += int(np.count_nonzero(np.logical_or.reduceat(hits, indptr[:-1])))
            drawn += block
        fraction = covered / theta_prime
        kpt_prime = fraction * n / (1.0 + epsilon_prime)
        return max(kpt, kpt_prime)

    # ------------------------------------------------------------ selection

    def _select(self, graph: CompiledGraph, budget: int) -> tuple[list[int], dict]:
        n = graph.number_of_nodes
        probabilities = self._in_probabilities(graph)
        sampler = BatchRRSampler(graph, self.model, probabilities)
        kpt, estimation_sets = self._estimate_kpt_with_sets(graph, sampler, budget)
        kpt_star = self._refine_kpt(sampler, estimation_sets, kpt, budget)

        epsilon = self.epsilon
        lambda_ = (
            (8 + 2 * epsilon)
            * n
            * (self.ell * math.log(n) + _log_binomial(n, budget) + math.log(2))
            / (epsilon ** 2)
        )
        theta = int(math.ceil(lambda_ / max(kpt_star, 1.0)))
        capped = theta > self.max_rr_sets
        theta = min(theta, self.max_rr_sets)
        theta = max(theta, 1)

        collection = RRSetCollection(n)
        self._grow_collection(sampler, collection, theta)
        covering, covered_fraction = greedy_max_coverage(collection, budget)
        seeds = pad_with_unselected(n, covering, budget)
        estimated_spread = covered_fraction * n
        return seeds, {
            "kpt": kpt,
            "kpt_star": kpt_star,
            "theta": theta,
            "theta_capped": capped,
            "rr_sets": collection.num_sets,
            "estimated_spread": estimated_spread,
        }
