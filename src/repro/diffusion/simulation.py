"""Monte-Carlo estimation of spread, opinion spread and effective opinion spread.

The paper reports every quality number as an average over 10K Monte-Carlo
simulations.  :class:`MonteCarloEngine` provides that estimation loop with a
configurable number of simulations, deterministic seeding, and an LRU outcome
cache keyed by seed set so greedy algorithms that re-evaluate the same set do
not pay for it twice.

Simulations are executed through :meth:`DiffusionModel.simulate_batch` in
fixed-size blocks of cascades: each block advances hundreds of cascades per
vectorized numpy pass and all three objectives are ``bincount`` reductions
of the block's :class:`~repro.diffusion.base.BatchOutcome` activation log.
Block seeds are derived from the engine seed *before* any work is dispatched,
so the estimate for a given engine seed is identical regardless of how many
worker processes the blocks are spread across.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.diffusion.registry import get_model
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.telemetry.registry import default_registry
from repro.telemetry.tracing import span
from repro.utils.rng import RandomState, ensure_rng

_LOGGER = logging.getLogger(__name__)

#: Upper bound on cascades advanced per vectorized batch.  Bounds the
#: ``(count, n)`` state matrices: the IC-family kernel keeps a boolean
#: activation matrix and an int32 dedup scratch (``5 * n`` bytes per
#: cascade; its other arrays scale with edge draws and activations), while
#: the LT kernels add float64 opinion, threshold and accumulator matrices
#: (``29 * n`` bytes per cascade).  Lower it for very large graphs; raising
#: it rarely helps (narrower blocks are cache-friendlier).
DEFAULT_BATCH_SIZE = 512

#: Minimum number of blocks an estimate is split into (when ``simulations``
#: allows).  The block plan is a pure function of ``simulations`` and
#: ``batch_size`` — never of ``workers`` — so estimates are reproducible
#: across worker counts while still giving a process pool at least this many
#: independent tasks to spread.
MIN_BLOCKS = 8


def _simulate_batch(
    model: DiffusionModel,
    graph: CompiledGraph,
    seeds: tuple,
    penalty: float,
    batch_seed: int,
    count: int,
) -> np.ndarray:
    """Run one block of ``count`` cascades; returns a ``(3, count)`` array.

    Module-level so it can be pickled and dispatched to worker processes; the
    paper runs its 10K Monte-Carlo simulations in parallel on 20 cores
    (Sec. 4, footnote 9) and this is the equivalent hook.
    """
    rng = ensure_rng(batch_seed)
    outcome = model.simulate_batch(graph, list(seeds), rng, count)
    return outcome.objectives(penalty)


#: Per-worker-process state installed by :func:`_init_pool_worker`.
_POOL_STATE: dict = {}


def _init_pool_worker(model: DiffusionModel, graph: CompiledGraph) -> None:
    """Stash the engine's model and graph in the worker process once.

    Shipping the (potentially large) compiled graph at pool creation instead
    of with every task keeps per-``estimate`` dispatch overhead to a few
    scalars, which matters on the greedy hot path where ``estimate`` runs
    thousands of times against one pool.
    """
    _POOL_STATE["model"] = model
    _POOL_STATE["graph"] = graph


def _simulate_batch_pooled(payload: tuple) -> np.ndarray:
    """Worker-side block runner using the state set by :func:`_init_pool_worker`.

    ``payload`` is ``(seeds, penalty, batch_seed, count)``; a block's result
    is a pure function of it (plus the pool-installed model and graph), which
    is the replay invariant the supervised pool relies on to re-execute the
    block bit-identically after a worker crash.
    """
    seeds, penalty, batch_seed, count = payload
    return _simulate_batch(
        _POOL_STATE["model"], _POOL_STATE["graph"], seeds, penalty, batch_seed, count
    )


@dataclass
class SpreadEstimate:
    """Monte-Carlo estimates for a single seed set.

    All three objectives are estimated from the same simulated cascades:
    ``spread`` (Def. 3), ``opinion_spread`` (Def. 6) and
    ``effective_opinion_spread`` (Def. 7, using the engine's ``penalty``).
    """

    seeds: tuple
    simulations: int
    spread: float
    spread_std: float
    opinion_spread: float
    opinion_spread_std: float
    effective_opinion_spread: float
    effective_opinion_spread_std: float
    penalty: float

    def objective(self, kind: str) -> float:
        """Return one of the three estimates by name."""
        if kind == "spread":
            return self.spread
        if kind == "opinion":
            return self.opinion_spread
        if kind == "effective-opinion":
            return self.effective_opinion_spread
        raise ConfigurationError(
            f"unknown objective {kind!r}; expected 'spread', 'opinion' or "
            "'effective-opinion'"
        )


class MonteCarloEngine:
    """Repeated-simulation spread estimator bound to one graph and one model."""

    def __init__(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: Union[str, DiffusionModel],
        simulations: int = 1000,
        penalty: float = 1.0,
        seed: RandomState = None,
        cache_size: int = 4096,
        workers: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        # Set before validation so ``__del__`` can close an instance whose
        # ``__init__`` raised.
        self._pool = None
        if simulations < 1:
            raise ConfigurationError(f"simulations must be >= 1, got {simulations}")
        if penalty < 0:
            raise ConfigurationError(f"penalty must be >= 0, got {penalty}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.graph = graph.compile() if isinstance(graph, DiGraph) else graph
        self.model = get_model(model) if isinstance(model, str) else model
        self.simulations = simulations
        self.penalty = penalty
        #: Number of worker processes used per estimate.  ``1`` (default) runs
        #: in-process; values > 1 spread the simulation blocks across worker
        #: processes, mirroring the paper's 20-core parallel Monte-Carlo setup.
        self.workers = workers
        #: Cascades per vectorized batch; the last block of an estimate may be
        #: smaller.  Block boundaries depend only on ``simulations`` and
        #: ``batch_size``, never on ``workers``.
        self.batch_size = batch_size
        self._rng = ensure_rng(seed)
        self._cache: OrderedDict[frozenset, SpreadEstimate] = OrderedDict()
        self._cache_size = cache_size
        #: Number of individual cascades simulated so far (for benchmarking).
        self.total_simulations_run = 0

    # ------------------------------------------------------------------ API

    def estimate(self, seeds: Sequence[Union[int, Node]]) -> SpreadEstimate:
        """Estimate all objectives for ``seeds`` (labels or compiled indices)."""
        indices = self._normalise_seeds(seeds)
        key = frozenset(indices)
        registry = default_registry()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            if registry is not None:
                registry.counter(
                    "repro_mc_cache_hits_total", "Monte Carlo estimate cache hits."
                ).inc()
            return cached

        with span(
            "mc_estimate", seeds=len(indices), simulations=int(self.simulations)
        ):
            if self.workers > 1:
                results = self._run_parallel(indices)
            else:
                results = self._run_serial(indices)
        spreads, opinion_spreads, effective_spreads = results
        self.total_simulations_run += self.simulations
        if registry is not None:
            registry.counter(
                "repro_mc_simulations_total", "Monte Carlo cascades simulated."
            ).inc(self.simulations)

        estimate = SpreadEstimate(
            seeds=tuple(seeds),
            simulations=self.simulations,
            spread=float(spreads.mean()),
            spread_std=float(spreads.std()),
            opinion_spread=float(opinion_spreads.mean()),
            opinion_spread_std=float(opinion_spreads.std()),
            effective_opinion_spread=float(effective_spreads.mean()),
            effective_opinion_spread_std=float(effective_spreads.std()),
            penalty=self.penalty,
        )
        # LRU eviction: drop the least recently used entry, never the whole
        # cache — CELF-style algorithms re-evaluate recent seed sets heavily.
        while self._cache and len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
        if self._cache_size > 0:
            self._cache[key] = estimate
        return estimate

    def expected_spread(self, seeds: Sequence[Union[int, Node]]) -> float:
        """``sigma(S)`` — expected opinion-oblivious spread."""
        return self.estimate(seeds).spread

    def expected_opinion_spread(self, seeds: Sequence[Union[int, Node]]) -> float:
        """``sigma_o(S)`` — expected opinion spread."""
        return self.estimate(seeds).opinion_spread

    def expected_effective_opinion_spread(
        self, seeds: Sequence[Union[int, Node]]
    ) -> float:
        """``sigma_o_lambda(S)`` — expected effective opinion spread."""
        return self.estimate(seeds).effective_opinion_spread

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------ execution

    def _block_plan(self) -> List[Tuple[int, int]]:
        """``(seed, count)`` per batch block, independent of worker count.

        The per-block seeds are all drawn from the engine RNG up front and
        the block sizes depend only on ``simulations`` and ``batch_size``, so
        serial and parallel execution of the same plan produce bit-identical
        objective arrays for a fixed engine seed regardless of ``workers``.
        Splitting into at least :data:`MIN_BLOCKS` blocks keeps a process
        pool busy even when ``simulations <= batch_size``.
        """
        block = max(1, min(self.batch_size, -(-self.simulations // MIN_BLOCKS)))
        counts = [block] * (self.simulations // block)
        remainder = self.simulations % block
        if remainder:
            counts.append(remainder)
        seeds = self._rng.integers(0, np.iinfo(np.int64).max, size=len(counts))
        return [(int(seed), int(count)) for seed, count in zip(seeds, counts)]

    def _run_serial(self, indices: list[int]) -> np.ndarray:
        """Run every block in-process; returns a ``(3, simulations)`` array."""
        blocks = [
            _simulate_batch(
                self.model, self.graph, tuple(indices), self.penalty, seed, count
            )
            for seed, count in self._block_plan()
        ]
        return np.concatenate(blocks, axis=1)

    def _run_parallel(self, indices: list[int]) -> np.ndarray:
        """Spread the same block plan across ``self.workers`` processes.

        The supervised pool is created once per engine (shipping the graph
        and model to each worker a single time) and reused by every
        subsequent estimate; a worker lost to a crash mid-estimate costs
        its unfinished blocks, replayed bit-identically in this process,
        not a wrong or failed estimate.
        """
        pool = self._ensure_pool()
        payloads = [
            (tuple(indices), self.penalty, seed, count)
            for seed, count in self._block_plan()
        ]
        batches = pool.run(payloads)
        return np.concatenate(batches, axis=1)

    def _ensure_pool(self):
        if self._pool is None:
            from repro.runtime.pool import SupervisedPool

            self._pool = SupervisedPool(
                _simulate_batch_pooled,
                workers=self.workers,
                init_fn=_init_pool_worker,
                init_args=(self.model, self.graph),
                name="mc-engine",
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial engines)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except (OSError, RuntimeError, TypeError) as error:
            # Only the failures pool teardown is known to produce during
            # interpreter shutdown (dead pipes, half-collected executor
            # internals) are swallowed — and even those leave a trace.  A
            # real bug in a third-party model's teardown now propagates
            # instead of vanishing into a bare `except Exception`.
            _LOGGER.debug("ignoring pool-shutdown failure in __del__: %s", error)

    # ------------------------------------------------------------- helpers

    def _normalise_seeds(self, seeds: Sequence[Union[int, Node]]) -> list[int]:
        indices: list[int] = []
        for seed in seeds:
            if isinstance(seed, (int, np.integer)) and 0 <= int(seed) < self.graph.number_of_nodes:
                # Already a valid compiled index *unless* labels are ints that
                # do not coincide with indices; prefer the label mapping when
                # the label exists and maps elsewhere.
                label_index = self.graph.index_of.get(seed)
                indices.append(int(seed) if label_index is None else label_index)
            elif seed in self.graph.index_of:
                indices.append(self.graph.index_of[seed])
            else:
                raise ConfigurationError(f"seed {seed!r} is not a node of the graph")
        return indices
