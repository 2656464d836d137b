"""Persistent influence index: warm seed selection over stored RR sketches.

An :class:`InfluenceIndex` pairs a compiled graph with a persisted (or
freshly sampled) :class:`~repro.sketches.collection.RRSetCollection` and
answers the queries the CLI used to recompute from scratch on every call:

* ``select(k)`` — greedy max coverage over the stored sets (the same
  argmax-over-gain-counters cover TIM+/IMM run after sampling, O(k · n +
  members of the covered sets)), with per-budget result caching;
* ``spread_curve(seed_counts)`` — a whole k-sweep from one cover pass;
* ``estimate_spread(seeds)`` — the RIS spread oracle for arbitrary seed
  sets, no resampling.

**Deterministic growth.**  ``grow(theta)`` appends new sampler blocks to the
stored collection and is *bit-for-bit* equivalent to building a fresh index
at the larger theta: the batch sampler consumes exactly one 63-bit token per
RR set from the engine generator, and bounded ``Generator.integers`` fills
are split-invariant, so re-creating the generator from the persisted
``engine_seed`` and drawing (and discarding) one token per stored set
resumes the token stream exactly where the original build stopped.  Each
set's randomness is a counter-based function of its own token, so the
appended sets are the ones a fresh build would have drawn — that is what
makes re-persisting a grown index indistinguishable from rebuilding.

Indexes validate their provenance before serving: an artifact is refused
unless its graph content fingerprint
(:func:`~repro.graphs.fingerprint.graph_fingerprint`) matches the loaded
graph, so a stale index can never silently answer for a modified network.
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    BudgetError,
    ConfigurationError,
    ExecutionInterrupted,
    IndexMismatchError,
    ServingError,
)
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.graphs.fingerprint import graph_fingerprint
from repro.serving.artifact import (
    IndexArtifact,
    build_metadata,
    load_index_artifact,
    save_index_artifact,
)
from repro.sketches.collection import RRSetCollection
from repro.utils.rng import ensure_rng
from repro.sketches.coverage import greedy_max_coverage, pad_with_unselected
from repro.sketches.sampler import (
    SUPPORTED_MODELS,
    BatchRRSampler,
    slots_in_flight,
)
from repro.telemetry.registry import default_registry
from repro.telemetry.tracing import span

DEFAULT_BLOCK_SIZE = 2048


@dataclass
class IndexSelection:
    """Result of a warm ``select(k)`` query."""

    seeds: List[Node]
    budget: int
    covered_fraction: float
    estimated_spread: float
    theta: int
    # Always empty; kept only because benchmarks/harness/workloads.py reads it.
    extras: Dict[str, object] = field(default_factory=dict)


class InfluenceIndex:
    """A stored RR-sketch collection serving seed selection and evaluation.

    Construct through :meth:`build` (sample now), :meth:`load` (reopen a
    persisted artifact against its graph) or :meth:`from_artifact`.
    All query methods are thread-safe; mutation (:meth:`grow`) is serialised
    against queries with an internal lock.
    """

    def __init__(
        self,
        compiled: CompiledGraph,
        collection: RRSetCollection,
        *,
        model: str,
        engine_seed: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        fingerprint: Optional[str] = None,
        memory_mapped: bool = False,
        path: Optional[pathlib.Path] = None,
        numpy_version: Optional[str] = None,
    ) -> None:
        if model not in SUPPORTED_MODELS:
            raise ConfigurationError(
                f"model must be one of {SUPPORTED_MODELS}, got {model!r}"
            )
        if block_size < 1:
            raise ConfigurationError(
                f"block_size must be >= 1, got {block_size}"
            )
        if collection.n != compiled.number_of_nodes:
            raise IndexMismatchError(
                f"collection covers {collection.n} nodes but the graph has "
                f"{compiled.number_of_nodes}"
            )
        self.graph = compiled
        self.collection = collection
        self.model = model
        self.engine_seed = int(engine_seed)
        self.block_size = int(block_size)
        self.fingerprint = fingerprint or graph_fingerprint(compiled)
        self.memory_mapped = memory_mapped
        self.path = path
        # The numpy that sampled the stored sets; growth replays its
        # Generator stream, which numpy does not keep stable across releases.
        self.numpy_version = numpy_version or np.__version__
        self._lock = threading.RLock()
        self._selection_cache: Dict[int, IndexSelection] = {}
        # Per-registry memo for default-registry counters: the registry can
        # be swapped at runtime (``set_default_registry``), so entries are
        # keyed on its identity and refreshed when it changes.  Only touched
        # under ``self._lock``.
        self._counter_memo: Dict[str, Tuple[object, object]] = {}

    def _counter(self, registry, name: str, help_text: str):
        """Resolve ``registry.counter(name)`` once per registry instance."""
        memo = self._counter_memo.get(name)
        if memo is not None and memo[0] is registry:
            return memo[1]
        counter = registry.counter(name, help_text)
        self._counter_memo[name] = (registry, counter)
        return counter

    # ------------------------------------------------------------ construction

    @classmethod
    def build(
        cls,
        graph: Union[DiGraph, CompiledGraph],
        model: str,
        theta: int,
        *,
        engine_seed: int = 0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        workers: int = 1,
        checkpoint=None,
        stop=None,
    ) -> "InfluenceIndex":
        """Sample ``theta`` RR sets under ``model`` and wrap them as an index.

        ``engine_seed`` must be an integer (not a live generator) because it
        is persisted with the artifact and replayed by :meth:`grow`.
        ``workers``, ``checkpoint`` and ``stop`` are forwarded to
        :meth:`grow`.
        """
        if not isinstance(engine_seed, (int, np.integer)):
            raise ConfigurationError(
                "engine_seed must be an integer so growth can replay the "
                f"token stream, got {type(engine_seed).__name__}"
            )
        if theta < 0:
            raise ConfigurationError(f"theta must be non-negative, got {theta}")
        compiled = graph.compile() if isinstance(graph, DiGraph) else graph
        index = cls(
            compiled,
            RRSetCollection(compiled.number_of_nodes),
            model=model,
            engine_seed=int(engine_seed),
            block_size=block_size,
        )
        if theta:
            index.grow(
                theta, workers=workers, checkpoint=checkpoint, stop=stop
            )
        return index

    @classmethod
    def from_artifact(
        cls,
        artifact: IndexArtifact,
        graph: Union[DiGraph, CompiledGraph],
    ) -> "InfluenceIndex":
        """Wrap a loaded artifact, validating its provenance against ``graph``."""
        compiled = graph.compile() if isinstance(graph, DiGraph) else graph
        metadata = artifact.metadata
        if int(metadata["n"]) != compiled.number_of_nodes:
            raise IndexMismatchError(
                f"artifact was built on {metadata['n']} nodes but the graph "
                f"has {compiled.number_of_nodes}"
            )
        fingerprint = graph_fingerprint(compiled)
        if metadata["graph_fingerprint"] != fingerprint:
            raise IndexMismatchError(
                "artifact fingerprint does not match the loaded graph "
                f"(stored {str(metadata['graph_fingerprint'])[:12]}…, "
                f"graph {fingerprint[:12]}…); the graph content changed "
                "since the index was built — rebuild the index"
            )
        return cls(
            compiled,
            artifact.collection(),
            model=str(metadata["model"]),
            engine_seed=int(metadata["engine_seed"]),
            block_size=int(metadata["block_size"]),
            fingerprint=fingerprint,
            memory_mapped=artifact.memory_mapped,
            path=artifact.path,
            numpy_version=str(metadata["numpy_version"]),
        )

    @classmethod
    def load(
        cls,
        path: Union[str, pathlib.Path],
        graph: Union[DiGraph, CompiledGraph],
        *,
        mmap: bool = True,
        verify_checksum: bool = True,
    ) -> "InfluenceIndex":
        """Reopen a persisted index artifact for ``graph`` (mmap by default)."""
        return cls.from_artifact(
            load_index_artifact(
                path, mmap=mmap, verify_checksum=verify_checksum
            ),
            graph,
        )

    # ------------------------------------------------------------- persistence

    @property
    def theta(self) -> int:
        """Number of stored RR sets."""
        return self.collection.num_sets

    @property
    def metadata(self) -> Dict[str, object]:
        """The provenance record persisted with the artifact."""
        return build_metadata(
            model=self.model,
            engine_seed=self.engine_seed,
            theta=self.theta,
            block_size=self.block_size,
            fingerprint=self.fingerprint,
            n=self.graph.number_of_nodes,
            m=self.graph.number_of_edges,
            numpy_version=self.numpy_version,
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Persist the index (CSR arrays + provenance) to ``path``."""
        with self._lock:
            saved = save_index_artifact(path, self.collection, self.metadata)
            self.path = saved
            return saved

    # ------------------------------------------------------------------ growth

    def grow(
        self,
        theta: int,
        *,
        workers: int = 1,
        checkpoint=None,
        stop=None,
    ) -> "InfluenceIndex":
        """Grow the stored collection to ``theta`` RR sets (no-op if smaller).

        Equivalent, bit-for-bit, to having built the index at ``theta`` in
        the first place — see the module docstring for why.  Invalidates the
        selection cache; re-persist with :meth:`save` to keep the artifact
        in sync.

        ``workers > 1`` fans the sampler blocks out to a
        :class:`~repro.runtime.pool.SupervisedPool`: the engine generator
        is consumed *here*, in serial block order, and workers receive the
        pre-drawn token blocks — so the grown collection is bit-for-bit
        identical to the serial path whatever the worker count, scheduling
        order, or crash/replay history.  ``checkpoint`` (a
        :class:`~repro.runtime.checkpoint.BuildCheckpoint`) persists the
        appended prefix periodically and on interrupt;
        ``stop`` is a zero-arg predicate polled at block boundaries that
        requests a cooperative halt via
        :class:`~repro.exceptions.ExecutionInterrupted`.
        """
        if theta < 0:
            raise ConfigurationError(f"theta must be non-negative, got {theta}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        with self._lock:
            existing = self.collection.num_sets
            if theta <= existing:
                return self
            if self.numpy_version != np.__version__:
                raise ServingError(
                    f"index was sampled under numpy {self.numpy_version} but "
                    f"this process runs numpy {np.__version__}; Generator "
                    "streams are not guaranteed stable across releases "
                    "(NEP 19), so growing would silently break the "
                    "grown == fresh guarantee — rebuild the index instead"
                )
            sampler = BatchRRSampler(self.graph, self.model)
            rng = ensure_rng(self.engine_seed)
            sampler.skip_tokens(rng, existing)
            registry = default_registry()
            sets_total = blocks_total = None
            if registry is not None:
                sets_total = self._counter(
                    registry,
                    "repro_index_rr_sets_total",
                    "RR sets appended to influence indexes.",
                )
                blocks_total = self._counter(
                    registry,
                    "repro_index_grow_blocks_total",
                    "Sampler blocks executed by index build/grow loops.",
                )

            def append_block(members: np.ndarray, indptr: np.ndarray) -> None:
                block = int(indptr.size - 1)
                self.collection.append(members, indptr)
                if sets_total is not None and blocks_total is not None:
                    sets_total.inc(block)
                    blocks_total.inc()
                if checkpoint is not None:
                    checkpoint.maybe_save(self, theta)

            # One sampler call per block_size tokens, at most 1024 of them
            # in flight.  sample_into's 4 * block_size calls, with 2048
            # slots, raised the index-serve workload's setup RSS from 87.2
            # to 90.6 MB here (+4% over 4 paired runs on a 2-vCPU VM,
            # against a 5% bound).  Chunking never changes the sets, since
            # each set's randomness comes from its own token.
            try:
                with span(
                    "index_grow",
                    model=self.model,
                    start=int(existing),
                    target=int(theta),
                    workers=int(workers),
                    slots=slots_in_flight(self.block_size, theta - existing),
                ):
                    if workers > 1:
                        self._grow_parallel(
                            sampler, rng, theta, workers, stop, append_block
                        )
                    else:
                        while self.collection.num_sets < theta:
                            if stop is not None and stop():
                                raise ExecutionInterrupted(
                                    "sample", self.collection.num_sets
                                )
                            block = min(
                                self.block_size,
                                theta - self.collection.num_sets,
                            )
                            members, indptr, _ = sampler.sample(rng, block)
                            append_block(members, indptr)
            except ExecutionInterrupted:
                # The appended prefix is a valid partial build; persist it
                # so an interrupted build is resumable instead of wasted.
                if checkpoint is not None:
                    checkpoint.save(self, theta)
                self._selection_cache.clear()
                raise
            self._selection_cache.clear()
            # Consolidation copies the mapped arrays into memory, so the
            # grown index is fully resident whatever its origin.
            self.memory_mapped = False
            return self

    def _grow_parallel(
        self,
        sampler: BatchRRSampler,
        rng: np.random.Generator,
        theta: int,
        workers: int,
        stop,
        append_block,
    ) -> None:
        """Fan pre-drawn token blocks out to a
        :class:`~repro.runtime.pool.SupervisedPool`.

        Tokens are drawn from ``rng`` here, block by block in serial order
        — the exact draws the serial loop would have made — and the pool's
        in-order result callback appends blocks in that same order, so
        parallelism never touches the randomness stream.  The compiled
        graph reaches the workers through the pool's ``init_args``, as in
        :class:`~repro.diffusion.simulation.MonteCarloEngine`.
        """
        from repro.runtime.pool import SupervisedPool
        from repro.sketches.sampler import (
            sampler_worker_init,
            sampler_worker_run,
        )

        payloads: List[np.ndarray] = []
        remaining = theta - self.collection.num_sets
        while remaining > 0:
            block = min(self.block_size, remaining)
            payloads.append(sampler.draw_tokens(rng, block))
            remaining -= block

        def on_result(index: int, result) -> None:
            members, indptr, _ = result
            append_block(members, indptr)

        with SupervisedPool(
            sampler_worker_run,
            workers=workers,
            init_fn=sampler_worker_init,
            init_args=(self.graph, self.model),
            name="index-grow",
        ) as pool:
            pool.run(payloads, stage="sample", stop=stop, on_result=on_result)

    # ----------------------------------------------------------------- queries

    def select(self, budget: int) -> IndexSelection:
        """Warm seed selection: greedy max coverage over the stored sets.

        The cover pass costs O(k · n + members of the covered sets): one
        ``argmax`` over the per-node gain counters and one ``np.bincount``
        decrement per pick, a few milliseconds on a 50k-set index.
        """
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        if budget > self.graph.number_of_nodes:
            raise BudgetError(budget, self.graph.number_of_nodes)
        with self._lock:
            cached = self._selection_cache.get(budget)
            registry = default_registry()
            if cached is not None:
                if registry is not None:
                    self._counter(
                        registry,
                        "repro_index_selection_cache_hits_total",
                        "select() answers served from the per-budget cache.",
                    ).inc()
                return cached
            with span("index_select", model=self.model, budget=int(budget)):
                covering, covered_fraction = greedy_max_coverage(
                    self.collection, budget
                )
            indices = pad_with_unselected(
                self.graph.number_of_nodes, covering, budget
            )
            selection = IndexSelection(
                seeds=self.graph.labels_for(indices),
                budget=budget,
                covered_fraction=covered_fraction,
                estimated_spread=covered_fraction * self.graph.number_of_nodes,
                theta=self.theta,
            )
            self._selection_cache[budget] = selection
            return selection

    def _indices_for(self, seeds: Sequence[Node]) -> List[int]:
        try:
            return self.graph.indices_for(seeds)
        except KeyError as error:
            raise ConfigurationError(
                f"seed {error.args[0]!r} is not a node of the indexed graph"
            )

    def estimate_spread(self, seeds: Sequence[Node]) -> float:
        """RIS spread estimate for ``seeds`` (given as graph labels).

        This is the raw estimator (seeds count themselves); subtract
        ``len(seeds)`` for the paper's Def. 3 objective, as
        :class:`repro.api.SketchEstimator` does.
        """
        indices = self._indices_for(seeds)
        with self._lock:
            return self.collection.estimated_spread(indices)

    def estimate_spreads(
        self, seed_sets: Sequence[Sequence[Node]]
    ) -> List[float]:
        """Batched :meth:`estimate_spread` — one pass for many seed sets."""
        return self._estimate_spreads_indices(
            [self._indices_for(seeds) for seeds in seed_sets]
        )

    def _estimate_spreads_indices(
        self, index_sets: Sequence[Sequence[int]]
    ) -> List[float]:
        """Batched oracle over compiled node indices, serialised vs growth.

        The service's coalescing leader calls this so its reads hold the
        same lock :meth:`grow` mutates the collection under.
        """
        with self._lock:
            registry = default_registry()
            if registry is not None:
                self._counter(
                    registry,
                    "repro_index_evaluations_total",
                    "Seed sets answered by the batched RIS oracle.",
                ).inc(len(index_sets))
            with span(
                "index_evaluate", model=self.model, batch=len(index_sets)
            ):
                return [
                    float(v)
                    for v in self.collection.estimated_spreads(index_sets)
                ]

    def spread_curve(self, seed_counts: Sequence[int]) -> Dict[int, float]:
        """Spread estimates for the first ``k`` selected seeds, each ``k``.

        The k-sweep behind "spread vs #seeds" figures, served warm: one
        greedy cover at ``max(seed_counts)`` plus one batched oracle pass.
        Values follow the raw RIS estimator (seeds included), matching
        :meth:`estimate_spread`.
        """
        counts = [int(k) for k in seed_counts]
        if any(k < 0 for k in counts):
            raise ConfigurationError("seed counts must be non-negative")
        if not counts:
            return {}
        top = self.select(max(counts))
        prefixes = [top.seeds[:k] for k in counts]
        spreads = self.estimate_spreads(prefixes)
        return dict(zip(counts, spreads))

    def __repr__(self) -> str:
        origin = " mmap" if self.memory_mapped else ""
        return (
            f"<InfluenceIndex {self.model} theta={self.theta} over "
            f"{self.graph.number_of_nodes} nodes{origin}>"
        )
