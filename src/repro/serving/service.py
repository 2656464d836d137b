"""Concurrent query service over attached influence indexes.

:class:`InfluenceService` holds a bounded pool of
:class:`~repro.serving.index.InfluenceIndex` objects keyed by
``(graph content fingerprint, model)``.  Indexes are built or loaded by the
caller and handed over with :meth:`~InfluenceService.attach`; the service
answers two request kinds against them: ``select`` (warm greedy seed
selection) and ``evaluate`` (RIS spread estimate of a given seed set).  A
request for a ``(graph, model)`` with no attached index raises
:class:`~repro.exceptions.ConfigurationError`.

* **LRU eviction** — at most ``capacity`` indexes stay resident; touching an
  index moves it to the back of the queue and attaching beyond capacity
  drops the front.  Eviction is safe under in-flight requests: they hold a
  reference to the index object, which stays fully functional after leaving
  the pool.
* **Request coalescing** — concurrent ``evaluate`` calls against the same
  index are drained by a single *leader* thread per index, which batches
  every queued seed set into one
  :meth:`~repro.sketches.collection.RRSetCollection.estimated_spreads`
  pass and hands each waiter its result.  A leader that dies mid-batch
  propagates its error to every parked waiter exactly once.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph, Node
from repro.graphs.fingerprint import graph_fingerprint
from repro.serving.index import IndexSelection, InfluenceIndex
from repro.telemetry.registry import MetricsRegistry, default_registry

ServiceKey = Tuple[str, str]

#: The ``stats()`` counter keys, backed by labeled children of
#: ``repro_serving_events_total`` on the service's registry.
_STAT_KEYS = (
    "index_hits",
    "index_evictions",
    "evaluate_requests",
    "evaluate_batches",
    "select_requests",
    # Always 0; kept only because benchmarks/harness/workloads.py reads them.
    "requests_shed",
    "degraded_answers",
)

#: The full (op, outcome) space for the per-request series.  Both axes are
#: closed sets, which lets the service resolve every labeled child once at
#: construction instead of paying a ``labels()`` lookup per request.
_REQUEST_OPS = ("evaluate", "select")
_REQUEST_OUTCOMES = ("ok", "error")


class EvaluateOutcome(float):
    """An ``evaluate`` result: a plain float."""

    __slots__ = ()
    # Always False; kept only because benchmarks/harness/workloads.py reads it.
    degraded = False


@dataclass
class _EvalRequest:
    """One queued evaluate call, parked until a leader computes its batch."""

    seeds: Tuple[int, ...]
    done: bool = False
    result: float = 0.0
    error: Optional[BaseException] = None


class InfluenceService:
    """Thread-safe influence-query service with LRU index management.

    Requests name their graph as a :class:`CompiledGraph` and are keyed by
    its content fingerprint, which the immutable snapshot caches.

    Parameters
    ----------
    capacity:
        Maximum number of resident indexes; least-recently-used eviction
        beyond that.
    registry:
        The :class:`~repro.telemetry.registry.MetricsRegistry` this
        service records into; ``None`` (the default) creates a private
        one, so two services never share counters.  The ``stats()`` keys
        are views over ``repro_serving_events_total`` on this registry and
        are always maintained; the per-request series (latency histograms,
        labeled outcome counters) additionally follow the process-global
        telemetry switch — ``set_default_registry(None)`` turns them off
        at one attribute read per request.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        # Coalescing state shares the service lock through a condition so a
        # retiring leader can wake parked followers to take over the queue.
        self._eval_cond = threading.Condition(self._lock)
        self._indexes: "OrderedDict[ServiceKey, InfluenceIndex]" = OrderedDict()
        self._pending: Dict[ServiceKey, List[_EvalRequest]] = {}
        self._leaders: Dict[ServiceKey, bool] = {}
        # Metrics live on the registry; handles are resolved once here so
        # hot paths touch no dicts.  The stats() counters stay a plain
        # labeled counter family, reconstructed as a dict by stats().
        self.telemetry = registry if registry is not None else MetricsRegistry()
        events = self.telemetry.counter(
            "repro_serving_events_total",
            "Service lifecycle events, keyed like the stats() dict.",
            ("event",),
        )
        self._events = {key: events.labels(event=key) for key in _STAT_KEYS}
        requests_total = self.telemetry.counter(
            "repro_serving_requests_total",
            "Query requests by operation and outcome.",
            ("op", "outcome"),
        )
        request_seconds = self.telemetry.histogram(
            "repro_serving_request_seconds",
            "End-to-end service call latency by operation.",
            ("op",),
        )
        # ``labels()`` takes the family lock per call; the (op, outcome)
        # space is tiny and fixed, so resolve every child once here and the
        # per-request path is two dict hits plus atomic increments.
        self._request_children = {
            (op, outcome): requests_total.labels(op=op, outcome=outcome)
            for op in _REQUEST_OPS
            for outcome in _REQUEST_OUTCOMES
        }
        self._latency_children = {
            op: request_seconds.labels(op=op) for op in _REQUEST_OPS
        }

    # --------------------------------------------------------------- metrics

    def _bump(self, event: str) -> None:
        """Increment one stats() counter (always on)."""
        self._events[event].inc()

    def _observe_request(self, op: str, outcome: str, started: float) -> None:
        """Record the per-request series; off ⇒ one attribute read."""
        if default_registry() is None:
            return
        self._request_children[op, outcome].inc()
        self._latency_children[op].observe(max(time.monotonic() - started, 0.0))

    # ------------------------------------------------------------- index pool

    def attach(self, index: InfluenceIndex) -> ServiceKey:
        """Make ``index`` resident under ``(fingerprint, model)``."""
        key = (index.fingerprint, index.model)
        with self._lock:
            self._indexes[key] = index
            self._indexes.move_to_end(key)
            while len(self._indexes) > self.capacity:
                self._indexes.popitem(last=False)
                self._bump("index_evictions")
        return key

    def _get_index(
        self, graph: CompiledGraph, model: str
    ) -> Tuple[ServiceKey, InfluenceIndex]:
        """The attached index for ``(graph, model)``, touched for LRU."""
        key = (graph_fingerprint(graph), model)
        with self._lock:
            index = self._indexes.get(key)
            if index is not None:
                self._indexes.move_to_end(key)
                self._bump("index_hits")
                return key, index
        raise ConfigurationError(
            f"no index attached for model {model!r} on graph {key[0][:12]}; "
            "build or load one with InfluenceIndex and pass it to attach()"
        )

    # ---------------------------------------------------------------- queries

    def select(
        self, graph: CompiledGraph, model: str, budget: int
    ) -> IndexSelection:
        """Warm seed selection through the resident index."""
        started = time.monotonic()
        outcome = "error"
        try:
            self._bump("select_requests")
            _, index = self._get_index(graph, model)
            selection = index.select(budget)
            outcome = "ok"
            return selection
        finally:
            self._observe_request("select", outcome, started)

    def evaluate(
        self, graph: CompiledGraph, model: str, seeds: Sequence[Node]
    ) -> EvaluateOutcome:
        """RIS spread estimate of ``seeds``, coalescing concurrent callers.

        The calling thread enqueues its request; if no leader is active for
        the index it takes leadership and serves the queued batch in one
        vectorized pass, otherwise it parks until a leader publishes its
        result.  A leader retires as soon as its *own* request is answered
        (bounded latency — no caller becomes a permanent batch executor);
        if requests remain queued it wakes a parked follower, which takes
        over leadership for the next batch.
        """
        started = time.monotonic()
        outcome = "error"
        try:
            key, index = self._get_index(graph, model)
            indices = tuple(index._indices_for(seeds))
            result = EvaluateOutcome(self._coalesced_evaluate(index, key, indices))
            outcome = "ok"
            return result
        finally:
            self._observe_request("evaluate", outcome, started)

    def _coalesced_evaluate(
        self, index: InfluenceIndex, key: ServiceKey, indices: Tuple[int, ...]
    ) -> float:
        request = _EvalRequest(indices)
        with self._eval_cond:
            self._pending.setdefault(key, []).append(request)
            self._bump("evaluate_requests")
            while True:
                if request.error is not None:
                    raise request.error
                if request.done:
                    return request.result
                if not self._leaders.get(key, False):
                    self._leaders[key] = True
                    break
                self._eval_cond.wait()
        batch: List[_EvalRequest] = []
        try:
            while True:
                with self._eval_cond:
                    if request.done or request.error is not None:
                        self._retire_leader(key)
                        break
                    batch = self._pending.pop(key, [])
                    if not batch:
                        # Retirement happens in the same critical section
                        # that observes the state — otherwise a request
                        # enqueued in between would park behind an exiting
                        # leader.
                        self._retire_leader(key)
                        break
                    self._bump("evaluate_batches")
                self._serve_batch(index, batch)
                with self._eval_cond:
                    self._eval_cond.notify_all()
        except BaseException as error:
            # The batch in flight was already popped from the queue; its
            # unanswered requests get the error too, or their parked callers
            # would wake to a default 0.0 result.
            with self._eval_cond:
                for parked in batch + self._pending.pop(key, []):
                    if not parked.done:
                        parked.error = error
                self._retire_leader(key)
            raise
        if request.error is not None:
            raise request.error
        return request.result

    def _retire_leader(self, key: ServiceKey) -> None:
        """Release leadership for ``key`` (callers hold ``_eval_cond``).

        Entries are popped, not blanked, so a long-lived service does not
        accumulate one dict slot per key ever served; parked followers are
        woken so one of them can claim the queue if work remains.
        """
        self._leaders.pop(key, None)
        if not self._pending.get(key):
            self._pending.pop(key, None)
        self._eval_cond.notify_all()

    @staticmethod
    def _serve_batch(index: InfluenceIndex, batch: List[_EvalRequest]) -> None:
        try:
            # Goes through the index so the read holds the lock grow()
            # mutates the collection under — a concurrent ``index.grow`` must
            # never interleave with the batched oracle pass.
            spreads = index._estimate_spreads_indices(
                [request.seeds for request in batch]
            )
        except BaseException as error:  # repro: noqa[REP004] — every waiter gets the error below
            for request in batch:
                request.error = error
                request.done = True
            return
        for request, spread in zip(batch, spreads):
            request.result = float(spread)
            request.done = True

    # -------------------------------------------------------------- telemetry

    def stats(self) -> Dict[str, object]:
        """A consistent snapshot of service counters and resident indexes.

        The counters and resident-index rows are read inside one critical
        section, so they are mutually consistent even under concurrent
        traffic; every nested structure is freshly built, so callers can
        mutate the result without touching live service state.  The
        counters are views over the service's
        :class:`~repro.telemetry.registry.MetricsRegistry`
        (``repro_serving_events_total``).
        """
        with self._lock:
            resident = [
                {
                    "model": index.model,
                    "theta": index.theta,
                    "nodes": index.graph.number_of_nodes,
                    "memory_mapped": index.memory_mapped,
                    "fingerprint": key[0][:12],
                }
                for key, index in self._indexes.items()
            ]
            snapshot: Dict[str, object] = {
                key: int(self._events[key].value) for key in _STAT_KEYS
            }
        snapshot["resident_indexes"] = resident
        snapshot["capacity"] = self.capacity
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexes)

    def __repr__(self) -> str:
        return (
            f"<InfluenceService {len(self)}/{self.capacity} indexes resident>"
        )
