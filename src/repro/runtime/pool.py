"""Process pool with in-parent crash replay over deterministic task blocks.

:class:`SupervisedPool` is a :class:`concurrent.futures.ProcessPoolExecutor`
plus what the compute layer's parallelism contract needs: results in block
order (or streamed in block order), a cooperative stop predicate, and
crash replay.  A worker that dies (an OOM kill) breaks the executor; the
pool keeps the blocks that finished, runs the rest in the parent (calling
``init_fn`` there once) and starts a fresh executor on the next ``run``.
A task that *raises* is not replayed — it would raise again — and
surfaces as :class:`~repro.exceptions.TaskFailedError`.  A worker whose
parent dies without closing the pool (a SIGKILL) exits on its own.

**Replay invariant.**  A task's payload fully determines its result — the
RR sampler's counter-based token blocks and the Monte-Carlo engine's
pre-drawn ``(seed, count)`` block plans both satisfy it — so a replayed
block is bit-for-bit identical to its first execution.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

from repro.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
    TaskFailedError,
)
from repro.telemetry.registry import default_registry

__all__ = ["SupervisedPool"]

#: How long ``run`` waits for a completion before polling ``stop`` again.
_POLL_SECONDS = 0.05

#: How often a worker checks that the process that started it is alive.
_ORPHAN_POLL_SECONDS = 0.25


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(1)


def _worker_init(
    parent_pid: int, init_fn: Optional[Callable[..., None]], init_args: tuple
) -> None:
    """Executor initializer: exit once orphaned, then run ``init_fn``."""
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True
    ).start()
    if init_fn is not None:
        init_fn(*init_args)


class SupervisedPool:
    """A process pool over deterministic task blocks that replays crashes.

    Parameters
    ----------
    task_fn:
        Module-level callable executed per payload (must be picklable on
        spawn platforms).  Its result must be a pure function of the
        payload — the replay invariant.
    workers:
        Number of worker processes.
    init_fn / init_args:
        Optional once-per-worker initializer that ships the big read-only
        state (a compiled graph) once instead of per task.

    Workers live across :meth:`run` calls (the greedy Monte-Carlo hot path
    estimates thousands of times against one pool); :meth:`close` (or the
    context manager) tears them down.
    """

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        *,
        workers: int,
        init_fn: Optional[Callable[..., None]] = None,
        init_args: tuple = (),
        name: str = "pool",
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.task_fn = task_fn
        self.workers = int(workers)
        self.init_fn = init_fn
        self.init_args = init_args
        self.name = name
        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn"
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._parent_initialised = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down; the pool cannot run again."""
        self._closed = True
        self._shutdown()

    def _shutdown(self) -> None:
        """Cancel queued blocks, wait for running ones, join the workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        registry = default_registry()
        if registry is not None:
            registry.counter(name, help_text).inc(amount)

    def _outcome(self, index: int, compute: Callable[[], Any]) -> Any:
        """``compute()``, with a task exception raised as TaskFailedError."""
        try:
            return compute()
        except BrokenProcessPool:
            raise
        except Exception as error:
            raise TaskFailedError(
                f"{self.name}[{index}]", f"{type(error).__name__}: {error}"
            ) from error

    def _run_in_parent(self, payload: Any) -> Any:
        if self.init_fn is not None and not self._parent_initialised:
            self.init_fn(*self.init_args)
            self._parent_initialised = True
        self._count(
            "repro_runtime_blocks_replayed_total",
            "Blocks re-executed in the parent after a worker crash.",
        )
        return self.task_fn(payload)

    # ------------------------------------------------------------------ run

    def run(
        self,
        payloads: Sequence[Any],
        *,
        stage: str = "runtime",
        stop: Optional[Callable[[], bool]] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> Optional[List[Any]]:
        """Execute every payload; results come back in payload order.

        With ``on_result`` the pool streams instead: the callback receives
        ``(index, result)`` strictly in index order, so a caller can append
        blocks (and checkpoint a prefix) exactly as a serial loop would,
        and ``run`` returns ``None``.  ``stop`` (a zero-arg callable) is
        polled while waiting; when it returns true, ``run`` raises
        :class:`~repro.exceptions.ExecutionInterrupted` naming ``stage``.
        """
        payloads = list(payloads)
        total = len(payloads)
        results: Optional[List[Any]] = None if on_result is not None else [None] * total
        if total == 0:
            return results
        if self._closed:
            raise ConfigurationError(
                f"supervised pool {self.name!r} is closed; create a new pool"
            )
        done = 0

        def record(index: int, value: Any) -> None:
            nonlocal done
            if results is not None:
                results[index] = value
            else:
                on_result(index, value)
            done += 1

        def check_stop() -> None:
            if stop is not None and stop():
                raise ExecutionInterrupted(stage, done)

        futures: List[Future] = []
        try:
            check_stop()
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._ctx,
                    initializer=_worker_init,
                    initargs=(os.getpid(), self.init_fn, self.init_args),
                )
            try:
                for payload in payloads:
                    futures.append(self._executor.submit(self.task_fn, payload))
                for index, future in enumerate(futures):
                    check_stop()
                    while not wait((future,), timeout=_POLL_SECONDS).done:
                        check_stop()
                    record(index, self._outcome(index, future.result))
            except BrokenProcessPool:
                # A worker died, so the executor failed every unfinished
                # block; shutting it down resolves all of its futures.
                self._shutdown()
                for index in range(done, total):
                    check_stop()
                    future = futures[index] if index < len(futures) else None
                    if future is None or future.cancelled() or future.exception():
                        payload = payloads[index]
                        value = self._outcome(index, lambda: self._run_in_parent(payload))
                    else:
                        value = future.result()
                    record(index, value)
            self._count(
                "repro_runtime_blocks_total",
                "Blocks completed by supervised pools.",
                total,
            )
            return results
        except BaseException:
            # An interrupt or a task failure must not leave workers running
            # a stale generation of tasks.  The pool itself stays usable:
            # the next run() starts a fresh executor.
            self._shutdown()
            raise
