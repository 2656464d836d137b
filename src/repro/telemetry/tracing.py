"""Lightweight trace spans with deterministic IDs and injectable clocks.

A :class:`TraceRecorder` collects :class:`Span` objects into a bounded
ring buffer; :func:`span` is the module-level instrumentation hook::

    with span("rr_sample", model="ic", theta=20_000):
        draw_blocks()

When no recorder is installed the hook returns a shared no-op span after
a single module attribute read — the same idle-cost contract as
``repro.serving.faults.trigger`` — so library hot paths stay free to
instrument unconditionally.

**Determinism.**  Span IDs are minted from a SplitMix64 counter stream
seeded by the recorder (:func:`repro.utils.rng.splitmix64`, the generator
the RR sampler and the fault planner use), so two runs of the same
workload produce identical IDs and parent links.  Timings come from an
injectable monotonic clock (REP002: never the wall clock), which chaos
tests replace with virtual time.

Parent links are tracked per thread: a span opened while another span is
active on the same thread records that span as its parent, giving each
thread a well-formed span tree.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError, LifecycleError
from repro.utils.rng import MASK64, SPLITMIX64_GAMMA, splitmix64

__all__ = [
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "current_recorder",
    "install_recorder",
    "recording",
    "span",
    "uninstall_recorder",
]

AttrValue = Union[str, int, float, bool, None]


class Span:
    """One timed, attributed region of execution.

    Usable only through :meth:`TraceRecorder.span` / :func:`span`; entering
    starts the clock and links the parent, exiting stops the clock and
    commits the span to the recorder's ring buffer.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "thread",
        "_recorder",
    )

    def __init__(
        self,
        recorder: "TraceRecorder",
        name: str,
        attributes: Dict[str, AttrValue],
    ) -> None:
        self.name = name
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.start = 0.0
        self.end: Optional[float] = None
        self.attributes = attributes
        self.thread = 0
        self._recorder = recorder

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **attributes: AttrValue) -> "Span":
        """Attach attributes discovered mid-span; returns self."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "thread": self.thread,
            "attributes": dict(self.attributes),
        }

    def __enter__(self) -> "Span":
        self._recorder._begin(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder._finish(self)

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.span_id or '?'} {self.duration:.6f}s>"


class _NullSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **attributes: AttrValue) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects finished spans into a bounded ring buffer.

    Parameters
    ----------
    seed:
        Seeds the SplitMix64 stream span IDs are minted from; the same
        seed and span order reproduce the same IDs.
    clock:
        Monotonic time source for span start/end.  Injectable so virtual
        clocks can drive deterministic timing tests (REP002).
    capacity:
        Ring-buffer size; once full, the oldest finished span is dropped
        and counted in :attr:`dropped`.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.dropped = 0
        self._seed = int(seed) & MASK64
        self._clock = clock
        self._counter = 0
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}

    # ------------------------------------------------------------- lifecycle

    def span(self, name: str, **attributes: AttrValue) -> Span:
        """A context manager timing one region under ``name``."""
        return Span(self, name, dict(attributes))

    def _mint_id(self) -> str:
        with self._lock:
            self._counter += 1
            token = splitmix64((self._seed * SPLITMIX64_GAMMA + self._counter) & MASK64)
        return f"{token:016x}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_ordinal(self) -> int:
        """Small stable per-thread number (first-seen order), for exports."""
        ident = threading.get_ident()
        with self._lock:
            ordinal = self._threads.get(ident)
            if ordinal is None:
                ordinal = self._threads[ident] = len(self._threads)
        return ordinal

    def _begin(self, span: Span) -> None:
        if span.end is not None or span.span_id:
            raise LifecycleError("a Span context manager is single-use")
        stack = self._stack()
        span.span_id = self._mint_id()
        span.parent_id = stack[-1].span_id if stack else None
        span.thread = self._thread_ordinal()
        stack.append(span)
        span.start = self._clock()

    def _finish(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if span in stack:
            # Pop through the span even if an inner span leaked (an
            # exception skipped its __exit__): the stack stays truthful.
            while stack and stack.pop() is not span:
                pass
        with self._lock:
            if len(self._spans) >= self.capacity:
                self._spans.popleft()
                self.dropped += 1
            self._spans.append(span)

    # ------------------------------------------------------------ inspection

    def finished(self) -> List[Span]:
        """Finished spans, oldest first (a copy)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        return f"<TraceRecorder {len(self)}/{self.capacity} spans>"


# ------------------------------------------------------- process-global hook

_active: Optional[TraceRecorder] = None
_swap_lock = threading.Lock()


def span(name: str, **attributes: AttrValue) -> Union[Span, _NullSpan]:
    """Open a span on the installed recorder, or a no-op when none is.

    The disabled path is one module attribute read plus a ``None`` check.
    """
    recorder = _active
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attributes)


def current_recorder() -> Optional[TraceRecorder]:
    return _active


def install_recorder(
    recorder: Optional[TraceRecorder],
) -> Optional[TraceRecorder]:
    """Install ``recorder`` process-wide; returns the previous one."""
    global _active
    with _swap_lock:
        previous = _active
        _active = recorder
    return previous


def uninstall_recorder() -> Optional[TraceRecorder]:
    """Remove the installed recorder; returns it."""
    return install_recorder(None)


class recording:
    """Context manager scoping an installed recorder::

        recorder = TraceRecorder(seed=7)
        with recording(recorder):
            run_instrumented_code()
        tree = [s.to_dict() for s in recorder.finished()]
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        self._previous: Optional[TraceRecorder] = None

    def __enter__(self) -> TraceRecorder:
        self._previous = install_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info: object) -> None:
        install_recorder(self._previous)
