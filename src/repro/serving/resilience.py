"""Fault-tolerance primitives for the serving layer.

Three small, composable pieces used by :mod:`repro.serving.service` and
threaded through the artifact store and index build path:

* :class:`Deadline` — an absolute time budget created at admission and
  propagated through build → sample → select/evaluate.  Every stage calls
  :meth:`Deadline.check` at its natural yield points (block boundaries of
  the RR sampler, batch boundaries of the coalescing leader), so a request
  that cannot finish in budget raises
  :class:`~repro.exceptions.DeadlineExceeded` at the *next* checkpoint
  instead of hanging.
* :class:`RetryPolicy` — exponential backoff with *deterministic* jitter
  for transient artifact-IO failures.  The jitter for attempt ``i`` is a
  pure function of ``(seed, i)`` (a SplitMix64 mix, the same generator the
  sketch sampler uses for counter-based randomness), so a chaos run that
  exercises the retry path is replayable bit-for-bit.
* :class:`CircuitBreaker` — a per-index three-state breaker
  (closed → open → half-open).  Repeated build/load failures trip it; while
  open, callers fail fast with
  :class:`~repro.exceptions.CircuitOpenError` (or degrade); after
  ``reset_timeout`` it half-opens and admits one probe, whose outcome
  closes or re-opens the circuit.

All three take an injectable ``clock``/``sleep`` so tests drive them with
virtual time instead of wall-clock sleeps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceeded,
)
from repro.utils.rng import splitmix64

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "deterministic_jitter",
]


def deterministic_jitter(seed: int, counter: int) -> float:
    """A uniform draw in ``[0, 1)`` that is a pure function of its inputs.

    Used for retry backoff jitter and fault-plan probability coins: the
    draw depends only on ``(seed, counter)``, never on thread interleaving
    or wall clock, which is what makes chaos runs replayable.
    """
    return splitmix64((seed << 20) ^ counter) / 2.0 ** 64


class Deadline:
    """An absolute time budget carried through a request's whole pipeline.

    Construct once at admission (:meth:`after_seconds` / :meth:`after_ms`)
    and pass the same object down; ``remaining()`` shrinks as stages spend
    the shared budget, and :meth:`check` raises
    :class:`~repro.exceptions.DeadlineExceeded` naming the stage that
    observed the expiry.
    """

    __slots__ = ("budget_seconds", "expires_at", "_clock")

    def __init__(
        self,
        budget_seconds: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_seconds <= 0:
            raise ConfigurationError(
                f"deadline budget must be positive, got {budget_seconds}"
            )
        self.budget_seconds = float(budget_seconds)
        self._clock = clock
        self.expires_at = clock() + self.budget_seconds

    @classmethod
    def after_seconds(
        cls, seconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(seconds, clock=clock)

    @classmethod
    def after_ms(
        cls, milliseconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(milliseconds / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` (naming ``stage``) if expired."""
        overrun = -self.remaining()
        if overrun >= 0.0:
            raise DeadlineExceeded(stage, self.budget_seconds, overrun)

    def require(self, seconds: float, stage: str) -> None:
        """Raise unless at least ``seconds`` of budget remain.

        The "deadline too tight" pre-check: refusing to *start* a cold index
        build that cannot possibly finish lets the service degrade
        immediately instead of wasting the caller's whole budget first.
        """
        remaining = self.remaining()
        if remaining < seconds:
            raise DeadlineExceeded(
                stage, self.budget_seconds, seconds - remaining
            )

    def __repr__(self) -> str:
        return (
            f"<Deadline budget={self.budget_seconds * 1000.0:.0f}ms "
            f"remaining={self.remaining() * 1000.0:.0f}ms>"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter for transient IO.

    ``delay(attempt)`` is ``base_delay * multiplier**attempt`` capped at
    ``max_delay``, then shrunk by up to ``jitter`` (a fraction in [0, 1])
    using :func:`deterministic_jitter` of ``(seed, attempt)`` — so two runs
    with the same policy back off identically, and policies with different
    seeds decorrelate (no thundering herd of identical retry schedules).

    :meth:`call` runs a callable, retrying on ``retry_on`` exceptions up to
    ``attempts`` total tries; a :class:`Deadline` bounds the whole schedule
    (no retry is attempted whose backoff would outlive the budget).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (OSError,)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), in seconds."""
        raw = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        return raw * (1.0 - self.jitter * deterministic_jitter(self.seed, attempt))

    def call(
        self,
        fn: Callable[[], object],
        *,
        deadline: Optional[Deadline] = None,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> object:
        """Run ``fn`` with retries; the last failure propagates unwrapped."""
        for attempt in range(self.attempts):
            if deadline is not None:
                deadline.check("retry")
            try:
                return fn()
            except self.retry_on as error:
                if attempt + 1 >= self.attempts:
                    raise
                pause = self.delay(attempt)
                if deadline is not None and deadline.remaining() <= pause:
                    # The backoff would outlive the budget: surface the
                    # transient error now, the caller's deadline handling
                    # (degrade or fail) beats sleeping into certain expiry.
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(pause)
        raise AssertionError("unreachable: loop returns or raises")


class CircuitBreaker:
    """Three-state circuit breaker guarding a repeatedly-failing resource.

    * **closed** — normal operation; ``failure_threshold`` *consecutive*
      failures trip the breaker.
    * **open** — :meth:`allow` returns ``False`` (callers fail fast or
      degrade) until ``reset_timeout`` has elapsed.
    * **half-open** — exactly one probe is admitted; its success closes the
      circuit, its failure re-opens it for another full timeout.

    Thread-safe; ``clock`` is injectable so tests use virtual time.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ConfigurationError(f"reset_timeout must be > 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_inflight = False
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            return self.HALF_OPEN
        return self._state

    def retry_after(self) -> float:
        """Seconds until the breaker will half-open (0 when not open)."""
        with self._lock:
            if self._state != self.OPEN or self._opened_at is None:
                return 0.0
            return max(
                self._opened_at + self.reset_timeout - self._clock(), 0.0
            )

    def allow(self) -> bool:
        """Whether a caller may proceed; half-open admits a single probe."""
        with self._lock:
            state = self._peek_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                if self._probe_inflight:
                    return False
                self._state = self.HALF_OPEN
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                # Failed probe: straight back to open for a full timeout.
                self._trip()
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()
            elif self._state == self.OPEN:
                # Failure recorded while open (e.g. a racing caller that was
                # admitted before the trip): restart the cooldown.
                self._opened_at = self._clock()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._probe_inflight = False
        self.trips += 1

    def guard(self, subject: str) -> None:
        """Raise :class:`CircuitOpenError` unless :meth:`allow` admits us."""
        if not self.allow():
            raise CircuitOpenError(subject, self.retry_after())

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.state} "
            f"failures={self._consecutive_failures}/{self.failure_threshold}>"
        )
