"""Parallel execution runtime: a crash-replaying pool and checkpoints.

This package is the only place in the library allowed to create worker
processes (lint rule REP010 enforces it).  It provides:

* :class:`~repro.runtime.pool.SupervisedPool` — a process pool over
  deterministic task blocks that returns results in block order and
  replays a dead worker's unfinished blocks in the parent;
* :class:`~repro.runtime.checkpoint.BuildCheckpoint` /
  :class:`~repro.runtime.checkpoint.RunCheckpoint` — atomic
  checkpoint/resume for index builds and experiment runs;
* :class:`~repro.runtime.interrupt.InterruptGuard` — cooperative
  SIGINT/SIGTERM stop requests at block boundaries.
"""

from repro.runtime.checkpoint import (
    BUILD_CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    DEFAULT_CHECKPOINT_EVERY,
    RUN_CHECKPOINT_FORMAT,
    BuildCheckpoint,
    RunCheckpoint,
)
from repro.runtime.interrupt import InterruptGuard
from repro.runtime.pool import SupervisedPool

__all__ = [
    "BUILD_CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "RUN_CHECKPOINT_FORMAT",
    "BuildCheckpoint",
    "InterruptGuard",
    "RunCheckpoint",
    "SupervisedPool",
]
