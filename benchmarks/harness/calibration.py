"""Host-speed calibration: timings scaled to a quiet host.

The benchmark runs on a few cores of a shared host.  A neighbour's load
slows every instruction of this process for tens of seconds to minutes at a
time, by up to 2x, while process CPU time keeps tracking wall time, so no
clock of the process can tell a slow host from slow code.  A fixed kernel of
interpreter and numpy work, timed between the benchmark's samples, can: it
slows with the host, not with the program.  Each sample is scaled by
:func:`factor` of the kernel times just before and just after it, which
turns it into the seconds it would have taken on the host at the speed the
kernel ran when :data:`REFERENCE_S` was measured.

The kernel runs no code of the program, so a change to the program moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's fastest wall time over 300 passes on a 2-vCPU Xeon VM at
#: 2.1 GHz (Python 3.11, numpy 2.4): the speed every timing is scaled to.
REFERENCE_S = 0.022

#: Sized so the interpreter and numpy halves take about the same time: the
#: even mix tracked the workloads' slowdowns best.
_WORDS = 60_000
_ARRAY = np.random.default_rng(0).permutation(1 << 17)


def kernel_s() -> float:
    """Wall time of one fixed pass of interpreter-bound and numpy work."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(_WORDS):
        key = (i * 7919) % 613
        counts[key] = counts.get(key, 0) + i
    order = np.argsort(_ARRAY, kind="stable")
    np.bincount(_ARRAY[order] % 1024).cumsum()
    return time.perf_counter() - started


def factor(before: float, after: float) -> float:
    """What a sample timed between kernels of ``before`` and ``after`` seconds
    is multiplied by to read as on the quiet reference host."""
    return REFERENCE_S / ((before + after) / 2.0)
