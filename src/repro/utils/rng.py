"""Random-number-generator plumbing.

Every stochastic component in the library (diffusion simulation, dataset
synthesis, sampling algorithms) accepts either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalises
those three spellings into a single ``Generator`` so results are reproducible
whenever a seed is supplied.  Components that need draws keyed by a
counter instead (RR-set sampling, retry jitter, span IDs) use
:func:`splitmix64`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import RNGError

# Public alias used in type hints across the package.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for non-deterministic behaviour, an ``int`` for a fresh
        deterministic generator, or an existing ``Generator`` which is
        returned unchanged.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise RNGError(
        f"seed must be None, an int or a numpy Generator, got {type(seed).__name__}"
    )


#: SplitMix64 constants (Steele, Lea and Flood 2014): the Weyl-sequence
#: increment and the two multipliers of the 64-bit finalizer.
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX64_MUL_A = 0xBF58476D1CE4E5B9
SPLITMIX64_MUL_B = 0x94D049BB133111EB
MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(value: int) -> int:
    """One SplitMix64 step: advance ``value`` by the increment and mix it.

    The library's counter-based generator: a pure function of its input,
    so draws keyed by ``(seed, counter)`` are replayable regardless of
    thread interleaving.  The RR sampler applies the same finalizer to
    whole uint64 arrays.
    """
    value = (value + SPLITMIX64_GAMMA) & MASK64
    value = ((value ^ (value >> 30)) * SPLITMIX64_MUL_A) & MASK64
    value = ((value ^ (value >> 27)) * SPLITMIX64_MUL_B) & MASK64
    return value ^ (value >> 31)
