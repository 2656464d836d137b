"""Shared utilities: RNG management, timing, memory tracking and validation."""

from repro.utils.rng import RandomState, ensure_rng, splitmix64
from repro.utils.timer import Timer, timed
from repro.utils.memory import MemoryTracker, peak_memory_mb, peak_rss_mb
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RandomState",
    "ensure_rng",
    "splitmix64",
    "Timer",
    "timed",
    "MemoryTracker",
    "peak_memory_mb",
    "peak_rss_mb",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
