"""Unit tests for the utils package (rng, timer, memory, validation)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import BudgetError, ConfigurationError
from repro.utils import (
    MemoryTracker,
    Timer,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
    ensure_rng,
    peak_memory_mb,
    splitmix64,
    timed,
)
from repro.utils.timer import time_call
from repro.utils.validation import check_budget


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")



class TestSplitMix64:
    def test_first_output_of_the_standard_stream(self):
        # SplitMix64 seeded with 0: the first output of the reference
        # implementation (Steele, Lea and Flood 2014).
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_vectorised_finalizer_agrees_with_scalar_form(self):
        from repro.sketches.sampler import _mix64
        from repro.utils.rng import SPLITMIX64_GAMMA

        counters = [0, 1, 2, 12345, 2**32 + 7, 2**63, 2**64 - SPLITMIX64_GAMMA - 1]
        mixed = _mix64(np.array(counters, dtype=np.uint64) + np.uint64(SPLITMIX64_GAMMA))
        assert [int(value) for value in mixed] == [splitmix64(c) for c in counters]

    def test_retry_jitter_and_span_ids_are_pinned(self):
        """Values recorded before the generator was shared: chaos replays
        and exported span IDs stay byte-identical."""
        from repro.serving.resilience import deterministic_jitter
        from repro.telemetry.tracing import TraceRecorder

        cases = ((0, 0), (7, 3), (20160626, 11), (2**40 + 5, 2**19))
        assert [deterministic_jitter(s, c).hex() for s, c in cases] == [
            "0x1.c4415072f63bap-1",
            "0x1.348c196561e76p-5",
            "0x1.160a1c7b9cd45p-1",
            "0x1.768c026351968p-7",
        ]
        recorder = TraceRecorder(seed=42)
        assert [recorder._mint_id() for _ in range(3)] == [
            "3c821fbf59108163",
            "021aa27732571887",
            "b4eda631273e57ef",
        ]
        recorder = TraceRecorder(seed=2**64 + 9)
        assert [recorder._mint_id() for _ in range(2)] == [
            "cb435c8e74616796",
            "ba450a33ef6ff86c",
        ]


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first

    def test_double_start_raises(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0

    def test_timed_context(self):
        with timed() as timer:
            time.sleep(0.005)
        assert timer.elapsed >= 0.004

    def test_time_call(self):
        result, elapsed = time_call(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0.0

    def test_manual_stop_inside_context_does_not_raise_on_exit(self):
        # Regression: __exit__ used to call stop() unconditionally, so an
        # early manual stop() turned the block exit into a LifecycleError
        # (masking any in-flight exception with it).
        timer = Timer()
        with timer:
            elapsed = timer.stop()
        assert timer.elapsed == elapsed
        assert not timer.running

    def test_manual_stop_does_not_mask_block_exception(self):
        timer = Timer()
        with pytest.raises(ValueError, match="boom"):
            with timer:
                timer.stop()
                raise ValueError("boom")

    def test_timed_survives_manual_stop(self):
        with timed() as timer:
            timer.stop()
        assert not timer.running


class TestMemory:
    def test_tracker_measures_allocation(self):
        with MemoryTracker() as tracker:
            data = np.zeros(2_000_000, dtype=np.float64)  # ~16 MB
            data[0] = 1.0
        assert tracker.peak_mb > 10.0

    def test_peak_before_exit_raises(self):
        tracker = MemoryTracker()
        with pytest.raises(RuntimeError):
            _ = tracker.peak_mb

    def test_peak_memory_mb_helper(self):
        result, peak = peak_memory_mb(lambda: np.ones(500_000))
        assert result.shape == (500_000,)
        assert peak > 1.0

    def test_nested_trackers(self):
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                _ = list(range(10000))
        assert inner.peak_mb >= 0.0
        assert outer.peak_mb >= inner.peak_mb * 0.0  # both defined


class TestValidation:
    def test_check_type(self):
        assert check_type("x", 3, int) == 3
        with pytest.raises(ConfigurationError):
            check_type("x", 3, str)

    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)
        with pytest.raises(ConfigurationError):
            check_positive("x", True)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)

    def test_check_in_range(self):
        assert check_in_range("x", 1, -1, 2) == 1.0
        with pytest.raises(ConfigurationError):
            check_in_range("x", 5, -1, 2)

    def test_check_budget(self):
        assert check_budget("k", 3, 10) == 3
        with pytest.raises(ConfigurationError):
            check_budget("k", 0, 10)
        with pytest.raises(BudgetError):
            check_budget("k", 11, 10)
        with pytest.raises(ConfigurationError):
            check_budget("k", 2.5, 10)
