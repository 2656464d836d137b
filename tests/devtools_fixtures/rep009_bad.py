"""Fixture: REP009 violations — bad metric names and raw dict tallies."""

from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import Counter


class Worker:
    def __init__(self):
        self.registry = MetricsRegistry()
        self._stats = {"requests": 0}

    def observe(self):
        self.registry.counter("requests_total", "Missing the repro_ prefix.")
        self.registry.counter("repro_BadCase", "Upper case is not snake_case.")
        self.registry.histogram("repro__", "No metric body after the prefix.")
        Counter("service.requests", "Dots do not survive Prometheus parsing.")
        self._stats["requests"] += 1
