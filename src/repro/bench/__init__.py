"""Benchmark harness: selection measurement and tabular reporting."""

from repro.bench.harness import AlgorithmRun, measure_selection
from repro.bench.reporting import format_table

__all__ = [
    "AlgorithmRun",
    "measure_selection",
    "format_table",
]
