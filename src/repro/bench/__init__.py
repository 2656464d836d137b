"""Benchmark harness: selection measurement and tabular reporting."""

from repro.bench.harness import AlgorithmRun, measure_selection
from repro.bench.reporting import (
    format_series_table,
    format_table,
    normalized_rmse_curve,
    spread_deviation_percent,
)
from repro.bench.experiments import EXPERIMENTS, PaperExperiment, get_experiment

__all__ = [
    "AlgorithmRun",
    "measure_selection",
    "format_table",
    "format_series_table",
    "normalized_rmse_curve",
    "spread_deviation_percent",
    "EXPERIMENTS",
    "PaperExperiment",
    "get_experiment",
]
