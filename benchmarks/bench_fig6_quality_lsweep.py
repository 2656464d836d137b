"""Figures 6(a)-(c) — EaSyIM quality as the path-length parameter l grows.

Sweeps ``l`` for EaSyIM under the LT model on NetHEPT, the IC model on DBLP
and the WC model on YouTube (the paper's three panels) and evaluates the
spread of each prefix.  Expected shape: spread improves with ``l`` and
saturates (the paper picks l = 3/5 as the efficiency/quality sweet spot).
"""

from __future__ import annotations

import pytest

from repro.algorithms import EaSyIMSelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table

from helpers import load_bench_graph, one_shot

SEED_COUNTS = (0, 5, 10, 20)
PATH_LENGTHS = (1, 2, 3, 5, 7)
SIMULATIONS = 150

PANELS = (
    ("nethept", "lt"),
    ("dblp", "ic"),
    ("youtube", "wc"),
)


def _run(dataset: str, model: str) -> dict:
    graph = load_bench_graph(dataset, scale=0.3)
    if model == "lt":
        graph = graph.copy()
        graph.set_linear_threshold_weights()
    budget = max(SEED_COUNTS)
    series = {}
    for length in PATH_LENGTHS:
        seeds = EaSyIMSelector(max_path_length=length, model=model, seed=0).select(
            graph, budget
        ).seeds
        series[f"l={length}"] = MonteCarloEstimator(
            graph, model, simulations=SIMULATIONS, seed=8
        ).sweep(seeds, SEED_COUNTS)
    return series


@pytest.mark.parametrize("dataset,model", PANELS, ids=[f"{d}-{m}" for d, m in PANELS])
def test_fig6abc_easyim_l_sweep(benchmark, reporter, dataset, model):
    series = one_shot(benchmark, _run, dataset, model)
    reporter(
        f"Figure 6 — EaSyIM spread vs #seeds for varying l ({dataset}, {model.upper()})",
        format_series_table(series, value_label="spread"),
    )
    final = {label: curve[max(curve)] for label, curve in series.items()}
    # Deeper scores should not be dramatically worse than l=1.
    assert final["l=3"] >= 0.7 * final["l=1"]
