"""Figures 7(b)-(c) — appendix quality results.

* 7(b): OSIM l-sweep against GREEDY under the OC diffusion model (HepPh).
* 7(c): OSIM l-sweep on DBLP and YouTube under the OI model with uniformly
  random opinions.

(The lambda comparison of Figure 7(a) shares its bench with Figure 5(e) —
see ``bench_fig5e_lambda.py`` which sweeps all four datasets.)
"""

from __future__ import annotations

import pytest

from repro.algorithms import GreedySelector, OSIMSelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table

from helpers import load_bench_graph, one_shot

SEED_COUNTS = (0, 3, 6, 10)
PATH_LENGTHS = (1, 2, 3, 5)
SIMULATIONS = 120


def _opinion_sweep(graph, model: str, seed_sets: dict) -> dict:
    """Opinion-spread k-sweep of every labelled seed list under ``model``."""
    return {
        label: MonteCarloEstimator(
            graph, model, objective="opinion", simulations=SIMULATIONS, seed=10
        ).sweep(seeds, SEED_COUNTS)
        for label, seeds in seed_sets.items()
    }


def _run_oc_hepph() -> dict:
    graph = load_bench_graph("hepph", scale=0.25, annotated=True, opinion="normal").copy()
    graph.set_linear_threshold_weights()
    budget = max(SEED_COUNTS)
    seed_sets = {
        f"OSIM l={length}": OSIMSelector(max_path_length=length, model="oc", seed=0).select(
            graph, budget
        ).seeds
        for length in PATH_LENGTHS
    }
    seed_sets["GREEDY"] = GreedySelector(
        model="oc", objective="opinion", simulations=12, seed=0
    ).select(graph, budget).seeds
    return _opinion_sweep(graph, "oc", seed_sets)


def _run_oi_lsweep(dataset: str) -> dict:
    graph = load_bench_graph(dataset, scale=0.3, annotated=True, opinion="uniform")
    budget = max(SEED_COUNTS)
    return _opinion_sweep(graph, "oi-ic", {
        f"OSIM l={length}": OSIMSelector(max_path_length=length, seed=0).select(
            graph, budget
        ).seeds
        for length in PATH_LENGTHS
    })


def test_fig7b_osim_under_oc_model(benchmark, reporter):
    series = one_shot(benchmark, _run_oc_hepph)
    reporter("Figure 7(b) — OSIM l-sweep vs GREEDY under the OC model (HepPh)",
             format_series_table(series, value_label="opinion spread"))
    final = {label: curve[max(curve)] for label, curve in series.items()}
    best_osim = max(v for k, v in final.items() if k.startswith("OSIM"))
    assert best_osim >= 0.3 * final["GREEDY"] - 0.5


@pytest.mark.parametrize("dataset", ["dblp", "youtube"])
def test_fig7c_osim_l_sweep(benchmark, reporter, dataset):
    series = one_shot(benchmark, _run_oi_lsweep, dataset)
    reporter(f"Figure 7(c) — OSIM l-sweep under OI ({dataset})",
             format_series_table(series, value_label="opinion spread"))
    assert len(series) == len(PATH_LENGTHS)
