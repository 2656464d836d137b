"""Figure 2 — opinion spread of seeds selected under OI vs IC vs OC.

For NetHEPT and HepPh stand-ins, seeds are selected under three models
(OI via OSIM, IC via EaSyIM, OC via OSIM on the OC model) and every selection
is evaluated under the OI model.  The paper's claim: the OI-selected seeds
achieve the highest opinion spread, establishing the motivation for
opinion-aware selection.
"""

from __future__ import annotations

from repro.algorithms import EaSyIMSelector, OSIMSelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table

from helpers import BENCH_SIMULATIONS, SWEEP_SEED_COUNTS, load_bench_graph, one_shot


def _run_dataset(name: str) -> dict:
    graph = load_bench_graph(name, annotated=True, opinion="uniform")
    budget = max(SWEEP_SEED_COUNTS)
    oi_seeds = OSIMSelector(max_path_length=3, model="oi-ic", seed=0).select(graph, budget).seeds
    ic_seeds = EaSyIMSelector(max_path_length=3, model="ic", seed=0).select(graph, budget).seeds
    oc_seeds = OSIMSelector(max_path_length=3, model="oc", seed=0).select(graph, budget).seeds
    return {
        label: MonteCarloEstimator(
            graph, "oi-ic", objective="opinion", simulations=BENCH_SIMULATIONS, seed=1
        ).sweep(seeds, SWEEP_SEED_COUNTS)
        for label, seeds in {"OI": oi_seeds, "IC": ic_seeds, "OC": oc_seeds}.items()
    }


def test_fig2_opinion_spread_nethept(benchmark, reporter):
    series = one_shot(benchmark, _run_dataset, "nethept")
    reporter("Figure 2 — opinion spread vs #seeds (NetHEPT, evaluated under OI)",
             format_series_table(series, value_label="opinion spread"))
    final = {label: curve[max(curve)] for label, curve in series.items()}
    # OI-selected seeds must dominate IC-selected seeds at the largest budget
    # (up to Monte-Carlo noise at bench scale).
    assert final["OI"] >= final["IC"] - max(0.5, 0.2 * abs(final["IC"]))


def test_fig2_opinion_spread_hepph(benchmark, reporter):
    series = one_shot(benchmark, _run_dataset, "hepph")
    reporter("Figure 2 — opinion spread vs #seeds (HepPh, evaluated under OI)",
             format_series_table(series, value_label="opinion spread"))
    final = {label: curve[max(curve)] for label, curve in series.items()}
    assert final["OI"] >= final["IC"] - max(0.5, 0.2 * abs(final["IC"]))
