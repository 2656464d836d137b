"""Figures 7(d)-(e) — EaSyIM vs the state-of-the-art heuristics.

* 7(d) is covered by ``bench_fig6_quality_competitors.py`` (NetHEPT, LT, vs
  SIMPATH/TIM+/CELF++); this module adds the IRIE comparison of 7(e).
* 7(e): spread of EaSyIM vs IRIE under the WC model on the YouTube stand-in.
"""

from __future__ import annotations

from repro.algorithms import EaSyIMSelector, IRIESelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table, spread_deviation_percent

from helpers import BENCH_SIMULATIONS, load_bench_graph, one_shot

SEED_COUNTS = (0, 5, 10, 20)


def _run_youtube_wc() -> dict:
    graph = load_bench_graph("youtube", scale=0.35)
    budget = max(SEED_COUNTS)
    easyim = EaSyIMSelector(max_path_length=3, model="wc", seed=0).select(graph, budget).seeds
    irie = IRIESelector(weighting="wc", iterations=15).select(graph, budget).seeds
    return {
        label: MonteCarloEstimator(
            graph, "wc", simulations=BENCH_SIMULATIONS, seed=11
        ).sweep(seeds, SEED_COUNTS)
        for label, seeds in {"EaSyIM l=3": easyim, "IRIE": irie}.items()
    }


def test_fig7e_easyim_vs_irie_wc(benchmark, reporter):
    series = one_shot(benchmark, _run_youtube_wc)
    reporter("Figure 7(e) — spread vs #seeds under WC (YouTube stand-in)",
             format_series_table(series, value_label="spread"))
    final = {label: curve[max(curve)] for label, curve in series.items()}
    deviation = spread_deviation_percent(final["EaSyIM l=3"], max(final.values()))
    assert deviation <= 30.0
