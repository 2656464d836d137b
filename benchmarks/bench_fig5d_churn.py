"""Figure 5(d) — customer-churn case study (PAKDD stand-in).

The churn pipeline produces an opinion-annotated similarity graph (opinions =
propagated churn affinity).  Seeds for a retention campaign are selected under
OI (OSIM), OC and IC (EaSyIM) and evaluated under OI; the OI-selected targets
should achieve the highest effective opinion spread.
"""

from __future__ import annotations

from repro.algorithms import EaSyIMSelector, OSIMSelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table

from helpers import BENCH_SIMULATIONS, load_churn_case_study, one_shot

SEED_COUNTS = (0, 5, 10, 20)


def _run() -> dict:
    _, graph = load_churn_case_study()
    budget = max(SEED_COUNTS)
    oi = OSIMSelector(max_path_length=3, model="oi-ic", seed=0).select(graph, budget).seeds
    oc = OSIMSelector(max_path_length=3, model="oc", seed=0).select(graph, budget).seeds
    ic = EaSyIMSelector(max_path_length=3, model="ic", seed=0).select(graph, budget).seeds
    return {
        label: MonteCarloEstimator(
            graph, "oi-ic", objective="effective-opinion",
            simulations=BENCH_SIMULATIONS, seed=4,
        ).sweep(seeds, SEED_COUNTS)
        for label, seeds in {"OI": oi, "OC": oc, "IC": ic}.items()
    }


def test_fig5d_churn_case_study(benchmark, reporter):
    series = one_shot(benchmark, _run)
    reporter("Figure 5(d) — effective opinion spread vs #seeds (churn case study)",
             format_series_table(series, value_label="effective opinion spread"))
    final = {label: curve[max(curve)] for label, curve in series.items()}
    # The opinion-aware selection must stay at least on par with the
    # opinion-oblivious one, up to Monte-Carlo noise at bench scale.
    noise_margin = max(1.0, 0.2 * abs(final["IC"]))
    assert final["OI"] >= final["IC"] - noise_margin
