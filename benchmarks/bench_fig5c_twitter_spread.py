"""Figure 5(c) — opinion spread on the Twitter background graph.

Seeds are selected on the estimated-parameter background graph under three
models (OI via OSIM, OC via OSIM-on-OC weighting, IC via EaSyIM) and every
seed set is evaluated under the OI model — the paper's claim is that the
OI-selected seeds achieve the highest opinion spread.
"""

from __future__ import annotations

from repro.algorithms import EaSyIMSelector, OSIMSelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table

from helpers import BENCH_SIMULATIONS, load_twitter_case_study, one_shot

SEED_COUNTS = (0, 5, 10, 20)


def _run() -> dict:
    _, _, background = load_twitter_case_study()
    budget = max(SEED_COUNTS)
    oi = OSIMSelector(max_path_length=3, model="oi-ic", seed=0).select(background, budget).seeds
    oc = OSIMSelector(max_path_length=3, model="oc", seed=0).select(background, budget).seeds
    ic = EaSyIMSelector(max_path_length=3, model="ic", seed=0).select(background, budget).seeds
    return {
        label: MonteCarloEstimator(
            background, "oi-ic", objective="opinion",
            simulations=BENCH_SIMULATIONS, seed=2,
        ).sweep(seeds, SEED_COUNTS)
        for label, seeds in {"OI": oi, "OC": oc, "IC": ic}.items()
    }


def test_fig5c_twitter_background_spread(benchmark, reporter):
    series = one_shot(benchmark, _run)
    reporter("Figure 5(c) — opinion spread vs #seeds on the Twitter background graph",
             format_series_table(series, value_label="opinion spread"))
    final = {label: curve[max(curve)] for label, curve in series.items()}
    # OI-selected seeds must not trail both baselines by more than noise.
    noise_margin = max(1.0, 0.2 * abs(max(final.values())))
    assert final["OI"] >= min(final["OC"], final["IC"]) - noise_margin
