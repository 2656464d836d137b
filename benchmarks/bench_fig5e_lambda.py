"""Figure 5(e) / 7(a) — the effect of the penalty lambda on the objective.

OSIM seeds are evaluated under the OI model with lambda = 1 (penalise negative
opinion mass) and lambda = 0 (ignore it).  The lambda = 0 curve is always at
least as high because it drops the penalty term; the paper uses the comparison
to argue that optimising the *effective* opinion spread (lambda = 1) is the
right objective.
"""

from __future__ import annotations

import pytest

from repro.algorithms import OSIMSelector
from repro.api import MonteCarloEstimator
from repro.bench.reporting import format_series_table

from helpers import BENCH_SIMULATIONS, SWEEP_SEED_COUNTS, load_bench_graph, one_shot


def _run(dataset: str) -> dict:
    graph = load_bench_graph(dataset, annotated=True, opinion="uniform")
    budget = max(SWEEP_SEED_COUNTS)
    seeds = OSIMSelector(max_path_length=3, seed=0).select(graph, budget).seeds
    return {
        label: MonteCarloEstimator(
            graph, "oi-ic", objective="effective-opinion",
            simulations=BENCH_SIMULATIONS, penalty=penalty, seed=6,
        ).sweep(seeds, SWEEP_SEED_COUNTS)
        for penalty, label in ((1.0, "lambda=1"), (0.0, "lambda=0"))
    }


@pytest.mark.parametrize("dataset", ["nethept", "hepph", "dblp", "youtube"])
def test_fig5e_lambda_comparison(benchmark, reporter, dataset):
    series = one_shot(benchmark, _run, dataset)
    reporter(
        f"Figure 5(e)/7(a) — effective opinion spread, lambda=1 vs lambda=0 ({dataset})",
        format_series_table(series, value_label="effective opinion spread"),
    )
    for strict, lenient in zip(series["lambda=1"].values(), series["lambda=0"].values()):
        assert lenient >= strict - 1e-9
