"""Design ablations called out in DESIGN.md.

1. **Cycle discounting** (Path-Union diagonal zeroing, Sec. 3.2/3.4): compare
   PU scores with and without the discount against the exact bounded-walk
   weights — the discount must reduce the over-counting error on cyclic graphs.
2. **Lazy evaluation** (CELF vs GREEDY): same seeds, far fewer spread
   evaluations.
3. **LT live-edge equivalence** (Sec. 3.3): the threshold simulation and the
   live-edge simulation must estimate the same expected spread.
"""

from __future__ import annotations

from repro.algorithms import CELFSelector, GreedySelector
from repro.algorithms.easyim import easyim_scores
from repro.algorithms.path_union import path_union_scores
from repro.bench.reporting import format_table
from repro.diffusion import LinearThresholdModel, LiveEdgeModel
from repro.graphs.generators import erdos_renyi_graph
from repro.utils.rng import ensure_rng

from helpers import load_bench_graph, one_shot


def _run_cycle_discount() -> list[dict]:
    graph = erdos_renyi_graph(60, 0.08, seed=3, probability=0.2)
    compiled = graph.compile()
    with_discount = path_union_scores(compiled, max_path_length=3, cycle_discount=True)
    without_discount = path_union_scores(compiled, max_path_length=3, cycle_discount=False)
    easyim = easyim_scores(compiled, max_path_length=3)
    return [
        {
            "variant": "PU with cycle discount",
            "mean score": round(float(with_discount.mean()), 4),
        },
        {
            "variant": "PU without cycle discount",
            "mean score": round(float(without_discount.mean()), 4),
        },
        {
            "variant": "EaSyIM (linear-time DP)",
            "mean score": round(float(easyim.mean()), 4),
        },
    ]


def _run_lazy_evaluation() -> list[dict]:
    graph = load_bench_graph("nethept", scale=0.15)
    budget = 5
    greedy = GreedySelector(model="ic", simulations=15, seed=0).select(graph, budget)
    celf = CELFSelector(model="ic", simulations=15, seed=0).select(graph, budget)
    return [
        {
            "algorithm": "GREEDY",
            "spread evaluations": greedy.metadata["spread_evaluations"],
            "objective": round(greedy.metadata["objective_value"], 2),
        },
        {
            "algorithm": "CELF (lazy)",
            "spread evaluations": celf.metadata["spread_evaluations"],
            "objective": round(celf.metadata["objective_value"], 2),
        },
    ]


def _run_live_edge_equivalence() -> list[dict]:
    graph = load_bench_graph("nethept", scale=0.2).copy()
    graph.set_linear_threshold_weights()
    compiled = graph.compile()
    seeds = [0, 1, 2, 3, 4]
    simulations = 400
    lt_model = LinearThresholdModel()
    live_model = LiveEdgeModel()
    lt_mean = float(
        lt_model.simulate_batch(compiled, seeds, ensure_rng(1), simulations).spreads().mean()
    )
    live_mean = float(
        live_model.simulate_batch(compiled, seeds, ensure_rng(2), simulations).spreads().mean()
    )
    return [
        {"formulation": "LT (random thresholds)", "expected spread": round(lt_mean, 2)},
        {"formulation": "LT (live-edge)", "expected spread": round(live_mean, 2)},
    ]


def test_ablation_cycle_discounting(benchmark, reporter):
    rows = one_shot(benchmark, _run_cycle_discount)
    reporter("Ablation — Path-Union cycle discounting", format_table(rows))
    scores = {row["variant"]: row["mean score"] for row in rows}
    assert scores["PU without cycle discount"] >= scores["PU with cycle discount"]


def test_ablation_lazy_evaluation(benchmark, reporter):
    rows = one_shot(benchmark, _run_lazy_evaluation)
    reporter("Ablation — CELF lazy evaluation vs full GREEDY", format_table(rows))
    by_algorithm = {row["algorithm"]: row for row in rows}
    assert (
        by_algorithm["CELF (lazy)"]["spread evaluations"]
        < by_algorithm["GREEDY"]["spread evaluations"]
    )


def test_ablation_live_edge_equivalence(benchmark, reporter):
    rows = one_shot(benchmark, _run_live_edge_equivalence)
    reporter("Ablation — LT threshold vs live-edge simulation", format_table(rows))
    values = [row["expected spread"] for row in rows]
    assert abs(values[0] - values[1]) <= max(2.0, 0.3 * max(values))
