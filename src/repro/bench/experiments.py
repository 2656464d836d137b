"""Registry of the paper's experiments (per-figure / per-table index).

Each :class:`PaperExperiment` records which figure or table it reproduces, the
workload (datasets, models, seed counts), and the benchmark module that
regenerates it.  DESIGN.md's experiment index and the CLI's ``experiments``
sub-command are both rendered from this registry, so documentation and code
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PaperExperiment:
    """Description of one paper experiment and how this repo reproduces it."""

    identifier: str
    paper_reference: str
    description: str
    datasets: Tuple[str, ...]
    models: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    seed_counts: Tuple[int, ...]
    bench_module: str
    notes: str = ""


EXPERIMENTS: Dict[str, PaperExperiment] = {
    spec.identifier: spec
    for spec in (
        PaperExperiment(
            "table2", "Table 2", "Dataset statistics (n, m, avg degree, diameter)",
            ("nethept", "hepph", "dblp", "youtube", "soclive", "orkut", "twitter", "friendster"),
            (), (), (),
            "benchmarks/bench_table2_datasets.py",
        ),
        PaperExperiment(
            "fig2", "Figure 2", "Opinion spread of OI vs IC vs OC seed sets",
            ("nethept", "hepph"), ("oi-ic", "ic", "oc"), ("osim", "easyim"),
            (0, 25, 50, 100, 150, 200),
            "benchmarks/bench_fig2_motivation.py",
        ),
        PaperExperiment(
            "fig5a", "Figure 5(a)", "Twitter topic graphs: model spread vs ground truth (k=50)",
            ("twitter-synthetic",), ("oi-ic", "ic", "oc"), ("ground-truth-seeds",), (50,),
            "benchmarks/bench_fig5a_twitter_topics.py",
        ),
        PaperExperiment(
            "fig5b", "Figure 5(b)", "Twitter: normalised RMSE vs #seeds",
            ("twitter-synthetic",), ("oi-ic", "ic", "oc"), ("ground-truth-seeds",),
            (10, 25, 50, 75, 100),
            "benchmarks/bench_fig5b_twitter_rmse.py",
        ),
        PaperExperiment(
            "fig5c", "Figure 5(c)", "Twitter background graph: opinion spread of OI/OC/IC seeds",
            ("twitter-synthetic",), ("oi-ic", "oc", "ic"), ("osim", "easyim"),
            (0, 25, 50, 75, 100),
            "benchmarks/bench_fig5c_twitter_spread.py",
        ),
        PaperExperiment(
            "fig5d", "Figure 5(d)", "Churn case study: opinion spread of OI/OC/IC seeds",
            ("pakdd-synthetic",), ("oi-ic", "oc", "ic"), ("osim", "easyim"),
            (0, 50, 100, 150, 200),
            "benchmarks/bench_fig5d_churn.py",
        ),
        PaperExperiment(
            "fig5e", "Figure 5(e)", "Effective opinion spread: lambda=1 vs lambda=0",
            ("nethept", "hepph"), ("oi-ic",), ("osim",), (0, 50, 100, 150, 200),
            "benchmarks/bench_fig5e_lambda.py",
        ),
        PaperExperiment(
            "fig5f", "Figure 5(f)", "OSIM l-sweep vs Modified-GREEDY (NetHEPT, OI)",
            ("nethept",), ("oi-ic",), ("osim", "modified-greedy"), (0, 25, 50, 100),
            "benchmarks/bench_fig5f_osim_quality.py",
        ),
        PaperExperiment(
            "fig5g", "Figure 5(g)", "OSIM running time vs Modified-GREEDY (NetHEPT, OI)",
            ("nethept",), ("oi-ic",), ("osim", "modified-greedy"), (10, 25, 50),
            "benchmarks/bench_fig5g_osim_time.py",
        ),
        PaperExperiment(
            "fig5h", "Figure 5(h)", "OSIM memory vs Modified-GREEDY (medium datasets)",
            ("nethept", "hepph", "dblp", "youtube"), ("oi-ic",), ("osim", "modified-greedy"),
            (20,),
            "benchmarks/bench_fig5h_osim_memory.py",
        ),
        PaperExperiment(
            "fig6a-c", "Figures 6(a)-(c)", "EaSyIM l-sweep quality under LT/IC/WC",
            ("nethept", "dblp", "youtube"), ("lt", "ic", "wc"), ("easyim",),
            (0, 25, 50, 75, 100),
            "benchmarks/bench_fig6_quality_lsweep.py",
        ),
        PaperExperiment(
            "fig6d-e", "Figures 6(d)-(e)", "EaSyIM vs TIM+ vs CELF++ quality (IC)",
            ("hepph", "dblp"), ("ic",), ("easyim", "tim+", "celf++"), (0, 25, 50, 75, 100),
            "benchmarks/bench_fig6_quality_competitors.py",
        ),
        PaperExperiment(
            "fig6f-h", "Figures 6(f)-(h)", "Running time vs #seeds (LT/IC/WC)",
            ("nethept", "dblp", "youtube"), ("lt", "ic", "wc"),
            ("easyim", "tim+", "celf++"), (10, 25, 50),
            "benchmarks/bench_fig6_time.py",
        ),
        PaperExperiment(
            "fig6i-j", "Figures 6(i)-(j)", "Memory footprint comparisons",
            ("nethept", "hepph", "dblp", "youtube"), ("ic",),
            ("easyim", "celf++", "tim+", "irie", "simpath"), (20, 50, 100),
            "benchmarks/bench_fig6_memory.py",
        ),
        PaperExperiment(
            "table3", "Table 3", "EaSyIM (l=1) vs TIM+: time and memory, k=50",
            ("dblp", "youtube", "soclive"), ("ic",), ("easyim", "tim+"), (50,),
            "benchmarks/bench_table3_tim.py",
        ),
        PaperExperiment(
            "table4", "Table 4", "EaSyIM (l=1) vs CELF++: time and memory, k=100",
            ("nethept", "hepph", "dblp"), ("ic",), ("easyim", "celf++"), (100,),
            "benchmarks/bench_table4_celfpp.py",
        ),
        PaperExperiment(
            "fig7a-c", "Figures 7(a)-(c)", "Appendix quality results (lambda sweep, OC model, OI l-sweep)",
            ("dblp", "youtube", "hepph"), ("oi-ic", "oc"), ("osim", "greedy"),
            (0, 50, 100, 150, 200),
            "benchmarks/bench_fig7_appendix_quality.py",
        ),
        PaperExperiment(
            "fig7d-e", "Figures 7(d)-(e)", "EaSyIM vs SIMPATH (LT) and IRIE (WC) quality",
            ("nethept", "youtube"), ("lt", "wc"), ("easyim", "simpath", "irie"),
            (0, 25, 50, 75, 100),
            "benchmarks/bench_fig7_appendix_heuristics.py",
        ),
        PaperExperiment(
            "fig7f-i", "Figures 7(f)-(i)", "Appendix running-time comparisons",
            ("hepph", "dblp", "youtube", "nethept"), ("oc", "oi-ic", "wc", "lt"),
            ("osim", "easyim", "irie", "simpath"), (10, 25, 50),
            "benchmarks/bench_fig7_appendix_time.py",
        ),
        PaperExperiment(
            "fig7j", "Figure 7(j)", "EaSyIM memory on the large datasets",
            ("soclive", "orkut", "twitter", "friendster"), ("ic",), ("easyim",), (20,),
            "benchmarks/bench_fig7_large_memory.py",
        ),
        PaperExperiment(
            "ablations", "Design ablations", "Cycle discounting, lazy evaluation, LT live-edge equivalence",
            ("nethept",), ("ic", "lt"), ("easyim", "path-union", "celf", "greedy"), (5, 10),
            "benchmarks/bench_ablations.py",
        ),
    )
}


def get_experiment(identifier: str) -> PaperExperiment:
    """Look up an experiment by identifier (e.g. ``"fig5f"`` or ``"table3"``)."""
    key = identifier.lower()
    if key not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {identifier!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key]


def experiment_index_rows() -> List[dict]:
    """Rows for the experiment-index table (used by the CLI and the docs)."""
    return [
        {
            "id": spec.identifier,
            "paper": spec.paper_reference,
            "description": spec.description,
            "bench": spec.bench_module,
        }
        for spec in EXPERIMENTS.values()
    ]
