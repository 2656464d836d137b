"""The paper's quality claims, asserted through :func:`repro.run_experiment`.

The paper makes three quality claims:

* seeds selected under the OI model maximise opinion spread (Figs. 2, 5(c),
  5(d));
* the OI model tracks the Twitter ground truth better than IC and OC
  (Figs. 5(a), 5(b));
* EaSyIM and OSIM stay "always within 5% of the best known methods"
  (Figs. 6, 7).

``CASES`` has one row per quality panel: its graph, the evaluation spec, the
labelled selections and the claim.  One driver runs every label through
``run_experiment`` on the panel's graph, built once, and caches the measured
values per panel.  Two tests read them:

* ``test_floor`` asserts the bound the panel's print-only bench asserted,
  copied unchanged.  It is the regression guard.
* ``test_paper`` asserts the paper's own statement.  Its tolerance is three
  standard deviations of the claim's margin over the estimator engine seeds
  101-110, with the selections held fixed; each case records that SD.  A
  paper check that fails at its tolerance is a strict xfail carrying the
  numbers, a reproduction finding; its tolerance is never widened.

A margin is positive when a claim holds.  Graphs are the reduced stand-ins
EXPERIMENTS.md lists: registry datasets at graph seed 7, annotated with
interaction seed 7 where the panel needs opinions.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np
import pytest

from repro import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    run_experiment,
)
from repro.datasets.pakdd import generate_customer_records
from repro.datasets.tweets import generate_tweet_corpus
from repro.opinion.churn import ChurnAnalysis
from repro.opinion.estimation import (
    estimate_interactions_from_agreements,
    estimate_opinion_from_history,
    normalized_rmse,
)
from repro.opinion.topics import TopicSubgraphBuilder, ground_truth_opinion_spread

K20 = [0, 5, 10, 20]
K10 = [0, 3, 6, 10]

# ------------------------------------------------------------------ graphs


def bench(dataset: str, scale: float = 0.4, opinion: Optional[str] = None) -> GraphSpec:
    return GraphSpec(
        dataset=dataset,
        scale=scale,
        seed=7,
        annotate=opinion is not None,
        opinion=opinion or "uniform",
    )


@functools.lru_cache(maxsize=None)
def _build_document(document: str):
    return GraphSpec.from_json(document).build()


def _build(spec: GraphSpec):
    return _build_document(spec.to_json())


def _lt_weighted(spec: GraphSpec):
    """The spec's graph with LT in-weights, which GraphSpec cannot describe."""
    graph = _build(spec).copy()
    graph.set_linear_threshold_weights()
    return graph


@functools.lru_cache(maxsize=None)
def twitter_case_study():
    """Synthetic Twitter case study (Sec. 4.1.1 pipeline).

    Returns ``(topic_subgraphs, estimated_background)``.  The background
    graph carries opinions estimated from each user's history on the
    earlier topics and interactions estimated from past agreements: the
    inputs the paper's Figs. 5(a)-5(c) feed to the models.
    """
    corpus = generate_tweet_corpus(
        users=250,
        topics=("#followfriday", "#healthcare", "#obama", "#iphone", "#worldcup"),
        tweets_per_topic=150,
        originators_per_topic=5,
        seed=17,
    )
    subgraphs = TopicSubgraphBuilder(corpus.background_graph).build(corpus.tweets)

    # Estimate parameters for the last topic from the history of earlier ones.
    background = corpus.background_graph.copy()
    history_topics = corpus.topics[:-1]
    for user in background.nodes():
        history = {t: corpus.true_opinions[t][user] for t in history_topics}
        background.set_opinion(
            user,
            estimate_opinion_from_history(history, list(reversed(history_topics))),
        )
    edges = [(u, v) for u, v, _ in background.edges()]
    interactions = estimate_interactions_from_agreements(corpus.true_opinions, edges)
    for (u, v), value in interactions.items():
        background.set_interaction(u, v, value)
    return subgraphs, background


def _twitter_background(_: GraphSpec):
    return twitter_case_study()[1]


def _twitter_topics(_: GraphSpec):
    """The topic graphs that have edges and at least one originator."""
    return [s for s in twitter_case_study()[0] if s.number_of_edges and s.originators]


def _churn(_: GraphSpec):
    """Synthetic PAKDD churn case study (Sec. 4.1.2 pipeline)."""
    records = generate_customer_records(customers=250, seed=19)
    analysis = ChurnAnalysis(similarity_threshold=0.85, max_neighbors=15, seed=19)
    return analysis.build_opinion_graph(records.attributes, records.churn_labels())


#: Descriptions of the case-study graphs, which no registry dataset builds.
TWITTER_BACKGROUND = GraphSpec(edge_list="twitter-case-study/background")
TWITTER_TOPICS = GraphSpec(edge_list="twitter-case-study/topics")
CHURN = GraphSpec(edge_list="churn-case-study/similarity")

# -------------------------------------------------------------- selections


def algo(name: str, **options: object) -> AlgorithmSpec:
    return AlgorithmSpec(name=name, options=options)


@dataclass(frozen=True)
class SeedsOf:
    """The seeds another label selected, evaluated at ``penalty``."""

    label: str
    penalty: float


@dataclass(frozen=True)
class Originators:
    """Each topic graph's first ``k`` real originators, evaluated under ``model``.

    One fixed-seed run per topic graph and ``k``; ``None`` takes them all.
    """

    model: str
    counts: Tuple[Optional[int], ...] = (None,)


Selection = Union[AlgorithmSpec, SeedsOf, Originators]

# ------------------------------------------------------------------ claims


def final(result) -> float:
    """The value at the largest seed count of the run's curve."""
    return result.curve[max(result.curve)]


def mean_abs_error(points: List[List[Tuple[float, float]]]) -> float:
    """Mean |estimate - ground truth| over the topic graphs (Fig. 5(a))."""
    return float(np.mean([abs(value - truth) for value, truth in points[0]]))


def mean_nrmse(points: List[List[Tuple[float, float]]]) -> float:
    """Normalised RMSE (%) against the ground truth, averaged over k (Fig. 5(b))."""
    return float(np.mean([
        normalized_rmse([value for value, _ in row], [truth for _, truth in row])
        for row in points
    ]))


def best_osim(m: Mapping[str, float]) -> float:
    return max(value for label, value in m.items() if label.startswith("OSIM"))


def shortfall_percent(m: Mapping[str, float], label: str) -> float:
    """How far ``label`` lies below the best label, in percent of the best."""
    best = max(m.values())
    return abs(m[label] - best) / abs(best) * 100.0


def opinion_aware_claim(m: Mapping[str, float]) -> float:
    """OI-selected seeds reach the highest opinion spread."""
    return m["OI"] - max(m["IC"], m["OC"])


def lambda_claim(m: Mapping[str, Dict[int, float]]) -> float:
    """Dropping the penalty (lambda = 0) never lowers the curve."""
    return min(m["lambda=0"][k] - m["lambda=1"][k] for k in m["lambda=1"])


@dataclass(frozen=True)
class Case:
    """One quality panel.

    ``graph`` is the description each run records; ``build`` makes the
    prebuilt graph every label runs on.  ``floor`` and ``paper`` map the
    measured values, ``{label: measure(result)}``, to a margin.  ``sd`` is
    the standard deviation of the paper margin over engine seeds 101-110.
    """

    id: str
    graph: GraphSpec
    model: str
    evaluation: EvalSpec
    selections: Mapping[str, Selection]
    floor: Callable[[Dict], float]
    paper: Optional[Callable[[Dict], float]]
    sd: float = 0.0
    build: Callable[[GraphSpec], object] = _build
    measure: Callable = final
    xfail: str = ""


def mc(engine_seed: int, objective: str = "spread", seed_counts=None,
       simulations: int = 150) -> EvalSpec:
    return EvalSpec(
        objective=objective,
        seed_counts=seed_counts,
        estimator=EstimatorSpec(simulations=simulations, engine_seed=engine_seed),
    )


def _fig2(dataset: str, sd: float) -> Case:
    return Case(
        f"fig2-{dataset}", bench(dataset, opinion="uniform"), "oi-ic",
        mc(1, "opinion", K20),
        {
            "OI": algo("osim", max_path_length=3),
            "IC": algo("easyim", max_path_length=3, model="ic"),
            "OC": algo("osim", max_path_length=3, model="oc"),
        },
        floor=lambda m: m["OI"] - (m["IC"] - max(0.5, 0.2 * abs(m["IC"]))),
        paper=opinion_aware_claim, sd=sd,
    )


def _fig5e(dataset: str) -> Case:
    return Case(
        f"fig5e-{dataset}", bench(dataset, opinion="uniform"), "oi-ic",
        mc(6, "effective-opinion", K20),
        {"lambda=1": algo("osim", max_path_length=3), "lambda=0": SeedsOf("lambda=1", 0.0)},
        floor=lambda m: lambda_claim(m) + 1e-9,
        # Both labels score the same cascades, so the claim holds per cascade
        # and its margin, pinned at 0 by k = 0, has SD 0 over engine seeds.
        paper=lambda_claim, measure=lambda result: result.curve,
    )


def _fig6abc(dataset: str, model: str, sd: float) -> Case:
    return Case(
        f"fig6abc-{dataset}-{model}", bench(dataset, 0.3), model, mc(8, seed_counts=K20),
        {f"l={l}": algo("easyim", max_path_length=l) for l in (1, 2, 3, 5, 7)},
        floor=lambda m: m["l=3"] - 0.7 * m["l=1"],
        paper=lambda m: m["l=3"] - m["l=1"], sd=sd,
        build=_lt_weighted if model == "lt" else _build,
    )


def _within_best(deviation: float):
    return lambda m: deviation - shortfall_percent(m, "EaSyIM l=3")


def _fig7c(dataset: str) -> Case:
    return Case(
        f"fig7c-{dataset}", bench(dataset, 0.3, "uniform"), "oi-ic",
        mc(10, "opinion", K10, simulations=120),
        {f"OSIM l={l}": algo("osim", max_path_length=l) for l in (1, 2, 3, 5)},
        # The figure shows the l-sweep and states no comparison to check.
        floor=lambda m: -abs(len(m) - 4), paper=None,
    )


CASES: List[Case] = [
    _fig2("nethept", sd=0.2416),
    _fig2("hepph", sd=0.3297),
    Case(
        "fig5a", TWITTER_TOPICS, "oi-ic", mc(3, "opinion"),
        {"OI": Originators("oi-ic"), "OC": Originators("oc"), "IC": Originators("ic")},
        floor=lambda m: (m["IC"] * 1.1 + 0.1) - m["OI"],
        paper=lambda m: m["IC"] - m["OI"], sd=0.4205,
        build=_twitter_topics, measure=mean_abs_error,
    ),
    Case(
        "fig5b", TWITTER_TOPICS, "oi-ic", mc(5, "opinion"),
        {
            label: Originators(model, counts=(1, 2, 3))
            for label, model in (("OI", "oi-ic"), ("OC", "oc"), ("IC", "ic"))
        },
        floor=lambda m: (m["IC"] * 1.25 + 2.0) - m["OI"],
        paper=lambda m: m["IC"] - m["OI"], sd=17.46,
        build=_twitter_topics, measure=mean_nrmse,
    ),
    Case(
        "fig5c", TWITTER_BACKGROUND, "oi-ic", mc(2, "opinion", K20),
        {
            "OI": algo("osim", max_path_length=3),
            "OC": algo("osim", max_path_length=3, model="oc"),
            "IC": algo("easyim", max_path_length=3, model="ic"),
        },
        floor=lambda m: m["OI"] - (
            min(m["OC"], m["IC"]) - max(1.0, 0.2 * abs(max(m.values())))
        ),
        paper=opinion_aware_claim, sd=0.2209, build=_twitter_background,
    ),
    Case(
        "fig5d", CHURN, "oi-ic", mc(4, "effective-opinion", K20),
        {
            "OI": algo("osim", max_path_length=3),
            "OC": algo("osim", max_path_length=3, model="oc"),
            "IC": algo("easyim", max_path_length=3, model="ic"),
        },
        floor=lambda m: m["OI"] - (m["IC"] - max(1.0, 0.2 * abs(m["IC"]))),
        paper=opinion_aware_claim, sd=0.5336, build=_churn,
    ),
    _fig5e("nethept"),
    _fig5e("hepph"),
    _fig5e("dblp"),
    _fig5e("youtube"),
    Case(
        "fig5f", bench("nethept", 0.25, "normal"), "oi-ic",
        mc(7, "effective-opinion", K10),
        {
            **{f"OSIM l={l}": algo("osim", max_path_length=l) for l in (1, 2, 3, 5)},
            "Modified-GREEDY": algo("modified-greedy", simulations=20),
        },
        floor=lambda m: best_osim(m) - (0.4 * m["Modified-GREEDY"] - 0.5),
        paper=lambda m: best_osim(m) - m["Modified-GREEDY"], sd=0.1235,
    ),
    _fig6abc("nethept", "lt", sd=0.5778),
    _fig6abc("dblp", "ic", sd=1.003),
    _fig6abc("youtube", "wc", sd=2.352),
    Case(
        "fig6d", bench("hepph", 0.35), "ic", mc(9, seed_counts=K20),
        {
            "EaSyIM l=3": algo("easyim", max_path_length=3),
            "TIM+": algo("tim+", epsilon=0.2, max_rr_sets=60_000),
            "CELF": algo("celf", simulations=25),
        },
        floor=_within_best(25.0), paper=_within_best(5.0), sd=0.5291,
        xfail="EaSyIM l=3 reaches 112.29 and TIM+ 120.60: 6.89% short of the best, "
        "1.89 points past 5%, beyond the 3 SD tolerance of 1.59",
    ),
    Case(
        "fig6e", bench("dblp", 0.35), "ic", mc(9, seed_counts=K20),
        {
            "EaSyIM l=3": algo("easyim", max_path_length=3),
            **{
                f"TIM+ eps={eps}": algo("tim+", epsilon=eps, max_rr_sets=80_000)
                for eps in (0.2, 0.15, 0.1)
            },
        },
        floor=_within_best(25.0), paper=_within_best(5.0), sd=0.9244,
    ),
    Case(
        "fig7b", bench("hepph", 0.25, "normal"), "oc",
        mc(10, "opinion", K10, simulations=120),
        {
            **{f"OSIM l={l}": algo("osim", max_path_length=l) for l in (1, 2, 3, 5)},
            "GREEDY": algo("greedy", simulations=12),
        },
        floor=lambda m: best_osim(m) - (0.3 * m["GREEDY"] - 0.5),
        paper=lambda m: best_osim(m) - m["GREEDY"], sd=0.2016,
        build=_lt_weighted,
    ),
    _fig7c("dblp"),
    _fig7c("youtube"),
    Case(
        "fig7d", bench("nethept", 0.35), "lt", mc(9, seed_counts=K20),
        {
            "EaSyIM l=3": algo("easyim", max_path_length=3),
            "SIMPATH": algo("simpath", eta=1e-3, max_path_length=4),
            "TIM+": algo("tim+", epsilon=0.2, max_rr_sets=60_000),
        },
        floor=_within_best(30.0), paper=_within_best(5.0), sd=0.4699,
        build=_lt_weighted,
        xfail="EaSyIM l=3 reaches 123.02 and SIMPATH 133.49: 7.85% short of the best, "
        "2.85 points past 5%, beyond the 3 SD tolerance of 1.41",
    ),
    Case(
        "fig7e", bench("youtube", 0.35), "wc", mc(11, seed_counts=K20),
        {
            "EaSyIM l=3": algo("easyim", max_path_length=3),
            "IRIE": algo("irie", weighting="wc", iterations=15),
        },
        floor=_within_best(30.0), paper=_within_best(5.0), sd=1.302,
    ),
]

CASE_BY_ID = {case.id: case for case in CASES}

# ------------------------------------------------------------------ driver


def _run(case: Case, label: str, selection: Selection, graph, runs: Dict):
    spec = functools.partial(
        ExperimentSpec,
        name=f"{case.id}:{label}",
        graph=case.graph,
        model=case.model,
        evaluation=case.evaluation,
    )
    if isinstance(selection, AlgorithmSpec):
        budget = max(case.evaluation.seed_counts)
        return run_experiment(
            spec(algorithm=selection, budget=budget, seed=0), graph=graph
        )
    if isinstance(selection, SeedsOf):
        evaluation = dataclasses.replace(case.evaluation, penalty=selection.penalty)
        return run_experiment(
            spec(seeds=runs[selection.label].seeds, evaluation=evaluation), graph=graph
        )
    return [
        [
            (
                run_experiment(
                    spec(model=selection.model, seeds=topic.originators[:k]),
                    graph=topic.graph,
                ).value,
                ground_truth_opinion_spread(topic),
            )
            for topic in graph
        ]
        for k in selection.counts
    ]


def runs(case: Case) -> Dict[str, object]:
    """Every label of ``case``, run in table order on one prebuilt graph."""
    graph = case.build(case.graph)
    results: Dict[str, object] = {}
    for label, selection in case.selections.items():
        results[label] = _run(case, label, selection, graph, results)
    return results


@functools.lru_cache(maxsize=None)
def measured(case_id: str) -> Dict[str, object]:
    case = CASE_BY_ID[case_id]
    return {label: case.measure(result) for label, result in runs(case).items()}


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_floor(case):
    m = measured(case.id)
    margin = case.floor(m)
    assert margin >= 0.0, f"{case.id}: floor missed by {-margin:.4g}; measured {m}"


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(
            case,
            id=case.id,
            marks=[pytest.mark.xfail(strict=True, reason=case.xfail)] if case.xfail else [],
        )
        for case in CASES
        if case.paper is not None
    ],
)
def test_paper(case):
    m = measured(case.id)
    margin = case.paper(m)
    tolerance = 3.0 * case.sd
    assert margin >= -tolerance, (
        f"{case.id}: paper claim missed by {-margin:.4g} "
        f"(tolerance 3 SD = {tolerance:.4g}); measured {m}"
    )
