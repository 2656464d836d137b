"""Integration tests: end-to-end pipelines across modules.

Each test exercises one of the paper's workflows at a tiny scale:

* classical IM on a registry dataset with several algorithms;
* MEO on an annotated dataset (OSIM vs Modified-GREEDY vs structural baselines);
* the Twitter topic pipeline (corpus → topic subgraphs → parameter estimation →
  model comparison against ground truth);
* the churn pipeline (records → similarity graph → label propagation → MEO);
* persistence round trips (select on a saved graph after reloading).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    EaSyIMSelector,
    HighDegreeSelector,
    ModifiedGreedySelector,
    OSIMSelector,
    RandomSelector,
    TIMPlusSelector,
)
from repro.api import MonteCarloEstimator, run_experiment
from repro.datasets import (
    generate_customer_records,
    generate_tweet_corpus,
    load_dataset,
)
from repro.diffusion import MonteCarloEngine
from repro.graphs.io import read_edge_list, write_edge_list
from repro.opinion import ChurnAnalysis, TopicSubgraphBuilder
from repro.opinion.annotate import annotate_graph
from repro.opinion.estimation import (
    estimate_interactions_from_agreements,
    estimate_opinion_from_history,
)
from repro.opinion.topics import ground_truth_opinion_spread
from repro.specs import AlgorithmSpec, EstimatorSpec, EvalSpec, ExperimentSpec, GraphSpec


class TestClassicalIMPipeline:
    def test_algorithms_beat_random_on_spread(self):
        graph = load_dataset("nethept", scale=0.15, seed=21)
        engine = MonteCarloEngine(graph, "ic", simulations=300, seed=2)
        budget = 5
        easyim = EaSyIMSelector(max_path_length=3, seed=0).select(graph, budget)
        tim = TIMPlusSelector(epsilon=0.3, max_rr_sets=10_000, seed=0).select(graph, budget)
        random_seeds = RandomSelector(seed=0).select(graph, budget)
        easyim_spread = engine.expected_spread(easyim.seeds)
        tim_spread = engine.expected_spread(tim.seeds)
        random_spread = engine.expected_spread(random_seeds.seeds)
        assert easyim_spread > random_spread
        assert tim_spread > random_spread
        # The paper's headline: EaSyIM within a small factor of the best method.
        assert easyim_spread >= 0.8 * tim_spread

    def test_run_experiment_consistent_with_direct_selector(self):
        graph = load_dataset("nethept", scale=0.12, seed=5)
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.12, seed=5),
            model="ic",
            algorithm=AlgorithmSpec(
                name="easyim",
                options={"max_path_length": 3, "update_strategy": "none"},
            ),
            budget=4,
            evaluation=EvalSpec(
                estimator=EstimatorSpec(backend="monte-carlo", simulations=50)
            ),
        )
        via_spec = run_experiment(spec, graph=graph)
        direct = EaSyIMSelector(
            max_path_length=3, update_strategy="none", seed=0
        ).select(graph, 4)
        assert via_spec.seeds == direct.seeds


class TestMEOPipeline:
    def test_osim_beats_opinion_oblivious_selection(self):
        graph = load_dataset("hepph", scale=0.2, seed=31)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=31)
        budget = 5
        engine = MonteCarloEngine(graph, "oi-ic", simulations=400, seed=3)
        osim = OSIMSelector(max_path_length=3, seed=0).select(graph, budget)
        degree = HighDegreeSelector().select(graph, budget)
        osim_value = engine.expected_effective_opinion_spread(osim.seeds)
        degree_value = engine.expected_effective_opinion_spread(degree.seeds)
        # Opinion-aware selection should not be worse than the opinion-
        # oblivious structural heuristic (the Fig. 2 motivation).
        assert osim_value >= degree_value - 0.25

    def test_full_meo_run(self):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.15, seed=41, annotate=True,
                            opinion="normal", annotation_seed=41),
            model="oi-ic",
            algorithm="osim",
            budget=5,
            seed=1,
            evaluation=EvalSpec(
                objective="effective-opinion",
                estimator=EstimatorSpec(backend="monte-carlo", simulations=200,
                                        engine_seed=1),
            ),
        )
        result = run_experiment(spec)
        assert len(result.seeds) == 5
        assert np.isfinite(result.value)

    def test_lambda_changes_selection_objective(self):
        graph = load_dataset("nethept", scale=0.15, seed=51)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=51)
        seeds = OSIMSelector(max_path_length=3, seed=0).select(graph, 5).seeds
        lenient = MonteCarloEngine(graph, "oi-ic", simulations=200, penalty=0.0, seed=1)
        strict = MonteCarloEngine(graph, "oi-ic", simulations=200, penalty=1.0, seed=1)
        assert (
            lenient.expected_effective_opinion_spread(seeds)
            >= strict.expected_effective_opinion_spread(seeds)
        )


class TestTwitterPipeline:
    def test_topic_graphs_and_model_comparison(self):
        corpus = generate_tweet_corpus(
            users=120, topics=("#a", "#b", "#c"), tweets_per_topic=60,
            originators_per_topic=4, seed=8,
        )
        builder = TopicSubgraphBuilder(corpus.background_graph)
        subgraphs = builder.build(corpus.tweets)
        assert len(subgraphs) >= 3

        # Estimate opinions for the last topic from the previous topics and
        # compare against the latent truth (the paper reports a few % error).
        target_topic = corpus.topics[-1]
        history_topics = corpus.topics[:-1]
        errors = []
        for user in list(corpus.background_graph.nodes())[:50]:
            history = {
                topic: corpus.true_opinions[topic][user] for topic in history_topics
            }
            estimate = estimate_opinion_from_history(history, list(reversed(history_topics)))
            errors.append(abs(estimate - corpus.true_opinions[target_topic][user]))
        assert float(np.mean(errors)) < 0.6  # estimation carries real signal

        # Interactions from agreement history are valid probabilities.
        edges = [(u, v) for u, v, _ in corpus.background_graph.edges()][:100]
        interactions = estimate_interactions_from_agreements(corpus.true_opinions, edges)
        assert all(0.0 <= value <= 1.0 for value in interactions.values())

        # Ground-truth opinion spread is finite and computable per topic graph.
        for subgraph in subgraphs:
            value = ground_truth_opinion_spread(subgraph)
            assert np.isfinite(value)

    def test_topic_subgraph_seed_selection(self):
        corpus = generate_tweet_corpus(
            users=100, topics=("#x",), tweets_per_topic=80,
            originators_per_topic=4, seed=9,
        )
        builder = TopicSubgraphBuilder(corpus.background_graph)
        subgraph = max(builder.build(corpus.tweets), key=lambda s: s.number_of_nodes)
        graph = subgraph.graph
        if graph.number_of_edges == 0:
            pytest.skip("degenerate topic subgraph for this seed")
        annotate_graph(graph, opinion=None, interaction="uniform", seed=1)
        budget = min(3, graph.number_of_nodes)
        seeds = OSIMSelector(max_path_length=3, seed=0).select(graph, budget).seeds
        assert len(seeds) == budget


class TestChurnPipeline:
    def test_end_to_end_churn_meo(self):
        records = generate_customer_records(customers=120, seed=12)
        analysis = ChurnAnalysis(similarity_threshold=0.85, max_neighbors=15, seed=12)
        graph = analysis.build_opinion_graph(records.attributes, records.churn_labels())
        assert graph.has_opinions()
        seeds = OSIMSelector(model="oi-ic", seed=2).select(graph, 5).seeds
        assert len(seeds) == 5
        # Retention targets should skew towards positively-opinionated customers:
        # seeding likely-churners (opinion ~ -1) cannot maximise effective opinion.
        seed_opinions = [graph.opinion(s) for s in seeds]
        assert float(np.mean(seed_opinions)) > -0.5

    def test_compare_models_on_churn_graph(self):
        records = generate_customer_records(customers=80, seed=13)
        analysis = ChurnAnalysis(similarity_threshold=0.85, max_neighbors=10, seed=13)
        graph = analysis.build_opinion_graph(records.attributes, records.churn_labels())
        budget = 4
        oi_seeds = OSIMSelector(max_path_length=3, seed=0).select(graph, budget).seeds
        ic_seeds = EaSyIMSelector(max_path_length=3, seed=0).select(graph, budget).seeds
        for seeds in (oi_seeds, ic_seeds):
            curve = MonteCarloEstimator(
                graph, "oi-ic", objective="effective-opinion", simulations=150
            ).sweep(seeds, [0, 2, budget])
            assert list(curve) == [0, 2, budget]
            assert curve[0] == 0.0


class TestPersistenceRoundTrip:
    def test_save_load_select(self, tmp_path):
        graph = load_dataset("nethept", scale=0.12, seed=61)
        annotate_graph(graph, opinion="uniform", interaction="uniform", seed=61)
        path = tmp_path / "annotated.txt"
        write_edge_list(graph, path)
        reloaded = read_edge_list(path)
        assert reloaded.number_of_edges == graph.number_of_edges
        assert reloaded.has_opinions()
        original = OSIMSelector(max_path_length=2, update_strategy="none", seed=0).select(graph, 3)
        restored = OSIMSelector(max_path_length=2, update_strategy="none", seed=0).select(reloaded, 3)
        assert set(original.seeds) == set(restored.seeds)
