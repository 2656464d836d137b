"""Unit tests for opinion annotation, estimation, sentiment, topics and churn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.pakdd import generate_customer_records
from repro.datasets.tweets import generate_tweet_corpus
from repro.exceptions import ConfigurationError
from repro.graphs import DiGraph, path_graph
from repro.opinion import (
    ChurnAnalysis,
    SentimentAnalyzer,
    TopicSubgraphBuilder,
    annotate_interactions,
    annotate_opinions,
    build_similarity_graph,
    estimate_interactions_from_agreements,
    estimate_opinion_from_history,
    label_propagation,
)
from repro.opinion.annotate import annotate_graph
from repro.opinion.churn import attribute_similarity_matrix
from repro.opinion.estimation import normalized_rmse
from repro.opinion.topics import Tweet, ground_truth_opinion_spread


class TestAnnotation:
    def test_uniform_opinions_in_range(self, small_ic_graph):
        assigned = annotate_opinions(small_ic_graph, scheme="uniform", seed=1)
        assert len(assigned) == small_ic_graph.number_of_nodes
        assert all(-1.0 <= v <= 1.0 for v in assigned.values())
        assert small_ic_graph.has_opinions()

    def test_normal_opinions_clipped(self, small_ic_graph):
        assigned = annotate_opinions(small_ic_graph, scheme="normal", seed=1)
        assert all(-1.0 <= v <= 1.0 for v in assigned.values())

    def test_positive_scheme(self, small_ic_graph):
        assigned = annotate_opinions(small_ic_graph, scheme="positive", seed=1)
        assert all(0.0 <= v <= 1.0 for v in assigned.values())

    def test_constant_scheme(self, small_ic_graph):
        assigned = annotate_opinions(small_ic_graph, scheme="constant", constant=0.3)
        assert set(assigned.values()) == {0.3}

    def test_constant_out_of_range(self, small_ic_graph):
        with pytest.raises(ConfigurationError):
            annotate_opinions(small_ic_graph, scheme="constant", constant=2.0)

    def test_unknown_scheme(self, small_ic_graph):
        with pytest.raises(ConfigurationError):
            annotate_opinions(small_ic_graph, scheme="bogus")

    def test_reproducible(self, small_ic_graph):
        first = annotate_opinions(small_ic_graph, scheme="uniform", seed=9)
        second = annotate_opinions(small_ic_graph, scheme="uniform", seed=9)
        assert first == second

    def test_interaction_schemes(self, small_ic_graph):
        count = annotate_interactions(small_ic_graph, scheme="uniform", seed=1)
        assert count == small_ic_graph.number_of_edges
        annotate_interactions(small_ic_graph, scheme="agreeable", seed=1)
        assert all(d.interaction >= 0.5 for _, _, d in small_ic_graph.edges())
        annotate_interactions(small_ic_graph, scheme="constant", constant=0.25)
        assert all(d.interaction == 0.25 for _, _, d in small_ic_graph.edges())

    @pytest.mark.parametrize("scheme, low", [("uniform", 0.0), ("agreeable", 0.5)])
    def test_interaction_draw_matches_scalar_loop(self, small_ic_graph, scheme, low):
        # One vector draw assigned in edge order equals one scalar draw per
        # edge, and leaves the generator at the same position.
        rng = np.random.default_rng(17)
        reference = [float(rng.uniform(low, 1.0)) for _ in small_ic_graph.edges()]
        after = rng.uniform()
        shared = np.random.default_rng(17)
        annotate_interactions(small_ic_graph, scheme=scheme, seed=shared)
        drawn = [d.interaction for _, _, d in small_ic_graph.edges()]
        assert drawn == reference
        assert shared.uniform() == after

    def test_interaction_constant_validated_before_edges(self):
        edgeless = DiGraph()
        edgeless.add_node("a")
        with pytest.raises(ConfigurationError, match="constant interaction"):
            annotate_interactions(edgeless, scheme="constant", constant=1.5)

    def test_interaction_unknown_scheme(self, small_ic_graph):
        with pytest.raises(ConfigurationError):
            annotate_interactions(small_ic_graph, scheme="bogus")

    def test_annotate_graph_combined(self, small_ic_graph):
        graph = annotate_graph(small_ic_graph, opinion="uniform", interaction="uniform", seed=2)
        assert graph is small_ic_graph
        assert graph.has_opinions()


class TestEstimation:
    def test_opinion_from_history_weighted(self):
        history = {"a": 1.0, "b": -1.0}
        estimate = estimate_opinion_from_history(history, ["a", "b"])
        # weights 1 and 0.5 -> (1 - 0.5) / 1.5
        assert estimate == pytest.approx((1.0 - 0.5) / 1.5)

    def test_opinion_from_history_missing_topics(self):
        assert estimate_opinion_from_history({}, ["a", "b"], default=0.3) == 0.3

    def test_opinion_from_history_weight_mismatch(self):
        with pytest.raises(ConfigurationError):
            estimate_opinion_from_history({"a": 1.0}, ["a"], weights=[1.0, 2.0])

    def test_interactions_from_agreements(self):
        opinions = {
            "t1": {"u": 0.5, "v": 0.4},
            "t2": {"u": 0.5, "v": -0.4},
            "t3": {"u": -0.1, "v": -0.2},
        }
        estimates = estimate_interactions_from_agreements(opinions, [("u", "v")])
        assert estimates[("u", "v")] == pytest.approx(2.0 / 3.0)

    def test_interactions_default_when_no_shared_topic(self):
        estimates = estimate_interactions_from_agreements({}, [("u", "v")], default=0.5)
        assert estimates[("u", "v")] == 0.5

    def test_normalized_rmse(self):
        assert normalized_rmse([1.0, 1.0], [1.0, 1.0]) == 0.0
        value = normalized_rmse([1.0, 0.0], [0.0, 0.0], as_percent=False)
        assert value > 0.0
        with pytest.raises(ConfigurationError):
            normalized_rmse([1.0], [1.0, 2.0])


class TestSentiment:
    def test_positive_and_negative_text(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("I love this amazing phone") > 0.5
        assert analyzer.score("terrible awful broken useless") < -0.5

    def test_neutral_text(self):
        analyzer = SentimentAnalyzer()
        result = analyzer.analyze("the update about this thing today")
        assert result.is_neutral
        assert result.score == 0.0

    def test_negation_flips_polarity(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("not good") < 0.0
        assert analyzer.score("good") > 0.0

    def test_intensifier_amplifies(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("really love it") >= analyzer.score("like it")

    def test_score_user_average(self):
        analyzer = SentimentAnalyzer()
        value = analyzer.score_user(["love it", "hate it"])
        assert -0.2 < value < 0.2
        assert analyzer.score_user([]) == 0.0

    def test_hashtags_stripped(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("#love this") > 0.0


class TestTopicSubgraphs:
    def _background(self) -> DiGraph:
        graph = path_graph(6, probability=0.2)
        return graph

    def test_build_basic_subgraph(self):
        background = self._background()
        tweets = [
            Tweet(user=0, timestamp=1.0, text="love it", topic="#x"),
            Tweet(user=1, timestamp=2.0, text="hate it", topic="#x"),
            Tweet(user=2, timestamp=3.0, text="just news", topic="#x"),
        ]
        builder = TopicSubgraphBuilder(background)
        subgraphs = builder.build(tweets)
        assert len(subgraphs) >= 1
        subgraph = subgraphs[0]
        assert subgraph.number_of_nodes == 3
        assert subgraph.graph.has_edge(0, 1)
        # originators are the nodes without in-edges in the topic graph
        assert 0 in subgraph.originators
        assert subgraph.ground_truth_opinions[0] > 0
        assert subgraph.ground_truth_opinions[1] < 0

    def test_ground_truth_opinion_spread_excludes_originators(self):
        background = self._background()
        tweets = [
            Tweet(user=0, timestamp=1.0, text="love it", topic="#x"),
            Tweet(user=1, timestamp=2.0, text="love this amazing thing", topic="#x"),
        ]
        builder = TopicSubgraphBuilder(background)
        subgraph = builder.build(tweets)[0]
        value = ground_truth_opinion_spread(subgraph)
        assert value == pytest.approx(subgraph.ground_truth_opinions[1])

    def test_multiple_topics_build_separate_graphs(self):
        background = self._background()
        tweets = [
            Tweet(user=0, timestamp=1.0, text="love", topic="#a"),
            Tweet(user=1, timestamp=2.0, text="hate", topic="#b"),
        ]
        subgraphs = TopicSubgraphBuilder(background).build(tweets)
        topics = {s.topic for s in subgraphs}
        assert topics == {"#a", "#b"}

    def test_synthetic_corpus_pipeline(self):
        corpus = generate_tweet_corpus(users=60, topics=("#a", "#b"), tweets_per_topic=40,
                                       originators_per_topic=3, seed=1)
        builder = TopicSubgraphBuilder(corpus.background_graph)
        subgraphs = builder.build(corpus.tweets)
        assert len(subgraphs) >= 2
        for subgraph in subgraphs:
            assert subgraph.number_of_nodes > 0
            for opinion in subgraph.ground_truth_opinions.values():
                assert -1.0 <= opinion <= 1.0


class TestChurn:
    def test_similarity_matrix_properties(self):
        attributes = np.array([[1.0, 2.0], [1.0, 2.0], [10.0, 20.0]])
        similarity = attribute_similarity_matrix(attributes)
        assert similarity[0, 1] == pytest.approx(1.0)
        assert similarity[0, 2] < similarity[0, 1]
        assert np.allclose(similarity, similarity.T)

    def test_similarity_matrix_requires_2d(self):
        with pytest.raises(ConfigurationError):
            attribute_similarity_matrix(np.array([1.0, 2.0]))

    def test_build_similarity_graph_threshold(self):
        attributes = np.array([[0.0], [0.01], [1.0]])
        graph = build_similarity_graph(attributes, similarity_threshold=0.9)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)

    def test_label_propagation_clamps_labels(self):
        graph = path_graph(3, probability=1.0)
        graph.add_edge(1, 0, probability=1.0)
        graph.add_edge(2, 1, probability=1.0)
        values = label_propagation(graph, {0: 1.0, 2: -1.0})
        assert values[0] == 1.0
        assert values[2] == -1.0
        assert -1.0 < values[1] < 1.0

    def test_label_propagation_unknown_node(self):
        graph = path_graph(3)
        with pytest.raises(ConfigurationError):
            label_propagation(graph, {99: 1.0})

    def test_churn_analysis_end_to_end(self):
        records = generate_customer_records(customers=60, seed=2)
        analysis = ChurnAnalysis(similarity_threshold=0.8, max_neighbors=10, seed=2)
        graph = analysis.build_opinion_graph(records.attributes, records.churn_labels())
        assert graph.number_of_nodes == 60
        assert graph.has_opinions()
        for _, _, data in graph.edges():
            assert 0.0 <= data.interaction <= 1.0
            assert 0.0 <= data.probability <= 1.0

    def test_churn_analysis_label_validation(self):
        records = generate_customer_records(customers=20, seed=2)
        analysis = ChurnAnalysis(seed=1)
        with pytest.raises(ConfigurationError):
            analysis.build_opinion_graph(records.attributes, [1.0, -1.0])
