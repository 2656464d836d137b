"""Unit tests for the synthetic dataset registry, tweet corpus and churn records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    available_datasets,
    dataset_spec,
    generate_customer_records,
    generate_tweet_corpus,
    load_dataset,
)
from repro.exceptions import ConfigurationError, DatasetError
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.stats import compute_stats, weakly_connected_components

#: ``graph_fingerprint`` of ``load_dataset(name, scale=0.3, seed=1)``.  The
#: generators must reproduce these bytes exactly: seeds, quality figures and
#: persisted index artifacts all key on the generated graph.
GOLDEN_FINGERPRINTS = {
    "dblp": "c5f0a62aabb2d70883628b20c9dbda36b73159e9c0e065a8cd6b63b5bfc3ae08",
    "friendster": "24ccd3e4a7e745f1cf30c65c8f84473fe765aab40a0be4873c110ab39cad8c03",
    "hepph": "3ab6ebd2457073a2604e4f76981d53d6a2ba468d58bd075f0a690f52d04ed960",
    "nethept": "1347c083be328d7880cbb3da533a878317f1c0276d133e4627ca0f0b086efbf2",
    "orkut": "ba4d4854ad6d5e51bd367979ce217d9ff8204fac32a35884eb5f56ccfab366b5",
    "soclive": "5356675ad912710556f6abe0bf0829720c0c8aebb2681b348835fd4fb2ed4777",
    "twitter": "c310e571617ebe6f3a67aeb719348270fcb2f3623b2abab87fcc89a116860c4f",
    "youtube": "a0fbbafdf8488f59ff64bfb5bf5bc9504b7b890474352be62b65582683be826e",
}


class TestRegistry:
    def test_all_paper_datasets_registered(self):
        names = available_datasets()
        for expected in ("nethept", "hepph", "dblp", "youtube", "soclive",
                         "orkut", "twitter", "friendster"):
            assert expected in names

    def test_dataset_spec_lookup_and_aliases(self):
        spec = dataset_spec("NetHEPT")
        assert spec.name == "nethept"
        assert dataset_spec("hep-ph").name == "hepph"
        assert dataset_spec("livejournal").name == "soclive"

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            dataset_spec("imaginary")
        with pytest.raises(DatasetError):
            load_dataset("imaginary")

    def test_spec_records_paper_statistics(self):
        spec = dataset_spec("nethept")
        assert spec.paper_nodes == 15_000
        assert spec.paper_edges == 62_000
        assert spec.paper_avg_degree == pytest.approx(4.1)

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("nethept", scale=0)

    def test_load_reproducible(self):
        first = load_dataset("nethept", scale=0.2, seed=5)
        second = load_dataset("nethept", scale=0.2, seed=5)
        assert first.number_of_nodes == second.number_of_nodes
        assert {(u, v) for u, v, _ in first.edges()} == {
            (u, v) for u, v, _ in second.edges()
        }

    def test_scale_grows_graph(self):
        small = load_dataset("nethept", scale=0.1, seed=1)
        larger = load_dataset("nethept", scale=0.3, seed=1)
        assert larger.number_of_nodes > small.number_of_nodes

    def test_default_probability_is_paper_value(self):
        graph = load_dataset("nethept", scale=0.1, seed=1)
        assert all(d.probability == pytest.approx(0.1) for _, _, d in graph.edges())
        custom = load_dataset("nethept", scale=0.1, seed=1, probability=0.05)
        assert all(d.probability == pytest.approx(0.05) for _, _, d in custom.edges())

    def test_invalid_probability(self):
        with pytest.raises(DatasetError):
            load_dataset("nethept", scale=0.1, probability=1.5)

    def test_golden_fingerprints_cover_every_dataset(self):
        assert sorted(GOLDEN_FINGERPRINTS) == available_datasets()

    @pytest.mark.parametrize("name, digest", sorted(GOLDEN_FINGERPRINTS.items()))
    def test_generated_graph_is_byte_identical(self, name, digest):
        graph = load_dataset(name, scale=0.3, seed=1)
        assert graph_fingerprint(graph.compile()) == digest

    @pytest.mark.parametrize("name", ["nethept", "hepph", "dblp", "youtube",
                                      "soclive", "orkut", "twitter", "friendster"])
    def test_every_dataset_generates(self, name):
        graph = load_dataset(name, scale=0.08, seed=3)
        assert graph.number_of_nodes >= 16
        assert graph.number_of_edges > 0
        assert graph.name == dataset_spec(name).name

    @pytest.mark.parametrize("dense_name, sparse_name", [("hepph", "nethept"),
                                                         ("orkut", "youtube")])
    def test_density_ordering_matches_paper(self, dense_name, sparse_name):
        """Denser paper datasets should produce denser stand-ins (Table 2)."""
        sparse = load_dataset(sparse_name, scale=0.3, seed=2)
        dense = load_dataset(dense_name, scale=0.3, seed=2)
        sparse_degree = sparse.number_of_edges / sparse.number_of_nodes
        dense_degree = dense.number_of_edges / dense.number_of_nodes
        assert dense_degree > sparse_degree

    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_effective_diameter_stays_small(self, name):
        """Table 2's stand-ins, at scale 0.4 and graph seed 7, keep a 90%
        effective diameter of at most 12, as the paper's graphs do."""
        graph = load_dataset(name, scale=0.4, seed=7)
        assert compute_stats(graph, seed=0).effective_diameter <= 12

    def test_graphs_are_mostly_connected(self):
        graph = load_dataset("dblp", scale=0.2, seed=4)
        components = weakly_connected_components(graph)
        largest = max(len(c) for c in components)
        assert largest >= 0.9 * graph.number_of_nodes

    def test_directed_family_is_not_symmetric(self):
        graph = load_dataset("twitter", scale=0.1, seed=4)
        asymmetric = sum(
            1 for u, v, _ in graph.edges() if not graph.has_edge(v, u)
        )
        assert asymmetric > 0

    def test_small_diameter(self):
        graph = load_dataset("hepph", scale=0.3, seed=5)
        stats = compute_stats(graph, seed=0)
        assert stats.effective_diameter <= 10.0


class TestTweetCorpus:
    def test_generation_shape(self):
        corpus = generate_tweet_corpus(users=80, topics=("#a", "#b"),
                                       tweets_per_topic=50, seed=1)
        assert corpus.background_graph.number_of_nodes == 80
        assert len(corpus.topics) == 2
        assert len(corpus.tweets) == 100
        assert set(corpus.true_opinions) == {"#a", "#b"}

    def test_true_opinions_in_range(self):
        corpus = generate_tweet_corpus(users=50, topics=("#a",), tweets_per_topic=30, seed=2)
        for opinions in corpus.true_opinions.values():
            assert all(-1.0 <= v <= 1.0 for v in opinions.values())

    def test_timestamps_sorted_within_topic(self):
        corpus = generate_tweet_corpus(users=50, topics=("#a", "#b"),
                                       tweets_per_topic=30, seed=3)
        for topic in corpus.topics:
            stamps = [t.timestamp for t in corpus.tweets_for_topic(topic)]
            assert stamps == sorted(stamps)

    def test_background_graph_is_byte_identical(self):
        corpus = generate_tweet_corpus(seed=0)
        assert graph_fingerprint(corpus.background_graph.compile()) == (
            "fc077eeee4e74694c24a92593e68d894fffb3394dd91ce46a4e5857385b9c7af"
        )

    def test_reproducible(self):
        first = generate_tweet_corpus(users=40, topics=("#a",), tweets_per_topic=20, seed=7)
        second = generate_tweet_corpus(users=40, topics=("#a",), tweets_per_topic=20, seed=7)
        assert [t.text for t in first.tweets] == [t.text for t in second.tweets]

    def test_sentiment_recoverable_from_text(self):
        """The lexicon analyser should recover the expressed opinion direction.

        Expressed opinions mix the author's latent opinion with the opinion of
        the user that recruited them into the cascade, so the check uses the
        cascade originators (who express their own latent opinion) plus a
        majority-agreement requirement for everyone else.
        """
        from repro.opinion.sentiment import SentimentAnalyzer

        corpus = generate_tweet_corpus(users=60, topics=("#a",), tweets_per_topic=60, seed=4)
        analyzer = SentimentAnalyzer()
        matches = 0
        strong = 0
        originators = set(corpus.true_originators["#a"])
        for tweet in corpus.tweets:
            truth = corpus.true_opinions[tweet.topic][tweet.user]
            if abs(truth) < 0.4:
                continue
            strong += 1
            if (analyzer.score(tweet.text) > 0) == (truth > 0):
                matches += 1
        assert strong > 0
        assert matches / strong > 0.55
        # Originators always express their own opinion, so they must match well.
        originator_tweets = [t for t in corpus.tweets if t.user in originators
                             and abs(corpus.true_opinions["#a"][t.user]) > 0.3]
        if originator_tweets:
            originator_matches = sum(
                (analyzer.score(t.text) > 0) == (corpus.true_opinions["#a"][t.user] > 0)
                for t in originator_tweets
            )
            assert originator_matches / len(originator_tweets) >= 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_tweet_corpus(users=5)
        with pytest.raises(ConfigurationError):
            generate_tweet_corpus(users=50, tweets_per_topic=2, originators_per_topic=5)


class TestCustomerRecords:
    def test_generation_shape_and_balance(self):
        records = generate_customer_records(customers=100, churn_fraction=0.5, seed=1)
        assert records.number_of_customers == 100
        assert records.attributes.shape == (100, 8)
        assert abs(int(records.churned.sum()) - 50) <= 1

    def test_labels_convention(self):
        records = generate_customer_records(customers=50, seed=2)
        labels = records.churn_labels()
        assert set(np.unique(labels)) == {-1.0, 1.0}
        assert np.all((labels == -1.0) == records.churned)

    def test_churners_have_more_complaints(self):
        records = generate_customer_records(customers=400, seed=3)
        complaints = records.attributes[:, 4]
        churner_mean = complaints[records.churned].mean()
        keeper_mean = complaints[~records.churned].mean()
        assert churner_mean > keeper_mean

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_customer_records(customers=1)
        with pytest.raises(ConfigurationError):
            generate_customer_records(customers=10, churn_fraction=1.5)

    def test_reproducible(self):
        first = generate_customer_records(customers=30, seed=9)
        second = generate_customer_records(customers=30, seed=9)
        assert np.allclose(first.attributes, second.attributes)
        assert np.array_equal(first.churned, second.churned)
