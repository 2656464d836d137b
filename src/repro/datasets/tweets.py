"""Synthetic Twitter corpus for the Sec. 4.1.1 case study.

The paper crawls 41.6M users, 1.5B follower edges and 476M tweets, tags each
tweet with hashtags, and scores sentiment with commercial APIs.  None of that
data is redistributable, so this module generates a *behaviourally equivalent*
synthetic corpus:

* a directed background follower graph (forest-fire stand-in);
* a set of topics (hashtags), each with a latent "controversy" profile;
* per user, a latent opinion per topic, correlated across related topics so
  that the paper's opinion-estimation-from-history procedure has signal;
* a time-ordered tweet stream per topic: cascades start at a few originator
  users and spread along follower edges; a recruited user's *expressed*
  opinion mixes their latent opinion with the expressed opinion of the user
  who recruited them (agreeing most of the time), and each tweet's *text* is
  composed from sentiment-lexicon words reflecting that expressed opinion plus
  noise words, so the lexicon analyser recovers it with realistic error.

The corpus exposes both the observable data (graph + tweets) and the latent
ground truth (true opinions per topic), which the Fig. 5a/5b benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.datasets.synthetic import make_directed_social_graph
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import DiGraph
from repro.opinion.topics import Tweet
from repro.utils.rng import RandomState, ensure_rng

#: Words drawn for a positive-opinion tweet, by increasing strength.
_POSITIVE_WORDS = ["fine", "nice", "good", "great", "excellent", "amazing", "love"]
#: Words drawn for a negative-opinion tweet, by increasing strength.
_NEGATIVE_WORDS = ["meh", "slow", "poor", "bad", "disappointing", "terrible", "hate"]
#: Sentiment-free filler words.
_NEUTRAL_WORDS = [
    "today", "just", "saw", "the", "new", "update", "about", "this", "thing",
    "people", "talking", "everyone", "check", "out", "thread", "news", "again",
]

#: Default topic names, loosely mirroring the hashtags in Fig. 5a.
DEFAULT_TOPICS = (
    "#followfriday", "#healthcare", "#obama", "#iphone", "#worldcup",
    "#music", "#jobs", "#travel",
)


@dataclass
class SyntheticTweetCorpus:
    """Background graph, tweet stream and latent ground truth."""

    background_graph: DiGraph
    tweets: List[Tweet]
    topics: List[str]
    #: topic -> {user -> latent (true) opinion}
    true_opinions: Dict[str, Dict[object, float]] = field(default_factory=dict)
    #: topic -> originator users of the synthetic cascades
    true_originators: Dict[str, List[object]] = field(default_factory=dict)

    def tweets_for_topic(self, topic: str) -> List[Tweet]:
        return [tweet for tweet in self.tweets if tweet.topic == topic]


def _compose_tweet_text(
    opinion: float, topic: str, rng: np.random.Generator
) -> str:
    """Compose a short tweet whose lexicon sentiment approximates ``opinion``."""
    words: List[str] = [topic]
    strength = abs(opinion)
    sentiment_words = _POSITIVE_WORDS if opinion >= 0 else _NEGATIVE_WORDS
    # Stronger opinions use stronger and more sentiment words.
    count = 1 + int(strength * 2.5)
    for _ in range(count):
        # Index into the word lists proportionally to strength, with noise.
        position = int(
            np.clip(
                round(strength * (len(sentiment_words) - 1) + rng.normal(0, 0.8)),
                0,
                len(sentiment_words) - 1,
            )
        )
        if strength < 0.05 and rng.random() < 0.8:
            words.append(_NEUTRAL_WORDS[int(rng.integers(0, len(_NEUTRAL_WORDS)))])
        else:
            words.append(sentiment_words[position])
    filler = rng.integers(2, 6)
    for _ in range(int(filler)):
        words.append(_NEUTRAL_WORDS[int(rng.integers(0, len(_NEUTRAL_WORDS)))])
    rng.shuffle(words)
    return " ".join(words)


def generate_tweet_corpus(
    users: int = 400,
    topics: Sequence[str] = DEFAULT_TOPICS,
    tweets_per_topic: int = 300,
    originators_per_topic: int = 5,
    average_degree: float = 8.0,
    seed: RandomState = 0,
) -> SyntheticTweetCorpus:
    """Generate a synthetic tweet corpus over a synthetic follower graph.

    Parameters
    ----------
    users:
        Number of users in the background follower graph.
    topics:
        Topic (hashtag) names; consecutive topics are treated as "related",
        i.e. a user's latent opinions on neighbouring topics are correlated,
        which gives the history-based opinion estimator signal to exploit.
    tweets_per_topic:
        Length of each topic's tweet stream.
    originators_per_topic:
        Number of users that start each topic's cascades.
    average_degree:
        Density of the background graph.
    """
    if users < 10:
        raise ConfigurationError(f"users must be >= 10, got {users}")
    if tweets_per_topic < originators_per_topic:
        raise ConfigurationError(
            "tweets_per_topic must be at least originators_per_topic"
        )
    rng = ensure_rng(seed)
    # The influence probability matches the per-edge participation probability
    # used by the cascade process below — i.e. what one would estimate from the
    # observed retweet rate, which is how the paper derives p from data.
    participation_probability = 0.35
    background = make_directed_social_graph(
        users, average_degree, rng, probability=participation_probability
    )
    background.name = "twitter-background"
    user_list = list(background.nodes())

    topics = list(topics)
    # Latent per-user opinions, correlated across consecutive (related) topics.
    base_opinion = rng.uniform(-1.0, 1.0, size=users)
    true_opinions: Dict[str, Dict[object, float]] = {}
    for topic_index, topic in enumerate(topics):
        drift = rng.normal(0.0, 0.25, size=users)
        topic_bias = rng.normal(0.0, 0.3)
        values = np.clip(base_opinion + topic_index * 0.02 + topic_bias + drift, -1, 1)
        true_opinions[topic] = {
            user: float(values[i]) for i, user in enumerate(user_list)
        }

    tweets: List[Tweet] = []
    true_originators: Dict[str, List[object]] = {}
    timestamp = 0.0
    for topic in topics:
        # Pick originators biased towards high out-degree users (influencers).
        degrees = np.array([background.out_degree(u) + 1.0 for u in user_list])
        probabilities = degrees / degrees.sum()
        originator_positions = rng.choice(
            users, size=originators_per_topic, replace=False, p=probabilities
        )
        originators = [user_list[int(i)] for i in originator_positions]
        true_originators[topic] = originators

        # Cascade: start from originators, spread along follower edges.  A
        # recruited user expresses an opinion that *mixes* their own latent
        # opinion with the expressed opinion of the user who pulled them into
        # the cascade (agreeing most of the time, disagreeing otherwise) —
        # the opinion dynamics the OI model postulates and the paper observes
        # in the real Twitter data.
        agreement_probability = 0.8
        expressed_opinion: Dict[object, float] = {}
        participating: List[object] = list(originators)
        participating_set = set(originators)
        for originator in originators:
            expressed_opinion[originator] = true_opinions[topic][originator]
        frontier = list(originators)
        while frontier and len(participating) < tweets_per_topic:
            next_frontier: List[object] = []
            for user in frontier:
                for follower in background.successors(user):
                    if follower in participating_set:
                        continue
                    if rng.random() < participation_probability:
                        sign = 1.0 if rng.random() < agreement_probability else -1.0
                        mixed = (
                            true_opinions[topic][follower]
                            + sign * expressed_opinion[user]
                        ) / 2.0
                        expressed_opinion[follower] = float(np.clip(mixed, -1.0, 1.0))
                        participating.append(follower)
                        participating_set.add(follower)
                        next_frontier.append(follower)
                        if len(participating) >= tweets_per_topic:
                            break
                if len(participating) >= tweets_per_topic:
                    break
            frontier = next_frontier
        # Top up with random users if the cascade died early; they tweet
        # spontaneously, so they express their own (noisy) latent opinion.
        while len(participating) < tweets_per_topic:
            user = user_list[int(rng.integers(0, users))]
            if user not in participating_set:
                expressed_opinion[user] = float(
                    np.clip(true_opinions[topic][user] + rng.normal(0.0, 0.1), -1.0, 1.0)
                )
                participating.append(user)
                participating_set.add(user)

        for user in participating:
            timestamp += float(rng.exponential(1.0))
            expressed = float(
                np.clip(expressed_opinion[user] + rng.normal(0.0, 0.1), -1.0, 1.0)
            )
            tweets.append(
                Tweet(
                    user=user,
                    timestamp=timestamp,
                    text=_compose_tweet_text(expressed, topic, rng),
                    topic=topic,
                )
            )
        # Quiet gap between topics so topic subgraphs do not interleave.
        timestamp += 50.0

    return SyntheticTweetCorpus(
        background_graph=background,
        tweets=tweets,
        topics=topics,
        true_opinions=true_opinions,
        true_originators=true_originators,
    )
