"""The RIS spread oracle's two paths and the bounded stable argsort.

``RRSetCollection.estimated_spreads`` counts covered sets either by walking
the member array or, once the inverted index is cached, by looking the
seeds up in it.  Both paths must give exactly the same answers on any
collection, and must reject seeds outside the node range.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SketchIndexError
from repro.graphs.generators import erdos_renyi_graph
from repro.sketches import BatchRRSampler, RRSetCollection
from repro.sketches.sampler import stable_argsort_bounded

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def collections_and_queries(draw):
    """A small collection (empty sets and repeated members allowed) plus
    seed sets with duplicates, an empty seed list and the all-nodes set."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    sets = draw(st.lists(st.lists(node, max_size=6), max_size=15))
    queries = draw(st.lists(st.lists(node, max_size=8), max_size=6))
    return n, sets, queries + [[], list(range(n))]


def brute_force(n, sets, queries):
    """``n`` times the fraction of sets meeting each query, by set intersection."""
    if not sets:
        return [0.0] * len(queries)
    return [
        sum(1 for s in sets if set(s) & set(q)) / len(sets) * n for q in queries
    ]


def indexed(collection):
    collection.inverted_index()
    return collection


class PathSpy:
    """Records which oracle path each query takes."""

    def __init__(self, monkeypatch):
        self.paths = []
        for name in ("_walk_counts", "_index_counts"):
            original = getattr(RRSetCollection, name)

            def spy(collection, *args, _original=original, _name=name):
                self.paths.append(_name)
                return _original(collection, *args)

            monkeypatch.setattr(RRSetCollection, name, spy)


class TestTwoPathsAgree:
    @SETTINGS
    @given(collections_and_queries())
    def test_walk_and_index_equal_brute_force(self, case):
        n, sets, queries = case
        expected = brute_force(n, sets, queries)
        walk = RRSetCollection.from_lists(n, sets)
        index = indexed(RRSetCollection.from_lists(n, sets))
        assert walk.estimated_spreads(queries).tolist() == expected
        assert index.estimated_spreads(queries).tolist() == expected
        for query, value in zip(queries, expected):
            assert walk.estimated_spread(query) == value
            assert index.estimated_spread(query) == value
            assert walk.covered_fraction(query) == index.covered_fraction(query)

    @SETTINGS
    @given(collections_and_queries(), collections_and_queries())
    def test_append_after_index_never_reads_a_stale_index(self, first, second):
        n, sets, queries = first
        _, more, _ = second
        more = [[v % n for v in s] for s in more]
        collection = indexed(RRSetCollection.from_lists(n, sets))
        extra = RRSetCollection.from_lists(n, more)
        collection.append(extra.members, extra.indptr)
        expected = brute_force(n, sets + more, queries)
        assert collection.estimated_spreads(queries).tolist() == expected
        assert indexed(collection).estimated_spreads(queries).tolist() == expected

    @SETTINGS
    @given(collections_and_queries())
    def test_from_csr_with_persisted_index(self, case):
        n, sets, queries = case
        source = RRSetCollection.from_lists(n, sets)
        node_indptr, node_sets = source.inverted_index()
        reopened = RRSetCollection.from_csr(
            n, source.members, source.indptr,
            node_indptr=node_indptr.copy(), node_sets=node_sets.copy(),
        )
        expected = brute_force(n, sets, queries)
        assert reopened.estimated_spreads(queries).tolist() == expected

    def test_sampled_collection_answers_identically(self):
        graph = erdos_renyi_graph(150, 0.04, seed=3)
        graph.set_weighted_cascade_probabilities()
        compiled = graph.compile()
        collection = RRSetCollection(compiled.number_of_nodes)
        BatchRRSampler(compiled, "ic").sample_into(
            np.random.default_rng(4), collection, 3000, 512
        )
        rng = np.random.default_rng(5)
        queries = [rng.choice(150, size=k, replace=False) for k in (1, 5, 10, 40, 150)]
        walk = collection.estimated_spreads(queries)
        collection.inverted_index()
        assert collection.estimated_spreads(queries).tobytes() == walk.tobytes()


class TestPathSelection:
    def test_index_only_when_cached_and_nothing_pending(self, monkeypatch):
        spy = PathSpy(monkeypatch)
        collection = RRSetCollection.from_lists(4, [[0, 1], [2]])
        collection.estimated_spread([0])
        collection.inverted_index()
        collection.estimated_spread([0])
        collection.append(np.array([3]), np.array([0, 1]))
        assert collection.estimated_spread([3]) == pytest.approx(4 / 3)
        collection.inverted_index()
        collection.covered_fraction([3])
        assert spy.paths == ["_walk_counts", "_index_counts", "_walk_counts", "_index_counts"]

    def test_walk_does_not_build_the_index(self):
        collection = RRSetCollection.from_lists(4, [[0, 1], [2]])
        collection.estimated_spreads([[0], [2]])
        assert collection._node_sets is None


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, -4, 4, 100])
    @pytest.mark.parametrize("with_index", [False, True])
    def test_seed_outside_node_range_raises(self, seed, with_index):
        collection = RRSetCollection.from_lists(4, [[0], [1, 3], [3], [2]])
        if with_index:
            collection.inverted_index()
        with pytest.raises(SketchIndexError, match=f"seed {seed} "):
            collection.estimated_spread([seed])
        with pytest.raises(SketchIndexError):
            collection.estimated_spreads([[0], [1, seed]])
        with pytest.raises(SketchIndexError):
            collection.covered_fraction([seed])

    def test_seed_outside_node_range_raises_on_empty_collection(self):
        with pytest.raises(SketchIndexError):
            RRSetCollection(3).estimated_spread([3])


class TestStableArgsortBounded:
    @pytest.mark.parametrize(
        "bound", [1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**40]
    )
    def test_matches_numpy_stable_argsort(self, bound):
        rng = np.random.default_rng(bound % 1000)
        # Few distinct values, so ties (and stability) matter, plus both ends.
        distinct = np.unique(
            np.concatenate([rng.integers(0, bound, size=50), [0, bound - 1]])
        )
        keys = rng.choice(distinct, size=5000).astype(np.int64)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(stable_argsort_bounded(keys, bound), expected)

    def test_empty(self):
        assert stable_argsort_bounded(np.empty(0, dtype=np.int64), 10).size == 0

    def test_block_assembly_independent_of_radix_passes(self):
        # One block above 2**16 sets takes the two-pass sort in
        # _finish_block; small blocks take one pass.  Same CSR either way.
        graph = erdos_renyi_graph(60, 0.05, seed=7)
        graph.set_weighted_cascade_probabilities()
        compiled = graph.compile()
        tokens = BatchRRSampler.draw_tokens(np.random.default_rng(8), 2**16 + 100)
        members, indptr, widths = BatchRRSampler(compiled, "ic").sample_tokens(tokens)
        small = BatchRRSampler(compiled, "ic")
        blocks = [small.sample_tokens(tokens[i:i + 4096]) for i in range(0, tokens.size, 4096)]
        chained = RRSetCollection(compiled.number_of_nodes)
        for block_members, block_indptr, _ in blocks:
            chained.append(block_members, block_indptr)
        assert np.array_equal(chained.members, members)
        assert np.array_equal(chained.indptr, indptr)
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), widths)
