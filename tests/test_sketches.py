"""Tests for the vectorized RR-sketch subsystem and its TIM+/IMM rewiring."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.easyim import EaSyIMSelector
from repro.algorithms.imm import IMMSelector
from repro.algorithms.tim import TIMPlusSelector
from repro.api import SketchEstimator
from repro.diffusion.simulation import MonteCarloEngine
from repro.exceptions import BudgetError, ConfigurationError, SketchError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import barabasi_albert_graph, erdos_renyi_graph
import repro.sketches.collection as collection_module
from repro.sketches import (
    BatchRRSampler,
    RRSetCollection,
    greedy_max_coverage,
    in_edge_probabilities,
    pad_with_unselected,
)
from rr_reference import sample_rr_set


@pytest.fixture(scope="module")
def wc_graph():
    graph = erdos_renyi_graph(120, 0.05, seed=2)
    graph.set_weighted_cascade_probabilities()
    return graph


@pytest.fixture(scope="module")
def wc_compiled(wc_graph):
    return wc_graph.compile()


@pytest.fixture(scope="module")
def lt_compiled(wc_graph):
    graph = wc_graph.copy()
    graph.set_linear_threshold_weights()
    return graph.compile()


@pytest.fixture(scope="module")
def mixed_compiled(wc_graph):
    """IC probabilities drawn per edge, so in-slices are not uniform."""
    graph = wc_graph.copy()
    rng = np.random.default_rng(31)
    for source, target, _ in list(graph.edges()):
        graph.set_probability(source, target, float(rng.uniform(0.05, 0.6)))
    return graph.compile()


def _sample_chunked(compiled, model, chunks, seed):
    sampler = BatchRRSampler(compiled, model)
    rng = np.random.default_rng(seed)
    collection = RRSetCollection(compiled.number_of_nodes)
    widths = []
    for count in chunks:
        members, indptr, block_widths = sampler.sample(rng, count)
        collection.append(members, indptr)
        widths.append(block_widths)
    return collection, np.concatenate(widths) if widths else np.empty(0)


class TestBatchSampler:
    @pytest.mark.parametrize("model", ["ic", "wc", "lt"])
    def test_fixed_seed_determinism_independent_of_block_size(
        self, wc_compiled, model
    ):
        whole, whole_widths = _sample_chunked(wc_compiled, model, [240], seed=7)
        split, split_widths = _sample_chunked(
            wc_compiled, model, [64, 64, 64, 48], seed=7
        )
        tiny, tiny_widths = _sample_chunked(
            wc_compiled, model, [7] * 34 + [2], seed=7
        )
        for other, other_widths in ((split, split_widths), (tiny, tiny_widths)):
            assert np.array_equal(whole.members, other.members)
            assert np.array_equal(whole.indptr, other.indptr)
            assert np.array_equal(whole_widths, other_widths)

    @pytest.mark.parametrize("model", ["ic", "wc", "lt"])
    def test_sample_into_independent_of_tiny_block_sizes(
        self, wc_compiled, lt_compiled, mixed_compiled, model
    ):
        # 1500 sets over 2 or 3 concurrent sets: every slot opens 500 or
        # more sets, so its visited tags wrap past 255 at least once.
        compiled = {"ic": mixed_compiled, "wc": wc_compiled, "lt": lt_compiled}[model]
        arrays = []
        for block_size in (2048, 2, 3):
            collection = RRSetCollection(compiled.number_of_nodes)
            BatchRRSampler(compiled, model).sample_into(
                np.random.default_rng(17), collection, 1500, block_size
            )
            arrays.append((collection.members, collection.indptr))
        reference_members, reference_indptr = arrays[0]
        assert reference_indptr[-1] > 1500  # not just the roots
        for members, indptr in arrays[1:]:
            assert np.array_equal(members, reference_members)
            assert np.array_equal(indptr, reference_indptr)

    def test_generation_wrap_wipes_the_slot(self):
        # One slot: the first set visits {a, b}, the next 254 sets only c,
        # so the 256th set opens after the slot's generation wrapped back
        # to the first set's.  Stale tags would hide b from it.  The single
        # in-edge b -> a is traversed with probability 1 under every model.
        graph = DiGraph()
        graph.add_edge("b", "a", probability=1.0)
        graph.add_node("c")
        compiled = graph.compile()
        a, b, c = compiled.indices_for(["a", "b", "c"])
        roots = np.array([a] + [c] * 254 + [a])
        tokens = np.int64(3) * np.arange(1, roots.size + 1) + roots
        for model in ("ic", "wc", "lt"):
            members, indptr, _ = BatchRRSampler(compiled, model).sample_tokens(
                tokens, slots=1
            )
            assert members[indptr[-2]:].tolist() == [a, b], model
            assert members[: indptr[1]].tolist() == [a, b], model

    def test_buffer_reuse_across_blocks_is_clean(self, wc_compiled):
        # (140, 100, 260): the second call runs on the first rows of a
        # larger buffer, the third regrows it.
        for counts in ((100, 140), (140, 100, 260)):
            sampler = BatchRRSampler(wc_compiled, "ic")
            rng = np.random.default_rng(7)
            collection = RRSetCollection(wc_compiled.number_of_nodes)
            for count in counts:
                members, indptr, _ = sampler.sample(rng, count)
                collection.append(members, indptr)
            fresh, _ = _sample_chunked(wc_compiled, "ic", [sum(counts)], seed=7)
            assert np.array_equal(collection.members, fresh.members)
            assert np.array_equal(collection.indptr, fresh.indptr)

    def test_deterministic_chain_rr_set(self):
        graph = DiGraph()
        graph.add_edge(0, 1, probability=1.0)
        graph.add_edge(1, 2, probability=1.0)
        compiled = graph.compile()
        sampler = BatchRRSampler(compiled, "ic")
        members, indptr, widths = sampler.sample_roots(
            np.random.default_rng(0), np.array([compiled.index_of[2]])
        )
        # With p = 1 the RR set of node 2 is every node that can reach it.
        assert set(members[indptr[0]:indptr[1]].tolist()) == {
            compiled.index_of[0], compiled.index_of[1], compiled.index_of[2]
        }
        assert widths[0] == 2

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_membership_frequencies_match_scalar_sampler(
        self, wc_compiled, lt_compiled, model
    ):
        compiled = lt_compiled if model == "lt" else wc_compiled
        n = compiled.number_of_nodes
        draws = 4000
        probabilities = in_edge_probabilities(compiled, model)
        rng = np.random.default_rng(11)
        scalar_frequency = np.zeros(n)
        scalar_width = 0.0
        for _ in range(draws):
            root = int(rng.integers(0, n))
            members, width = sample_rr_set(
                compiled, probabilities, root, rng, model
            )
            scalar_frequency[list(members)] += 1
            scalar_width += width

        sampler = BatchRRSampler(compiled, model)
        # Fixed generator seeds per model keep the 120-way max-z comparison
        # under the 3-sigma bar (the bound is per-node, not family-wise).
        batch_seed = 13 if model == "lt" else 12
        members, _, widths = sampler.sample(
            np.random.default_rng(batch_seed), draws
        )
        batch_frequency = np.bincount(members, minlength=n).astype(np.float64)

        pooled = (scalar_frequency + batch_frequency) / (2 * draws)
        sigma = np.sqrt(np.maximum(pooled * (1 - pooled), 1e-12) * (2 / draws))
        z = np.abs(scalar_frequency - batch_frequency) / draws / sigma
        assert z.max() < 3.0 + 1e-9
        # Mean width (edges examined) agrees as well.
        width_scale = max(scalar_width / draws, 1.0)
        assert abs(scalar_width / draws - widths.mean()) / width_scale < 0.15

    def test_rejects_unknown_model(self, wc_compiled):
        with pytest.raises(ConfigurationError):
            BatchRRSampler(wc_compiled, "oi-ic")
        with pytest.raises(ConfigurationError):
            in_edge_probabilities(wc_compiled, "bogus")

    def test_negative_count_rejected(self, wc_compiled):
        sampler = BatchRRSampler(wc_compiled, "ic")
        with pytest.raises(ValueError):
            sampler.sample(np.random.default_rng(0), -1)

    def test_zero_count(self, wc_compiled):
        sampler = BatchRRSampler(wc_compiled, "ic")
        members, indptr, widths = sampler.sample(np.random.default_rng(0), 0)
        assert members.size == 0 and widths.size == 0
        assert indptr.tolist() == [0]


class TestRRSetCollection:
    def test_from_lists_roundtrip(self):
        sets = [[0, 1], [2], [], [1, 3, 4]]
        collection = RRSetCollection.from_lists(6, sets)
        assert collection.num_sets == 4
        assert collection.as_lists() == sets

    def test_incremental_append_matches_bulk(self):
        first = RRSetCollection.from_lists(5, [[0], [1, 2]])
        first.append(np.array([3, 4, 0]), np.array([0, 2, 3]))
        bulk = RRSetCollection.from_lists(5, [[0], [1, 2], [3, 4], [0]])
        assert np.array_equal(first.members, bulk.members)
        assert np.array_equal(first.indptr, bulk.indptr)
        assert first.num_sets == 4

    def test_append_validates_indptr(self):
        collection = RRSetCollection(4)
        with pytest.raises(ValueError):
            collection.append(np.array([1, 2]), np.array([0, 1]))

    def test_covered_fraction_and_spread(self):
        collection = RRSetCollection.from_lists(
            5, [[0, 1], [0, 2], [0, 3], [4]]
        )
        assert collection.covered_fraction([0]) == pytest.approx(0.75)
        assert collection.estimated_spread([0]) == pytest.approx(3.75)
        assert collection.estimated_spread([0, 4]) == pytest.approx(5.0)
        assert collection.estimated_spread([]) == 0.0


def _reference_index(collection):
    """The inverted index as one stable argsort of the whole member array."""
    members, indptr = collection.members, collection.indptr
    node_indptr = np.zeros(collection.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(members, minlength=collection.n), out=node_indptr[1:])
    set_ids = np.repeat(
        np.arange(collection.num_sets, dtype=np.int32), np.diff(indptr)
    )
    return node_indptr, set_ids[np.argsort(members, kind="stable")]


def _assert_reference_index(collection):
    node_indptr, node_sets = collection.inverted_index()
    expected_indptr, expected_sets = _reference_index(collection)
    assert node_indptr.dtype == np.int64 and node_sets.dtype == np.int32
    assert np.array_equal(node_indptr, expected_indptr)
    assert np.array_equal(node_sets, expected_sets)


class TestInvertedIndexChunks:
    """The chunked index build equals one stable argsort of ``members``."""

    @pytest.fixture
    def tiny_chunks(self, monkeypatch):
        # Three members per chunk, so every collection below spans many
        # chunks.
        monkeypatch.setattr(collection_module, "_INDEX_CHUNK", 3)

    def test_counts_per_node(self, tiny_chunks):
        collection = RRSetCollection.from_lists(4, [[0, 1], [1], [1, 3]])
        node_indptr, node_sets = collection.inverted_index()
        assert np.diff(node_indptr).tolist() == [1, 3, 0, 1]
        assert node_sets.tolist() == [0, 0, 1, 2, 2]

    def test_empty_sets(self, tiny_chunks):
        sets = [[], [2, 0], [], [], [1, 2, 0], [0], [], [2]]
        _assert_reference_index(RRSetCollection.from_lists(3, sets))
        _assert_reference_index(RRSetCollection.from_lists(3, [[], [], []]))
        _assert_reference_index(RRSetCollection.from_lists(3, []))

    def test_set_larger_than_budget(self, tiny_chunks):
        sets = [[4], [0, 1, 2, 3, 4, 5, 6], [6, 0], [5, 4, 3, 2, 1], [], [1]]
        _assert_reference_index(RRSetCollection.from_lists(7, sets))

    def test_int64_members_from_csr(self, tiny_chunks):
        rng = np.random.default_rng(7)
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 6, size=200))])
        members = rng.integers(0, 40, size=int(indptr[-1])).astype(np.int64)
        collection = RRSetCollection.from_csr(40, members, indptr)
        assert collection.members.dtype == np.int64
        _assert_reference_index(collection)

    def test_many_nodes_two_pass_radix(self, tiny_chunks):
        # n > 2**16: each chunk is sorted by two stable 16-bit passes.
        n = (1 << 16) + 300
        rng = np.random.default_rng(11)
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 5, size=400))])
        members = rng.integers(0, n, size=int(indptr[-1]), dtype=np.int32)
        # Ids sharing their low 16 bits, so the high pass decides the order.
        members[::7] = rng.choice([5, 5 + (1 << 16), 17, 17 + (1 << 16)], members[::7].size)
        _assert_reference_index(RRSetCollection.from_csr(n, members, indptr))

    def test_grown_after_index_built(self, tiny_chunks, wc_compiled):
        collection, _ = _sample_chunked(wc_compiled, "wc", [40], seed=9)
        _assert_reference_index(collection)
        sampler = BatchRRSampler(wc_compiled, "wc")
        members, indptr, _ = sampler.sample(np.random.default_rng(10), 60)
        collection.append(members, indptr)
        _assert_reference_index(collection)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        sizes=st.lists(st.integers(min_value=0, max_value=9), max_size=30),
        budget=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    def test_any_budget(self, n, sizes, budget, data):
        sets = [
            data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
            for size in sizes
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collection_module, "_INDEX_CHUNK", budget)
            _assert_reference_index(RRSetCollection.from_lists(n, sets))

    def test_transient_memory_is_one_chunk(self):
        # 1.2M members over 2000 nodes.  Besides its outputs the build keeps
        # an n-entry int64 fill cursor and per-chunk arrays (the intp sort
        # order and positions, the sorted keys and set ids): about 36 bytes
        # per chunk member, 2.4 MB here, so 64 bytes per chunk member plus
        # the cursor bound it.  A one-shot build over ``members`` holds the
        # whole intp sort order and per-member set ids at once, 12 bytes per
        # member: its traced excess here is 14.4 MB.
        n = 2000
        rng = np.random.default_rng(5)
        indptr = np.concatenate([[0], np.cumsum(rng.integers(1, 12, size=200_000))])
        members = rng.integers(0, n, size=int(indptr[-1]), dtype=np.int32)
        assert members.size >= 1_000_000
        collection = RRSetCollection.from_csr(n, members, indptr)
        tracemalloc.start()
        try:
            node_indptr, node_sets = collection.inverted_index()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        allowance = 64 * collection_module._INDEX_CHUNK + 8 * (n + 1)
        assert peak <= node_sets.nbytes + node_indptr.nbytes + allowance



#: sha256 of ``members.astype(np.int64)`` and of ``indptr`` for 600 RR sets
#: drawn from fixed tokens on the 120-node test graph, recorded while the
#: sampler still returned int64 members: narrowing the stored ids must not
#: change a single sampled value.
_PINNED_SAMPLES = {
    "ic": (
        "6c7f08d829b55bfbd5e9fdacf70e0ba366648ffe576ac9d7f9cf28338892f78d",
        "35ddfecfbd796ab05ff688629c39e9ebf9e43bf7ba27732c7b3edf17f401dfb9",
    ),
    "wc": (
        "4edad1c3de4a68e48f09ac05dba9d2c70035bc841b24255825968eef91e41b74",
        "4313d5834ddcbadfb74d543b749a3814f0dd264ad6fed28a47f5a68a5b7b1038",
    ),
    "lt": (
        "28967a026b8392ea552f30bbc37c7e012fd140f90a55e2034688e9ae1a97faff",
        "3ffca51af3a16e358d54986b75294f6c573c780cd090b9a259c09aad866258f9",
    ),
    # IC with per-edge probabilities (``mixed_compiled``): the one case
    # whose in-slices are not uniform, so the per-edge threshold gather runs.
    "ic-mixed": (
        "ba8284e2fd0a83702c062ed0648f3da12b532f95ec9776709f26576706f76e1b",
        "10203707a0f7ca95657990140d71478d28c36ea13d8b852f953fb909f4d5a843",
    ),
}


class TestIdWidths:
    """Ids are stored as int32, offsets as int64, with identical values."""

    @pytest.fixture(scope="class")
    def ic_compiled(self, wc_graph):
        graph = wc_graph.copy()
        graph.set_uniform_probabilities(0.3)
        return graph.compile()

    @pytest.mark.parametrize("case", ["ic", "wc", "lt", "ic-mixed"])
    def test_sampled_values_pinned(
        self, ic_compiled, wc_compiled, lt_compiled, mixed_compiled, case
    ):
        compiled = {
            "ic": ic_compiled,
            "wc": wc_compiled,
            "lt": lt_compiled,
            "ic-mixed": mixed_compiled,
        }[case]
        sampler = BatchRRSampler(compiled, case.split("-")[0])
        tokens = BatchRRSampler.draw_tokens(np.random.default_rng(2024), 600)
        members, indptr, _ = sampler.sample_tokens(tokens)
        assert members.dtype == np.int32
        assert indptr.dtype == np.int64
        digests = (
            hashlib.sha256(members.astype(np.int64).tobytes()).hexdigest(),
            hashlib.sha256(indptr.tobytes()).hexdigest(),
        )
        assert digests == _PINNED_SAMPLES[case]

    def test_collection_and_index_dtypes(self, wc_compiled):
        collection, _ = _sample_chunked(wc_compiled, "ic", [100, 140], seed=3)
        assert collection.members.dtype == np.int32
        assert collection.indptr.dtype == np.int64
        node_indptr, node_sets = collection.inverted_index()
        assert node_sets.dtype == np.int32
        assert node_indptr.dtype == np.int64
        listed = RRSetCollection.from_lists(6, [[0, 1], [2], [], [1, 3, 4]])
        assert listed.members.dtype == np.int32
        assert listed.indptr.dtype == np.int64

    def test_memory_bytes_bound(self, wc_compiled):
        # 8 bytes per member (an int32 node id in ``members`` and an int32
        # set id in ``node_sets``) plus the two int64 offset arrays.  Wider
        # id arrays, or a cached per-member set id array, break the bound.
        collection, _ = _sample_chunked(wc_compiled, "wc", [500, 500], seed=5)
        collection.inverted_index()
        members = collection.members.size
        assert members > collection.num_sets  # not just the roots
        bound = 8 * members + 8 * (collection.num_sets + 1) + 8 * (collection.n + 1)
        assert collection.memory_bytes <= bound

    def test_rejects_node_ids_past_int32(self):
        RRSetCollection(2**31 - 1)
        with pytest.raises(SketchError, match="int32"):
            RRSetCollection(2**31)

    def test_rejects_set_ids_past_int32(self):
        # Zero-stride offsets describe 2**31 - 1 empty sets without
        # allocating them.
        full = RRSetCollection.from_csr(
            4,
            np.empty(0, dtype=np.int32),
            np.broadcast_to(np.int64(0), (2**31,)),
            validate=False,
        )
        assert full.num_sets == 2**31 - 1
        with pytest.raises(SketchError, match="int32"):
            full.append(np.array([0], dtype=np.int32), np.array([0, 1]))
        assert full.num_sets == 2**31 - 1
        with pytest.raises(SketchError, match="int32"):
            RRSetCollection.from_csr(
                4,
                np.empty(0, dtype=np.int32),
                np.broadcast_to(np.int64(0), (2**31 + 1,)),
                validate=False,
            )


@st.composite
def tie_heavy_covers(draw):
    """``(n, sets, budget, layout)`` for the greedy cover property test.

    The sets repeat a few distinct member lists (all of them identical when
    the pool has one entry), so many nodes tie on gain.  Budgets run past
    the number of distinct members, where the cover returns fewer seeds.
    ``layout`` picks how the collection is built: from lists, grown by
    ``append`` after its inverted index was cached, or reopened with
    ``from_csr`` over a persisted, read-only inverted index.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    member_lists = st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=6, unique=True
    )
    pool = draw(st.lists(member_lists, min_size=1, max_size=4))
    sets = draw(st.lists(st.sampled_from(pool), max_size=20))
    distinct = len({node for s in sets for node in s})
    budget = draw(st.integers(min_value=0, max_value=distinct + 3))
    layout = draw(st.sampled_from(["lists", "appended", "from_csr"]))
    return n, sets, budget, layout


def _build_collection(n, sets, layout):
    if layout == "lists":
        return RRSetCollection.from_lists(n, sets)
    if layout == "appended":
        split = len(sets) // 2
        collection = RRSetCollection.from_lists(n, sets[:split])
        collection.inverted_index()
        rest = RRSetCollection.from_lists(n, sets[split:])
        collection.append(rest.members, rest.indptr)
        return collection
    source = RRSetCollection.from_lists(n, sets)
    arrays = [source.members, source.indptr, *source.inverted_index()]
    for array in arrays:
        array.setflags(write=False)
    members, indptr, node_indptr, node_sets = arrays
    return RRSetCollection.from_csr(
        n, members, indptr, node_indptr=node_indptr, node_sets=node_sets
    )


class TestGreedyMaxCoverage:
    def _brute_force(self, n, sets, budget):
        covered: set[int] = set()
        chosen: list[int] = []
        for _ in range(budget):
            best, best_gain = None, 0
            for node in range(n):
                if node in chosen:
                    continue
                gain = sum(
                    1 for i, s in enumerate(sets)
                    if i not in covered and node in s
                )
                if gain > best_gain:
                    best, best_gain = node, gain
            if best is None:
                break
            chosen.append(best)
            covered |= {i for i, s in enumerate(sets) if best in s}
        return chosen, (len(covered) / len(sets)) if sets else 0.0

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = 14
            num_sets = int(rng.integers(2, 18))
            sets = [
                np.unique(rng.integers(0, n, size=rng.integers(1, 6))).tolist()
                for _ in range(num_sets)
            ]
            collection = RRSetCollection.from_lists(n, sets)
            budget = int(rng.integers(1, 6))
            seeds, fraction = greedy_max_coverage(collection, budget)
            expected_seeds, expected_fraction = self._brute_force(n, sets, budget)
            assert seeds == expected_seeds
            assert fraction == pytest.approx(expected_fraction)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_covers())
    def test_agrees_with_brute_force_on_tie_heavy_collections(self, case):
        n, sets, budget, layout = case
        collection = _build_collection(n, sets, layout)
        index_before = [array.copy() for array in collection.inverted_index()]
        seeds, fraction = greedy_max_coverage(collection, budget)
        expected_seeds, expected_fraction = self._brute_force(n, sets, budget)
        assert seeds == expected_seeds
        assert fraction == pytest.approx(expected_fraction)
        assert len(seeds) <= min(budget, len({node for s in sets for node in s}))
        # The cover's gain counters must be a fresh array, never the index.
        for before, after in zip(index_before, collection.inverted_index()):
            assert np.array_equal(before, after)

    def test_empty_collection(self):
        seeds, fraction = greedy_max_coverage(RRSetCollection(5), 3)
        assert seeds == [] and fraction == 0.0

    def test_pad_with_unselected(self):
        assert pad_with_unselected(5, [3], 3) == [3, 0, 1]
        assert pad_with_unselected(5, [0, 1, 2], 2) == [0, 1]


class TestRISSelectors:
    @pytest.mark.parametrize("cls", [TIMPlusSelector, IMMSelector])
    def test_seed_sets_independent_of_block_size(self, cls):
        graph = barabasi_albert_graph(150, 3, seed=4)
        graph.set_weighted_cascade_probabilities()
        reference = None
        for block_size in (1, 13, 512):
            result = cls(
                epsilon=0.3, max_rr_sets=2500, block_size=block_size, seed=9
            ).select(graph, 4)
            if reference is None:
                reference = result.seeds
            assert result.seeds == reference

    def test_kpt_star_refinement_not_below_kpt(self):
        graph = barabasi_albert_graph(200, 3, seed=4)
        graph.set_weighted_cascade_probabilities()
        result = TIMPlusSelector(
            epsilon=0.3, max_rr_sets=4000, seed=9
        ).select(graph, 5)
        assert result.metadata["kpt_star"] >= result.metadata["kpt"]
        assert result.metadata["kpt"] >= 1.0

    def test_block_size_validation(self):
        with pytest.raises(ConfigurationError):
            TIMPlusSelector(block_size=0)
        with pytest.raises(ConfigurationError):
            TIMPlusSelector(max_rr_sets=0)

    def test_metadata_reports_rr_sets_and_theta(self, ):
        graph = erdos_renyi_graph(60, 0.08, seed=1)
        graph.set_weighted_cascade_probabilities()
        result = TIMPlusSelector(epsilon=0.4, max_rr_sets=1500, seed=0).select(
            graph, 3
        )
        assert result.metadata["rr_sets"] == result.metadata["theta"]
        assert result.metadata["estimated_spread"] >= 0.0


class TestSketchSpreadOracle:
    def test_tracks_monte_carlo_estimate(self, wc_graph):
        seeds = [0, 1, 2, 3, 4]
        sketch = SketchEstimator(wc_graph, "wc", theta=8000, seed=3)
        curve = sketch.sweep(seeds, [0, 1, 3, 5])
        engine = MonteCarloEngine(wc_graph, "wc", simulations=2000, seed=5)
        assert curve[0] == 0.0
        for k in (1, 3, 5):
            reference = engine.expected_spread(seeds[:k])
            assert curve[k] == pytest.approx(reference, rel=0.2, abs=1.5)
        assert sketch.describe()["theta"] == 8000

    def test_validates_inputs(self, wc_graph):
        with pytest.raises(ConfigurationError):
            SketchEstimator(wc_graph, "wc", theta=100).sweep([0], [2])
        with pytest.raises(ConfigurationError):
            SketchEstimator(wc_graph, "wc", theta=0)
        with pytest.raises(ConfigurationError):
            SketchEstimator(wc_graph, "oi-ic")


class TestScoreGreedyBudgetRegression:
    def test_direct_select_with_oversized_budget_raises_budget_error(self):
        graph = erdos_renyi_graph(5, 0.5, seed=0)
        compiled = graph.compile()
        selector = EaSyIMSelector(seed=0)
        with pytest.raises(BudgetError):
            selector._select(compiled, 10)

    def test_public_select_still_validates_first(self):
        graph = erdos_renyi_graph(5, 0.5, seed=0)
        selector = EaSyIMSelector(seed=0)
        with pytest.raises(BudgetError):
            selector.select(graph, 10)


class TestCLIRegressions:
    def test_ris_algorithm_rejects_unsupported_model(self):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="only supports"):
            main([
                "select", "--dataset", "nethept", "--scale", "0.05",
                "--algorithm", "tim+", "--model", "oi-ic", "--budget", "2",
            ])

    def test_max_rr_sets_is_threaded_through(self, capsys):
        from repro.cli import main

        import json

        code = main([
            "select", "--dataset", "nethept", "--scale", "0.05", "--seed", "1",
            "--algorithm", "tim+", "--model", "wc", "--budget", "2",
            "--simulations", "50", "--max-rr-sets", "300", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]) == 2
