"""Tests for the persistent influence index + concurrent serving layer."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.evaluation import index_evaluate_seed_prefixes
from repro.exceptions import (
    ConfigurationError,
    IndexArtifactError,
    IndexMismatchError,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.generators import erdos_renyi_graph
from repro.serving import (
    InfluenceIndex,
    InfluenceService,
    load_index_artifact,
    save_index_artifact,
)
from repro.sketches import BatchRRSampler, RRSetCollection


@pytest.fixture(scope="module")
def wc_graph():
    graph = erdos_renyi_graph(200, 0.03, seed=5)
    graph.set_weighted_cascade_probabilities()
    return graph


@pytest.fixture(scope="module")
def wc_compiled(wc_graph):
    """The compiled snapshot the service hot paths expect."""
    return wc_graph.compile()


@pytest.fixture(scope="module")
def built_index(wc_graph):
    return InfluenceIndex.build(wc_graph, "ic", 4000, engine_seed=11)


# ---------------------------------------------------------------- fingerprint


class TestGraphFingerprint:
    def test_stable_across_copies_and_compilation(self, wc_graph):
        fp = graph_fingerprint(wc_graph)
        assert fp == graph_fingerprint(wc_graph.copy())
        assert fp == graph_fingerprint(wc_graph.compile())
        assert len(fp) == 64  # hex sha256

    def test_changes_on_structural_edit(self, wc_graph):
        fp = graph_fingerprint(wc_graph)
        edited = wc_graph.copy()
        edited.add_edge(0, 199, probability=0.5)
        assert graph_fingerprint(edited) != fp

    def test_changes_on_annotation_edit(self, wc_graph):
        fp = graph_fingerprint(wc_graph)
        edited = wc_graph.copy()
        source, target, data = next(edited.edges())
        edited.set_probability(source, target, min(1.0, data.probability + 0.25))
        assert graph_fingerprint(edited) != fp
        opinionated = wc_graph.copy()
        opinionated.set_opinion(3, 0.5)
        assert graph_fingerprint(opinionated) != fp

    def test_empty_graph(self):
        assert graph_fingerprint(DiGraph()) == graph_fingerprint(DiGraph())

    def test_tuple_labels_accepted_unstable_labels_rejected(self):
        from repro.exceptions import GraphError

        graph = DiGraph()
        graph.add_edge(("a", 1), ("b", 2))
        assert graph_fingerprint(graph) == graph_fingerprint(graph.copy())

        class Opaque:
            __hash__ = object.__hash__

        unstable = DiGraph()
        unstable.add_node(Opaque())
        with pytest.raises(GraphError, match="stable"):
            graph_fingerprint(unstable)


# ----------------------------------------------------------- collection extras


class TestCollectionHelpers:
    def test_len_and_eq(self):
        a = RRSetCollection.from_lists(10, [[1, 2], [3]])
        b = RRSetCollection.from_lists(10, [[1, 2], [3]])
        c = RRSetCollection.from_lists(10, [[1, 2], [4]])
        assert len(a) == 2
        assert a == b
        assert a != c
        assert a != RRSetCollection.from_lists(11, [[1, 2], [3]])
        assert (a == "not a collection") is False

    def test_empty_collection_round_trip(self, tmp_path):
        from repro.serving.artifact import build_metadata

        empty = RRSetCollection(7)
        metadata = build_metadata(
            model="ic", engine_seed=0, theta=0, block_size=64,
            fingerprint="0" * 64, n=7, m=0,
        )
        path = save_index_artifact(tmp_path / "empty.npz", empty, metadata)
        artifact = load_index_artifact(path)
        reloaded = artifact.collection()
        assert reloaded == empty
        assert len(reloaded) == 0
        assert reloaded.estimated_spread([1, 2]) == 0.0
        assert reloaded.estimated_spreads([[1], []]).tolist() == [0.0, 0.0]

    def test_all_empty_sets_round_trip(self, tmp_path):
        from repro.serving.artifact import build_metadata

        collection = RRSetCollection.from_lists(5, [[], [], []])
        assert len(collection) == 3
        metadata = build_metadata(
            model="ic", engine_seed=0, theta=3, block_size=64,
            fingerprint="0" * 64, n=5, m=0,
        )
        path = save_index_artifact(tmp_path / "hollow.npz", collection, metadata)
        reloaded = load_index_artifact(path).collection()
        assert reloaded == collection
        # Empty sets are never covered — not even by "every node".
        assert reloaded.covered_fraction(range(5)) == 0.0
        assert reloaded.estimated_spreads([list(range(5))]).tolist() == [0.0]

    def test_memory_bytes_tracks_growth(self):
        collection = RRSetCollection.from_lists(10, [[1, 2, 3]])
        before = collection.memory_bytes
        collection.append(
            np.array([4, 5], dtype=np.int64), np.array([0, 2], dtype=np.int64)
        )
        assert collection.memory_bytes > before

    def test_from_csr_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            RRSetCollection.from_csr(
                5, np.array([1, 2]), np.array([0, 1])  # indptr[-1] != size
            )
        with pytest.raises(ValueError):
            RRSetCollection.from_csr(5, np.array([1]), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="non-decreasing"):
            RRSetCollection.from_csr(
                5, np.array([1, 2, 3]), np.array([0, 2, 1, 3])
            )

    def test_estimated_spreads_matches_scalar(self, wc_graph):
        compiled = wc_graph.compile()
        sampler = BatchRRSampler(compiled, "ic")
        collection = RRSetCollection(compiled.number_of_nodes)
        sampler.sample_into(np.random.default_rng(3), collection, 500, 128)
        seed_sets = [[0], [1, 2, 3], list(range(10)), []]
        batched = collection.estimated_spreads(seed_sets)
        scalar = [collection.estimated_spread(s) for s in seed_sets]
        assert np.allclose(batched, scalar)

    def test_estimated_spreads_chunked_matches_single_pass(
        self, wc_graph, monkeypatch
    ):
        # Force several chunks through the batched oracle and check it still
        # agrees with the scalar estimator set-for-set.
        import repro.sketches.collection as collection_module

        compiled = wc_graph.compile()
        sampler = BatchRRSampler(compiled, "ic")
        collection = RRSetCollection(compiled.number_of_nodes)
        sampler.sample_into(np.random.default_rng(9), collection, 400, 128)
        monkeypatch.setattr(collection_module, "_SPREADS_CHUNK", 37)
        seed_sets = [[0], [5, 6], list(range(20)), [], [199]]
        batched = collection.estimated_spreads(seed_sets)
        scalar = [collection.estimated_spread(s) for s in seed_sets]
        assert np.allclose(batched, scalar)

    def test_estimated_spreads_with_interior_and_trailing_empty_sets(self):
        # Regression: a trailing empty set used to truncate the preceding
        # set's reduceat segment and underestimate its coverage.
        collection = RRSetCollection.from_lists(
            5, [[0, 1], [], [2], [], []]
        )
        batched = collection.estimated_spreads([[1], [2], [0, 2], [3]])
        scalar = [
            collection.estimated_spread(s) for s in ([1], [2], [0, 2], [3])
        ]
        assert np.allclose(batched, scalar)
        assert batched[0] == pytest.approx(5 * (1 / 5))  # set 0 only


# ------------------------------------------------------------------ artifacts


class TestArtifactStore:
    def test_round_trip_determinism(self, wc_graph, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        reloaded = InfluenceIndex.load(path, wc_graph)
        assert reloaded.collection == built_index.collection
        assert reloaded.model == built_index.model
        assert reloaded.engine_seed == built_index.engine_seed
        assert reloaded.theta == built_index.theta
        assert reloaded.select(6).seeds == built_index.select(6).seeds

    def test_memory_mapped_load(self, wc_graph, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        artifact = load_index_artifact(path)
        assert artifact.memory_mapped
        assert isinstance(artifact.members, np.memmap)
        eager = load_index_artifact(path, mmap=False)
        assert not eager.memory_mapped
        assert np.array_equal(eager.members, artifact.members)

    def test_int64_artifact_loads_and_answers_like_int32_build(
        self, wc_graph, built_index, tmp_path
    ):
        # An artifact in the layout written before the ids narrowed: every
        # array int64.  save_index_artifact writes a collection's own dtypes,
        # so an int64-adopting collection reproduces that file.
        source = built_index.collection
        node_indptr, node_sets = source.inverted_index()
        assert source.members.dtype == np.int32
        wide = RRSetCollection.from_csr(
            source.n,
            source.members.astype(np.int64),
            source.indptr.astype(np.int64),
            node_indptr=node_indptr.astype(np.int64),
            node_sets=node_sets.astype(np.int64),
        )
        path = save_index_artifact(
            tmp_path / "wide.npz", wide, built_index.metadata
        )
        artifact = load_index_artifact(path)  # verifies payload_sha256
        assert artifact.memory_mapped
        assert "payload_sha256" in artifact.metadata
        for array in (artifact.members, artifact.node_sets):
            assert isinstance(array, np.memmap) and array.dtype == np.int64
        legacy = InfluenceIndex.from_artifact(artifact, wc_graph)
        assert legacy.collection == built_index.collection
        nodes = list(wc_graph.nodes())
        queries = [nodes[:1], nodes[3:9], nodes[::17], []]
        assert legacy.estimate_spreads(queries) == built_index.estimate_spreads(
            queries
        )
        for budget in (1, 6, 15):
            old, new = legacy.select(budget), built_index.select(budget)
            assert old.seeds == new.seeds
            assert old.covered_fraction == new.covered_fraction
            assert old.estimated_spread == new.estimated_spread
        # Growth consolidates the mapped int64 ids into int32 storage.
        legacy.grow(5000)
        fresh = InfluenceIndex.build(wc_graph, "ic", 5000, engine_seed=11)
        assert legacy.collection.members.dtype == np.int32
        assert legacy.collection == fresh.collection
        assert legacy.select(6).seeds == fresh.select(6).seeds

    def test_artifact_respects_umask(self, built_index, tmp_path):
        import os
        import stat

        previous = os.umask(0o022)
        try:
            path = built_index.save(tmp_path / "perm.npz")
        finally:
            os.umask(previous)
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode == 0o644  # not the 0600 tempfile.mkstemp default

    def test_garbage_metadata_values_rejected(self, tmp_path):
        from repro.serving.artifact import build_metadata

        metadata = build_metadata(
            model="ic", engine_seed=0, theta=1, block_size=64,
            fingerprint="0" * 64, n=10, m=0,
        )
        metadata["theta"] = None
        path = tmp_path / "nulled.npz"
        np.savez(
            path,
            members=np.array([1], dtype=np.int64),
            indptr=np.array([0, 1], dtype=np.int64),
            meta_json=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(IndexArtifactError, match="must be an integer"):
            load_index_artifact(path)

    def test_float_dtype_arrays_rejected(self, tmp_path):
        from repro.serving.artifact import build_metadata

        metadata = build_metadata(
            model="ic", engine_seed=0, theta=1, block_size=64,
            fingerprint="0" * 64, n=10, m=0,
        )
        path = tmp_path / "floaty.npz"
        np.savez(
            path,
            members=np.array([1.0], dtype=np.float64),
            indptr=np.array([0.0, 1.0], dtype=np.float64),
            meta_json=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(IndexArtifactError, match="non-integer dtype"):
            load_index_artifact(path)

    def test_non_monotonic_indptr_rejected(self, tmp_path):
        from repro.serving.artifact import build_metadata

        metadata = build_metadata(
            model="ic", engine_seed=0, theta=3, block_size=64,
            fingerprint="0" * 64, n=10, m=0,
        )
        path = tmp_path / "twisted.npz"
        np.savez(
            path,
            members=np.array([1, 2, 3], dtype=np.int64),
            indptr=np.array([0, 2, 1, 3], dtype=np.int64),
            meta_json=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(IndexArtifactError, match="malformed CSR"):
            load_index_artifact(path)

    def test_resave_over_own_mmap_artifact(self, wc_graph, built_index, tmp_path):
        # Regression: persisting an index over the artifact its collection is
        # memory-mapped from must not truncate the mapped pages (SIGBUS);
        # the store writes to a temp file and atomically replaces the target.
        path = built_index.save(tmp_path / "index.npz")
        reopened = InfluenceIndex.load(path, wc_graph)
        assert reopened.memory_mapped
        reopened.save(path)
        assert InfluenceIndex.load(path, wc_graph).collection == (
            built_index.collection
        )

    def test_metadata_provenance(self, wc_graph, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        metadata = load_index_artifact(path).metadata
        assert metadata["model"] == "ic"
        assert metadata["engine_seed"] == 11
        assert metadata["theta"] == 4000
        assert metadata["graph_fingerprint"] == graph_fingerprint(wc_graph)
        assert metadata["n"] == 200
        import repro

        assert metadata["library_version"] == repro.__version__

    def test_fingerprint_mismatch_rejected(self, wc_graph, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        edited = wc_graph.copy()
        edited.add_edge(0, 199, probability=0.9)
        with pytest.raises(IndexMismatchError, match="fingerprint"):
            InfluenceIndex.load(path, edited)

    def test_node_count_mismatch_rejected(self, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        other = erdos_renyi_graph(50, 0.1, seed=1)
        with pytest.raises(IndexMismatchError):
            InfluenceIndex.load(path, other)

    def test_out_of_range_members_rejected(self, tmp_path):
        # A bit-flipped (hand-crafted) artifact with negative member values
        # must fail loudly instead of wrapping in the boolean-mask gathers
        # and returning plausible-but-wrong spreads.  save_index_artifact
        # itself cannot produce one, so write the npz directly.
        from repro.serving.artifact import build_metadata

        metadata = build_metadata(
            model="ic", engine_seed=0, theta=2, block_size=64,
            fingerprint="0" * 64, n=200, m=0,
        )
        path = tmp_path / "corrupt.npz"
        np.savez(
            path,
            members=np.array([-3, 5], dtype=np.int64),
            indptr=np.array([0, 1, 2], dtype=np.int64),
            meta_json=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8
            ),
        )
        with pytest.raises(IndexArtifactError, match="member values"):
            load_index_artifact(path)

    def test_missing_metadata_fields_rejected(self, tmp_path):
        # A file that passes the format/version gate but lacks provenance
        # fields must fail with IndexArtifactError, not a raw KeyError.
        meta = json.dumps({
            "format": "repro-influence-index", "format_version": 1,
        }).encode()
        path = tmp_path / "bare.npz"
        np.savez(
            path,
            members=np.zeros(0, dtype=np.int64),
            indptr=np.zeros(1, dtype=np.int64),
            meta_json=np.frombuffer(meta, dtype=np.uint8),
        )
        with pytest.raises(IndexArtifactError, match="required fields"):
            load_index_artifact(path)

    def test_non_artifact_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, members=np.zeros(3), indptr=np.array([0, 3]))
        with pytest.raises(IndexArtifactError):
            load_index_artifact(tmp_path / "bogus.npz")
        with pytest.raises(IndexArtifactError):
            load_index_artifact(tmp_path / "missing.npz")
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a zip at all")
        with pytest.raises(IndexArtifactError):
            load_index_artifact(garbage)


# -------------------------------------------------------------------- indexes


class TestInfluenceIndex:
    def test_select_matches_direct_cover(self, wc_graph, built_index):
        from repro.sketches.coverage import greedy_max_coverage, pad_with_unselected

        compiled = built_index.graph
        covering, fraction = greedy_max_coverage(built_index.collection, 8)
        expected = compiled.labels_for(
            pad_with_unselected(compiled.number_of_nodes, covering, 8)
        )
        selection = built_index.select(8)
        assert selection.seeds == expected
        assert selection.covered_fraction == pytest.approx(fraction)
        assert selection.estimated_spread == pytest.approx(
            fraction * compiled.number_of_nodes
        )

    def test_selection_cache_and_invalidation(self, wc_graph):
        index = InfluenceIndex.build(wc_graph, "ic", 1000, engine_seed=2)
        first = index.select(4)
        assert index.select(4) is first  # cached
        index.grow(1500)
        assert index.select(4) is not first  # invalidated by growth

    def test_grown_equals_fresh(self, wc_graph, tmp_path):
        grown = InfluenceIndex.build(wc_graph, "ic", 1500, engine_seed=9)
        path = grown.save(tmp_path / "small.npz")
        # Reopen from disk, then grow — crossing the persistence boundary
        # must not perturb the token stream.
        reopened = InfluenceIndex.load(path, wc_graph)
        reopened.grow(4000)
        fresh = InfluenceIndex.build(wc_graph, "ic", 4000, engine_seed=9)
        assert reopened.collection == fresh.collection
        assert reopened.select(10).seeds == fresh.select(10).seeds

    @pytest.mark.parametrize("model", ["wc", "lt"])
    def test_grown_equals_fresh_other_models(self, wc_graph, model):
        graph = wc_graph.copy()
        if model == "lt":
            graph.set_linear_threshold_weights()
        grown = InfluenceIndex.build(graph, model, 800, engine_seed=4).grow(2000)
        fresh = InfluenceIndex.build(graph, model, 2000, engine_seed=4)
        assert grown.collection == fresh.collection

    def test_spread_curve_consistent_with_estimates(self, built_index):
        curve = built_index.spread_curve([1, 4, 8])
        top = built_index.select(8)
        for k, value in curve.items():
            assert value == pytest.approx(
                built_index.estimate_spread(top.seeds[:k])
            )
        assert curve[1] <= curve[4] <= curve[8]

    def test_index_evaluate_seed_prefixes(self, built_index):
        seeds = built_index.select(6).seeds
        evaluation = index_evaluate_seed_prefixes(
            built_index, seeds, [0, 2, 6], label="warm"
        )
        assert evaluation.values[0] == 0.0
        assert evaluation.values[1] == pytest.approx(
            max(built_index.estimate_spread(seeds[:2]) - 2, 0.0)
        )
        assert evaluation.extras["estimator"] == "influence-index"
        assert evaluation.extras["theta"] == built_index.theta

    def test_grow_refuses_foreign_numpy_stream(self, wc_graph):
        from repro.exceptions import ServingError

        index = InfluenceIndex.build(wc_graph, "ic", 500, engine_seed=1)
        index.numpy_version = "0.0.0"  # simulate an artifact from another numpy
        with pytest.raises(ServingError, match="numpy 0.0.0"):
            index.grow(1000)
        index.grow(400)  # no-op shrink request never touches the stream

    def test_numpy_version_round_trips(self, wc_graph, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        metadata = load_index_artifact(path).metadata
        assert metadata["numpy_version"] == np.__version__
        assert InfluenceIndex.load(path, wc_graph).numpy_version == np.__version__

    def test_build_rejects_generator_seed(self, wc_graph):
        with pytest.raises(ConfigurationError, match="engine_seed"):
            InfluenceIndex.build(
                wc_graph, "ic", 100, engine_seed=np.random.default_rng(0)
            )

    def test_bad_parameters(self, wc_graph, built_index):
        with pytest.raises(ConfigurationError):
            InfluenceIndex.build(wc_graph, "oi-ic", 10)
        with pytest.raises(ConfigurationError, match="block_size"):
            InfluenceIndex.build(wc_graph, "ic", 10, block_size=0)
        with pytest.raises(ConfigurationError):
            built_index.select(-1)
        with pytest.raises(ConfigurationError):
            built_index.select(10_000)
        with pytest.raises(ConfigurationError):
            built_index.grow(-1)


# -------------------------------------------------------------------- service


class TestInfluenceService:
    def test_builds_once_and_hits_cache(self, wc_compiled):
        service = InfluenceService(capacity=2, default_theta=500)
        first = service.get_index(wc_compiled, "ic")
        second = service.get_index(wc_compiled, "ic")
        assert first is second
        stats = service.stats()
        assert stats["index_builds"] == 1
        assert stats["index_hits"] == 1

    def test_lru_eviction(self):
        service = InfluenceService(capacity=2, default_theta=200)
        graphs = [erdos_renyi_graph(40, 0.1, seed=s).compile() for s in (1, 2, 3)]
        for graph in graphs:
            service.get_index(graph, "ic")
        assert len(service) == 2
        assert service.stats()["index_evictions"] == 1
        # Oldest (graphs[0]) was evicted: requesting it builds again.
        builds_before = service.stats()["index_builds"]
        service.get_index(graphs[0], "ic")
        assert service.stats()["index_builds"] == builds_before + 1

    def test_evaluate_matches_index_oracle(self, wc_compiled):
        service = InfluenceService(default_theta=1000, engine_seed=3)
        index = service.get_index(wc_compiled, "ic")
        seeds = index.select(5).seeds
        assert service.evaluate(wc_compiled, "ic", seeds) == pytest.approx(
            index.estimate_spread(seeds)
        )

    def test_concurrent_evaluate_coalesces_and_agrees(self, wc_compiled):
        service = InfluenceService(default_theta=1500, engine_seed=3)
        index = service.get_index(wc_compiled, "ic")
        # 24 requests over 8 workers: 3 full barrier generations, so every
        # wait() is eventually released (a non-multiple would deadlock).
        seed_sets = [[i, i + 1, i + 2] for i in range(0, 72, 3)]
        expected = [index.estimate_spread(s) for s in seed_sets]

        barrier = threading.Barrier(8)

        def query(seeds):
            barrier.wait()
            return service.evaluate(wc_compiled, "ic", seeds)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(query, seed_sets))
        assert np.allclose(results, expected)
        stats = service.stats()
        assert stats["evaluate_requests"] == len(seed_sets)
        # Coalescing is opportunistic, but with a barrier forcing 8-way
        # simultaneous arrival at least one batch must have merged requests.
        assert stats["evaluate_batches"] <= stats["evaluate_requests"]

    def test_concurrent_get_index_builds_once(self, wc_compiled):
        service = InfluenceService(default_theta=800)
        barrier = threading.Barrier(6)

        def fetch():
            barrier.wait()
            return service.get_index(wc_compiled, "ic")

        with ThreadPoolExecutor(max_workers=6) as pool:
            indexes = list(pool.map(lambda _: fetch(), range(6)))
        assert all(index is indexes[0] for index in indexes)
        assert service.stats()["index_builds"] == 1

    def test_evaluate_concurrent_with_growth(self, wc_compiled):
        # Growth mutates the collection under the index lock; coalesced
        # evaluates must serialise against it instead of reading torn CSR
        # state.  Results computed before/after a grow differ only by
        # estimator noise, so just assert sanity and absence of crashes.
        service = InfluenceService(default_theta=800, engine_seed=5)
        index = service.get_index(wc_compiled, "ic")
        n = wc_compiled.number_of_nodes

        def evaluate(i):
            return service.evaluate(wc_compiled, "ic", [i % n, (i + 1) % n])

        def grow(target):
            index.grow(target)
            return -1.0

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(evaluate, i) for i in range(20)]
            futures.append(pool.submit(grow, 2000))
            futures += [pool.submit(evaluate, i) for i in range(20, 40)]
            results = [f.result() for f in futures]
        assert index.theta == 2000
        assert all(0.0 <= r <= n for r in results if r >= 0)

    def test_concurrent_select_is_deterministic(self, wc_compiled):
        service = InfluenceService(default_theta=1200, engine_seed=7)
        reference = service.select(wc_compiled, "ic", 6).seeds

        def query(_):
            return service.select(wc_compiled, "ic", 6).seeds

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(query, range(12)))
        assert all(seeds == reference for seeds in results)

    def test_attach_and_artifact_loading(self, wc_compiled, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        service = InfluenceService()
        loaded = service.load_artifact(path, wc_compiled)
        assert loaded.memory_mapped
        assert service.get_index(wc_compiled, "ic") is loaded
        assert service.stats()["index_builds"] == 0

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            InfluenceService(capacity=0)


# ------------------------------------------------------------------------ CLI


class TestServingCLI:
    def _build(self, tmp_path, capsys, theta=2000):
        artifact = tmp_path / "nethept.npz"
        code = cli_main([
            "index", "build", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--model", "wc", "--theta", str(theta),
            "--output", str(artifact), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        return artifact, payload

    def test_index_build_and_query_round_trip(self, tmp_path, capsys):
        artifact, build_payload = self._build(tmp_path, capsys)
        assert build_payload["theta"] == 2000
        assert artifact.exists()

        code = cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact), "-k", "5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == "select"
        assert len(payload["seeds"]) == 5
        assert payload["memory_mapped"] is True
        assert payload["estimated_spread"] > 0

    def test_index_query_sweep_and_evaluate(self, tmp_path, capsys):
        artifact, _ = self._build(tmp_path, capsys)
        code = cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact),
            "--sweep", "1,3,5", "--json",
        ])
        assert code == 0
        sweep = json.loads(capsys.readouterr().out)
        assert set(sweep["curve"]) == {"1", "3", "5"}

        code = cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact),
            "--seeds", "0,1,2", "--json",
        ])
        assert code == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert evaluated["query"] == "evaluate"
        assert evaluated["estimated_spread"] > 0

    def test_index_query_grow_persists(self, tmp_path, capsys):
        artifact, _ = self._build(tmp_path, capsys, theta=1000)
        code = cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact),
            "--grow-theta", "2500", "-k", "3", "--json",
        ])
        assert code == 0
        grown = json.loads(capsys.readouterr().out)
        assert grown["theta"] == 2500
        # The grown artifact must match a fresh build at the larger theta.
        fresh = tmp_path / "fresh.npz"
        code = cli_main([
            "index", "build", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--model", "wc", "--theta", "2500",
            "--output", str(fresh), "--json",
        ])
        assert code == 0
        capsys.readouterr()
        from repro.datasets.registry import load_dataset

        graph = load_dataset("nethept", scale=0.1, seed=1)
        assert InfluenceIndex.load(artifact, graph).collection == (
            InfluenceIndex.load(fresh, graph).collection
        )

    def test_index_query_mismatch_fails_loudly(self, tmp_path, capsys):
        artifact, _ = self._build(tmp_path, capsys)
        with pytest.raises(IndexMismatchError):
            cli_main([
                "index", "query", "--dataset", "nethept", "--scale", "0.1",
                "--seed", "2",  # different graph realisation
                "--artifact", str(artifact), "-k", "3", "--json",
            ])

    def test_select_json_carries_selection_metadata(self, capsys):
        code = cli_main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "tim+", "--model", "wc", "--budget", "3",
            "--simulations", "50", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "wc"
        assert "theta" in payload["selection_metadata"]

    def test_serve_protocol(self, tmp_path, capsys, monkeypatch):
        import io

        artifact, _ = self._build(tmp_path, capsys)
        requests = "\n".join([
            json.dumps({"op": "ping"}),
            json.dumps({"op": "select", "k": 3}),
            json.dumps({"op": "evaluate", "seeds": [0, 1]}),
            # Our own select response format must round-trip into evaluate.
            json.dumps({"op": "evaluate", "seeds": ["0", "1"]}),
            # JSON-legal but unconvertible k must not kill the loop.
            json.dumps({"op": "select", "k": 1e400}),
            json.dumps({"op": "nope"}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        code = cli_main([
            "serve", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "wc", "--artifact", str(artifact),
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [r["ok"] for r in lines] == [
            True, True, True, True, False, False, True, True,
        ]
        select_response = lines[1]
        assert len(select_response["seeds"]) == 3
        assert lines[3]["estimated_spread"] == lines[2]["estimated_spread"]
        stats_response = lines[6]
        assert stats_response["index_builds"] == 0  # artifact preloaded

    def test_serve_default_model_follows_preloaded_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        # serve without --model must answer from the preloaded wc artifact,
        # not silently build an ic index under the CLI's --model default.
        import io

        artifact, _ = self._build(tmp_path, capsys)
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                json.dumps({"op": "select", "k": 3}) + "\n"
                + json.dumps({"op": "stats"}) + "\n"
            ),
        )
        code = cli_main([
            "serve", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--artifact", str(artifact),  # wc artifact, no --model flag
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert lines[0]["ok"] and len(lines[0]["seeds"]) == 3
        assert lines[1]["index_builds"] == 0
        assert lines[1]["index_hits"] >= 1

    def test_serve_on_demand_index_matches_index_build(
        self, tmp_path, capsys, monkeypatch
    ):
        # serve must sample on-demand indexes with the same engine seed
        # `index build` defaults to, not the graph-generation --seed —
        # otherwise the served seeds silently diverge from the artifact's.
        import io

        artifact, _ = self._build(tmp_path, capsys)
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps({"op": "select", "k": 4}) + "\n"),
        )
        code = cli_main([
            "serve", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "wc", "--theta", "2000",  # no artifact: builds on demand
        ])
        assert code == 0
        served = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        code = cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact), "-k", "4", "--json",
        ])
        assert code == 0
        queried = json.loads(capsys.readouterr().out)
        assert served["seeds"] == queried["seeds"]
