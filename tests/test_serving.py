"""Tests for the persistent influence index + concurrent serving layer."""

from __future__ import annotations

import ast
import json
import pathlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exceptions import (
    ArtifactCorruptError,
    BudgetError,
    ConfigurationError,
    IndexArtifactError,
    IndexMismatchError,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.generators import erdos_renyi_graph
from repro.serving import (
    EvaluateOutcome,
    InfluenceIndex,
    InfluenceService,
    load_index_artifact,
    payload_checksum,
    save_index_artifact,
)
from repro.sketches import BatchRRSampler, RRSetCollection
from repro.telemetry.registry import MetricsRegistry


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

        from repro.runtime import BuildCheckpoint

        checkpoint = BuildCheckpoint(tmp_path / "build.npz")
        previous = os.umask(0o022)
        try:
            path = built_index.save(tmp_path / "perm.npz")
            checkpoint.save(built_index, 8000)
        finally:
            os.umask(previous)
        # Not the 0600 tempfile.mkstemp default, for either writer.
        for written in (path, checkpoint.artifact_path, checkpoint.manifest_path):
            assert stat.S_IMODE(written.stat().st_mode) == 0o644

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        from repro.utils.atomic import atomic_write

        target = tmp_path / "manifest.json"
        target.write_bytes(b"previous")

        def half_then_fail(stream):
            stream.write(b"torn")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, half_then_fail, error=IndexArtifactError)
        assert target.read_bytes() == b"previous"
        assert list(tmp_path.glob("*.tmp")) == []

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


class TestArtifactIntegrity:
    @staticmethod
    def _arrays_of(artifact):
        return {
            "members": artifact.members,
            "indptr": artifact.indptr,
            "node_indptr": artifact.node_indptr,
            "node_sets": artifact.node_sets,
        }

    @classmethod
    def _rewrite(cls, path, mutate_arrays=None, mutate_metadata=None):
        """Rewrite the artifact at ``path`` with its arrays and/or metadata
        edited in place, keeping everything else (including the recorded
        checksum) as saved."""
        artifact = load_index_artifact(path, mmap=False)
        arrays = {k: np.array(v) for k, v in cls._arrays_of(artifact).items()}
        metadata = dict(artifact.metadata)
        if mutate_arrays is not None:
            mutate_arrays(arrays)
        if mutate_metadata is not None:
            mutate_metadata(metadata)
        meta_json = np.frombuffer(
            json.dumps(metadata, sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        with open(path, "wb") as handle:
            np.savez(handle, meta_json=meta_json, **arrays)

    def test_checksum_roundtrip_and_stability(self, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        mapped = load_index_artifact(path, mmap=True)
        eager = load_index_artifact(path, mmap=False)
        # The canonical encoding makes the digest independent of whether the
        # arrays came back memory-mapped or eagerly loaded.
        assert mapped.metadata["payload_sha256"] == payload_checksum(
            self._arrays_of(mapped)
        )
        assert eager.metadata["payload_sha256"] == payload_checksum(
            self._arrays_of(eager)
        )

    def test_truncated_file_wrapped_with_remediation(self, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IndexArtifactError, match="rebuild"):
            load_index_artifact(path)

    def test_garbage_file_wrapped(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(IndexArtifactError, match="rebuild"):
            load_index_artifact(path)

    def test_flipped_payload_byte_reaches_the_caller(
        self, wc_compiled, built_index, tmp_path
    ):
        # Rewrite the artifact with one array element changed but the
        # original recorded checksum.
        path = built_index.save(tmp_path / "index.npz")

        def flip(arrays):
            arrays["members"][0] ^= 1

        self._rewrite(path, mutate_arrays=flip)
        corrupt = path.read_bytes()
        with pytest.raises(ArtifactCorruptError, match="rebuild it with"):
            load_index_artifact(path)
        # The index loader hands the same error to its caller and leaves
        # the file where it was.
        with pytest.raises(ArtifactCorruptError, match="rebuild it with"):
            InfluenceIndex.load(path, wc_compiled)
        assert path.read_bytes() == corrupt

    @pytest.mark.parametrize(
        "name", ["members", "indptr", "node_indptr", "node_sets"]
    )
    def test_flipped_element_of_any_array_is_detected(
        self, built_index, tmp_path, name
    ):
        # The checksum runs before the structural checks, so even a flip
        # that leaves the CSR well-formed is reported as corruption.
        path = built_index.save(tmp_path / "index.npz")

        def flip(arrays):
            arrays[name][arrays[name].size // 2] ^= 1

        self._rewrite(path, mutate_arrays=flip)
        with pytest.raises(ArtifactCorruptError, match="does not match"):
            load_index_artifact(path)
        with pytest.raises(ArtifactCorruptError):
            load_index_artifact(path, mmap=False)

    def test_tampered_recorded_checksum_is_detected(self, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")

        def tamper(metadata):
            metadata["payload_sha256"] = "0" * 64

        self._rewrite(path, mutate_metadata=tamper)
        with pytest.raises(ArtifactCorruptError, match="does not match"):
            load_index_artifact(path)

    def test_unverified_open_skips_only_the_checksum(self, built_index, tmp_path):
        # verify_checksum=False trusts the payload hash but still runs the
        # structural checks: a well-formed flip loads, a malformed one not.
        path = built_index.save(tmp_path / "index.npz")

        def flip(arrays):
            members = arrays["members"]
            members[0] = (int(members[0]) + 1) % built_index.graph.number_of_nodes

        self._rewrite(path, mutate_arrays=flip)
        loaded = load_index_artifact(path, verify_checksum=False)
        assert int(loaded.members[0]) != int(built_index.collection.members[0])

        def out_of_range(arrays):
            arrays["members"][0] = built_index.graph.number_of_nodes

        path = built_index.save(tmp_path / "malformed.npz")
        self._rewrite(path, mutate_arrays=out_of_range)
        with pytest.raises(IndexArtifactError, match="outside"):
            load_index_artifact(path, verify_checksum=False)

    @pytest.mark.parametrize(
        "keep", [0.01, 0.25, 0.75, -1], ids=["head", "quarter", "three-quarters", "last-byte"]
    )
    def test_truncation_anywhere_is_wrapped(self, built_index, tmp_path, keep):
        path = built_index.save(tmp_path / "index.npz")
        raw = path.read_bytes()
        cut = len(raw) - 1 if keep == -1 else int(len(raw) * keep)
        path.write_bytes(raw[:cut])
        for mmap in (True, False):
            with pytest.raises(IndexArtifactError, match="rebuild"):
                load_index_artifact(path, mmap=mmap)


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

    def test_sketch_estimator_sweep_from_artifact(self, built_index, wc_graph, tmp_path):
        from repro.api import SketchEstimator

        seeds = built_index.select(6).seeds
        artifact = built_index.save(tmp_path / "warm.npz")
        estimator = SketchEstimator(wc_graph, "ic", artifact=str(artifact))
        curve = estimator.sweep(seeds, [0, 2, 6])
        assert curve[0] == 0.0
        assert curve[2] == pytest.approx(
            max(built_index.estimate_spread(seeds[:2]) - 2, 0.0)
        )
        assert estimator.describe()["theta"] == built_index.theta

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


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _module_file(name):
    """The source file of a ``repro.*`` module, or ``None``."""
    base = SRC.joinpath(*name.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _parse(name):
    path = _module_file(name)
    return path, ast.parse(path.read_text(), filename=str(path))


def _repro_imports(name):
    """``repro.*`` modules the source of ``name`` imports, at any depth.

    ``from pkg import x`` names ``pkg`` and, when ``x`` is a submodule,
    ``pkg.x``.  The ``__init__`` files of the parent packages, which
    Python also runs, are left out.
    """
    path, tree = _parse(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                module = f"{anchor}.{module}" if module else anchor
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return {
        module
        for module in found
        if module.split(".")[0] == "repro" and _module_file(module)
    }


def test_index_code_cannot_reach_the_service():
    """The two serving locks can never be held in index -> service order.

    ``InfluenceService`` holds its lock while it calls into an
    ``InfluenceIndex``; the reverse nesting would need index code to call
    the service, and no module ``repro.serving.index`` imports, directly
    or not, can even name it.  So the two locks never form a cycle.
    """
    closure, frontier = set(), ["repro.serving.index"]
    while frontier:
        module = frontier.pop()
        if module not in closure:
            closure.add(module)
            frontier.extend(_repro_imports(module))
    assert "repro.sketches.sampler" in closure  # the walk follows imports
    assert "repro.serving.service" not in closure, sorted(closure)
    for module in sorted(closure):
        for node in ast.walk(_parse(module)[1]):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            assert name != "InfluenceService", (module, node.lineno)


def _attached(graph, model="ic", theta=500, engine_seed=0, **options):
    """A service with one freshly built index attached, and that index."""
    service = InfluenceService(**options)
    index = InfluenceIndex.build(graph, model, theta, engine_seed=engine_seed)
    service.attach(index)
    return service, index


class TestInfluenceService:
    def test_attached_index_hits_cache(self, wc_compiled):
        service, index = _attached(wc_compiled, capacity=2)
        assert service.attach(index) == (index.fingerprint, "ic")
        assert len(service) == 1
        service.select(wc_compiled, "ic", 2)
        service.evaluate(wc_compiled, "ic", [0])
        assert service.stats()["index_hits"] == 2

    def test_unattached_request_names_attach(self, wc_compiled):
        service, _ = _attached(wc_compiled, theta=100)
        with pytest.raises(ConfigurationError, match=r"attach\(\)"):
            service.select(wc_compiled, "wc", 3)
        with pytest.raises(ConfigurationError, match=r"attach\(\)"):
            InfluenceService().evaluate(wc_compiled, "ic", [0])

    def test_lru_eviction(self):
        service = InfluenceService(capacity=2)
        graphs = [erdos_renyi_graph(40, 0.1, seed=s).compile() for s in (1, 2, 3)]
        for graph in graphs:
            service.attach(InfluenceIndex.build(graph, "ic", 200))
        assert len(service) == 2
        assert service.stats()["index_evictions"] == 1
        # Oldest (graphs[0]) was evicted: requests for it now fail.
        with pytest.raises(ConfigurationError):
            service.select(graphs[0], "ic", 1)
        assert service.select(graphs[1], "ic", 1).seeds

    def test_evaluate_matches_index_oracle(self, wc_compiled):
        service, index = _attached(wc_compiled, theta=1000, engine_seed=3)
        seeds = index.select(5).seeds
        assert service.evaluate(wc_compiled, "ic", seeds) == pytest.approx(
            index.estimate_spread(seeds)
        )

    def test_concurrent_evaluate_coalesces_and_agrees(self, wc_compiled):
        service, index = _attached(wc_compiled, theta=1500, engine_seed=3)
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

    def test_evaluate_concurrent_with_growth(self, wc_compiled):
        # Growth mutates the collection under the index lock; coalesced
        # evaluates must serialise against it instead of reading torn CSR
        # state.  Results computed before/after a grow differ only by
        # estimator noise, so just assert sanity and absence of crashes.
        service, index = _attached(wc_compiled, theta=800, engine_seed=5)
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
        service, _ = _attached(wc_compiled, theta=1200, engine_seed=7)
        reference = service.select(wc_compiled, "ic", 6).seeds

        def query(_):
            return service.select(wc_compiled, "ic", 6).seeds

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(query, range(12)))
        assert all(seeds == reference for seeds in results)

    def test_attach_and_artifact_loading(self, wc_compiled, built_index, tmp_path):
        path = built_index.save(tmp_path / "index.npz")
        service = InfluenceService()
        loaded = InfluenceIndex.load(path, wc_compiled)
        assert loaded.memory_mapped
        service.attach(loaded)
        seeds = built_index.select(3).seeds
        assert service.select(wc_compiled, "ic", 3).seeds == seeds
        assert service.evaluate(wc_compiled, "ic", seeds) == pytest.approx(
            built_index.estimate_spread(seeds)
        )

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_bad_capacity(self, capacity):
        with pytest.raises(ConfigurationError):
            InfluenceService(capacity=capacity)

    def test_harness_view_of_the_service(self, wc_compiled):
        """The names the index-serve benchmark workload reads stay put."""
        assert float(EvaluateOutcome(1.0)) == 1.0
        assert EvaluateOutcome(1.0).degraded is False
        service, _ = _attached(wc_compiled, theta=300, capacity=1)
        answer = service.evaluate(wc_compiled, "ic", [0, 1])
        assert isinstance(answer, EvaluateOutcome) and answer.degraded is False
        assert json.loads(json.dumps({"spread": answer}))["spread"] == float(answer)
        selection = service.select(wc_compiled, "ic", 3)
        assert not selection.extras.get("degraded")
        stats = service.stats()
        assert stats["requests_shed"] == 0
        assert stats["degraded_answers"] == 0
        assert stats["evaluate_requests"] == 1
        assert stats["evaluate_batches"] == 1
        # layers.py patches these two through the class __dict__.
        assert {"select", "evaluate"} <= set(vars(InfluenceService))

    @pytest.mark.parametrize("where", ["oracle-pass", "serve-batch"])
    def test_leader_death_reaches_every_parked_waiter_exactly_once(
        self, wc_compiled, monkeypatch, where
    ):
        service, index = _attached(wc_compiled, theta=400)
        original = index._estimate_spreads_indices
        stalled = threading.Event()
        release = threading.Event()
        calls = []

        def stall_then_die(index_sets):
            # The first batch stalls until three followers are parked; the
            # next batch (those three) dies mid-pass.
            calls.append(len(index_sets))
            if len(calls) == 1:
                stalled.set()
                assert release.wait(timeout=10.0)
                return original(index_sets)
            raise RuntimeError("leader died mid-batch")

        if where == "oracle-pass":
            monkeypatch.setattr(index, "_estimate_spreads_indices", stall_then_die)
        else:
            # The error escapes _serve_batch itself, past its own handler.
            def serve_batch(index, batch):
                spreads = stall_then_die([request.seeds for request in batch])
                for request, spread in zip(batch, spreads):
                    request.result, request.done = float(spread), True

            monkeypatch.setattr(
                InfluenceService, "_serve_batch", staticmethod(serve_batch)
            )
        with ThreadPoolExecutor(max_workers=4) as pool:
            leader = pool.submit(service.evaluate, wc_compiled, "ic", [0])
            assert stalled.wait(timeout=10.0)
            followers = [
                pool.submit(service.evaluate, wc_compiled, "ic", [i + 1])
                for i in range(3)
            ]
            for _ in range(2000):
                with service._lock:
                    queued = sum(len(v) for v in service._pending.values())
                if queued == 3:
                    break
                threading.Event().wait(0.005)
            assert queued == 3
            release.set()
            assert leader.result(timeout=10.0) > 0  # first batch unharmed
            errors = []
            for future in followers:
                with pytest.raises(RuntimeError, match="mid-batch") as excinfo:
                    future.result(timeout=10.0)
                errors.append(excinfo.value)
        # One failure, delivered to every parked waiter exactly once.
        assert calls == [1, 3]
        assert len({id(e) for e in errors}) == 1
        # The failure is not sticky: leadership was released cleanly.
        monkeypatch.undo()
        assert service.evaluate(wc_compiled, "ic", [0]) > 0

    def test_concurrent_eviction_with_inflight_evaluates(self, wc_compiled):
        other = InfluenceIndex.build(
            erdos_renyi_graph(60, 0.08, seed=11).compile(), "ic", 200
        )
        service, index = _attached(wc_compiled, theta=200, capacity=1)
        reference = float(service.evaluate(wc_compiled, "ic", [0, 1]))
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                try:
                    value = float(service.evaluate(wc_compiled, "ic", [0, 1]))
                    if value != reference:
                        failures.append(("wrong", value))
                except ConfigurationError:
                    pass  # between the two attaches the index is evicted
                except Exception as error:  # noqa: BLE001
                    failures.append(("error", error))

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                # Attaching the other graph's index evicts the first one
                # (capacity=1) while evaluates for it are in flight.
                service.attach(other)
                service.attach(index)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not failures
        assert service.stats()["index_evictions"] >= 10

    def test_models_are_keyed_separately(self, wc_compiled):
        service, ic = _attached(wc_compiled, "ic", theta=300)
        wc = InfluenceIndex.build(wc_compiled, "wc", 300)
        service.attach(wc)
        assert len(service) == 2
        assert service.select(wc_compiled, "ic", 3).seeds == ic.select(3).seeds
        assert service.select(wc_compiled, "wc", 3).seeds == wc.select(3).seeds
        models = sorted(row["model"] for row in service.stats()["resident_indexes"])
        assert models == ["ic", "wc"]

    def test_stats_lists_resident_indexes_in_lru_order(self):
        service = InfluenceService(capacity=3)
        graphs = [erdos_renyi_graph(30, 0.1, seed=s).compile() for s in (1, 2, 3)]
        for graph in graphs:
            service.attach(InfluenceIndex.build(graph, "ic", 100))
        service.select(graphs[0], "ic", 1)  # touch: now most recent
        order = [row["fingerprint"] for row in service.stats()["resident_indexes"]]
        expected = [graph_fingerprint(g)[:12] for g in (graphs[1], graphs[2], graphs[0])]
        assert order == expected
        # The next attach evicts graphs[1], the least recently used.
        service.attach(
            InfluenceIndex.build(erdos_renyi_graph(30, 0.1, seed=4).compile(), "ic", 100)
        )
        fingerprints = {row["fingerprint"] for row in service.stats()["resident_indexes"]}
        assert graph_fingerprint(graphs[1])[:12] not in fingerprints

    def test_attach_replaces_the_resident_index(
        self, wc_compiled, built_index, tmp_path
    ):
        path = built_index.save(tmp_path / "index.npz")
        service, old = _attached(wc_compiled, theta=300, engine_seed=11, capacity=1)
        loaded = InfluenceIndex.load(path, wc_compiled)
        service.attach(loaded)
        assert service.select(wc_compiled, "ic", 2).theta == built_index.theta
        stats = service.stats()
        assert len(service) == 1 and stats["index_evictions"] == 0
        # A caller still holding the replaced index keeps a working object.
        assert old.estimate_spread([0, 1]) > 0

    def test_unknown_seed_is_an_error_outcome(self, wc_compiled):
        service, _ = _attached(wc_compiled, theta=200)
        with pytest.raises(ConfigurationError, match="not a node"):
            service.evaluate(wc_compiled, "ic", [0, "no-such-node"])
        requests = service.telemetry.counter(
            "repro_serving_requests_total", labelnames=("op", "outcome")
        )
        assert requests.labels(op="evaluate", outcome="error").value == 1.0
        assert requests.labels(op="evaluate", outcome="ok").value == 0.0
        # The bad request never reached the coalescing queue.
        assert service.stats()["evaluate_requests"] == 0
        assert not service._pending and not service._leaders
        assert service.evaluate(wc_compiled, "ic", [0]) > 0

    def test_mixed_load_answers_every_request(self, wc_compiled):
        service, index = _attached(wc_compiled, theta=800, engine_seed=3, capacity=2)
        seed_sets = [[i, i + 1] for i in range(0, 40, 2)]
        expected_spreads = index.estimate_spreads(seed_sets)
        expected_seeds = index.select(4).seeds

        def request(i):
            if i % 2 == 0:
                return "evaluate", i, service.evaluate(
                    wc_compiled, "ic", seed_sets[i % len(seed_sets)]
                )
            return "select", i, service.select(wc_compiled, "ic", 4).seeds

        with ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(request, range(40)))
        for kind, i, answer in answers:
            if kind == "evaluate":
                assert answer == pytest.approx(
                    expected_spreads[i % len(seed_sets)]
                )
            else:
                assert answer == expected_seeds
        stats = service.stats()
        assert stats["evaluate_requests"] == 20 and stats["select_requests"] == 20
        # Every leader retired and every queue drained.
        assert not service._pending and not service._leaders

    def test_content_equal_graph_is_served_by_the_same_index(
        self, wc_graph, wc_compiled
    ):
        service, index = _attached(wc_compiled, theta=300)
        twin = wc_graph.copy().compile()
        assert twin is not wc_compiled
        assert service.select(twin, "ic", 3).seeds == index.select(3).seeds
        assert service.stats()["index_hits"] == 1

    def test_edited_graph_is_not_served_by_the_old_index(
        self, wc_graph, wc_compiled
    ):
        service, _ = _attached(wc_compiled, theta=300)
        edited = wc_graph.copy()
        edited.add_edge(0, 199, probability=0.5)
        with pytest.raises(ConfigurationError, match=r"attach\(\)"):
            service.evaluate(edited.compile(), "ic", [0])
        assert service.stats()["index_hits"] == 0

    def test_evaluate_touches_the_lru_order(self):
        service = InfluenceService(capacity=2)
        graphs = [erdos_renyi_graph(30, 0.1, seed=s).compile() for s in (1, 2)]
        for graph in graphs:
            service.attach(InfluenceIndex.build(graph, "ic", 100))
        service.evaluate(graphs[0], "ic", [0])  # touch: now most recent
        service.attach(
            InfluenceIndex.build(erdos_renyi_graph(30, 0.1, seed=3).compile(), "ic", 100)
        )
        # graphs[1] was the least recently used, so it is the one evicted.
        assert service.evaluate(graphs[0], "ic", [0]) > 0
        with pytest.raises(ConfigurationError):
            service.evaluate(graphs[1], "ic", [0])

    def test_reattaching_the_same_index_evicts_nothing(self, wc_compiled):
        service, index = _attached(wc_compiled, theta=200, capacity=1)
        for _ in range(3):
            assert service.attach(index) == (index.fingerprint, "ic")
        assert len(service) == 1
        assert service.stats()["index_evictions"] == 0

    def test_evaluate_of_the_empty_seed_set_is_zero(self, wc_compiled):
        service, _ = _attached(wc_compiled, theta=200)
        assert service.evaluate(wc_compiled, "ic", []) == 0.0
        assert service.stats()["evaluate_requests"] == 1

    def test_services_keep_private_counters(self, wc_compiled, built_index):
        first, second = InfluenceService(), InfluenceService()
        for service in (first, second):
            service.attach(built_index)
        first.evaluate(wc_compiled, "ic", [0])
        first.select(wc_compiled, "ic", 2)
        assert first.telemetry is not second.telemetry
        assert first.stats()["index_hits"] == 2
        assert second.stats()["index_hits"] == 0

    def test_given_registry_receives_the_service_counters(
        self, wc_compiled, built_index
    ):
        registry = MetricsRegistry()
        service = InfluenceService(registry=registry)
        service.attach(built_index)
        service.select(wc_compiled, "ic", 2)
        assert service.telemetry is registry
        events = registry.counter(
            "repro_serving_events_total", labelnames=("event",)
        )
        assert events.labels(event="select_requests").value == 1.0
        assert events.labels(event="index_hits").value == 1.0

    @pytest.mark.parametrize("op", ["select", "evaluate"])
    def test_unattached_request_is_an_error_outcome(self, wc_compiled, op):
        service = InfluenceService()
        call = {
            "select": lambda: service.select(wc_compiled, "ic", 1),
            "evaluate": lambda: service.evaluate(wc_compiled, "ic", [0]),
        }[op]
        with pytest.raises(ConfigurationError):
            call()
        requests = service.telemetry.counter(
            "repro_serving_requests_total", labelnames=("op", "outcome")
        )
        assert requests.labels(op=op, outcome="error").value == 1.0
        assert requests.labels(op=op, outcome="ok").value == 0.0
        assert service.stats()["index_hits"] == 0

    @pytest.mark.parametrize(
        "budget, error",
        [(-1, ConfigurationError), (201, BudgetError)],
        ids=["negative", "above-node-count"],
    )
    def test_bad_budget_is_an_error_outcome(self, wc_compiled, budget, error):
        service, _ = _attached(wc_compiled, theta=200)
        with pytest.raises(error):
            service.select(wc_compiled, "ic", budget)
        requests = service.telemetry.counter(
            "repro_serving_requests_total", labelnames=("op", "outcome")
        )
        assert requests.labels(op="select", outcome="error").value == 1.0
        # The service stays usable after the rejected request.
        assert len(service.select(wc_compiled, "ic", 2).seeds) == 2

    def test_repr_reports_residency(self, wc_compiled):
        service, _ = _attached(wc_compiled, theta=200, capacity=3)
        assert repr(service) == "<InfluenceService 1/3 indexes resident>"


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

    def _query(self, artifact, *request):
        return cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact), *request, "--json",
        ])

    @pytest.mark.parametrize(
        "request_args, error, match",
        [
            pytest.param(["--seeds", "0,no-such-node"], ConfigurationError,
                         "not a node", id="unknown-seed"),
            pytest.param(["--sweep", "1,x"], ConfigurationError,
                         "integers", id="non-integer-counts"),
            pytest.param(["--sweep", "1,-2"], ConfigurationError,
                         "non-negative", id="negative-count"),
            pytest.param(["-k", "-1"], ConfigurationError,
                         "non-negative", id="negative-budget"),
            pytest.param(["-k", "100000"], BudgetError,
                         "exceeds", id="budget-above-node-count"),
        ],
    )
    def test_index_query_rejects_a_bad_request(
        self, tmp_path, capsys, request_args, error, match
    ):
        artifact, _ = self._build(tmp_path, capsys, theta=500)
        with pytest.raises(error, match=match):
            self._query(artifact, *request_args)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", ["missing", "not-an-npz"])
    def test_index_query_names_a_bad_artifact(self, tmp_path, kind):
        artifact = tmp_path / "index.npz"
        if kind == "not-an-npz":
            artifact.write_text("not an artifact")
        with pytest.raises(IndexArtifactError, match=str(artifact)):
            self._query(artifact, "-k", "2")

    @pytest.mark.parametrize(
        "request_args",
        [[], ["-k", "2", "--seeds", "0"]],
        ids=["no-query", "two-queries"],
    )
    def test_index_query_needs_exactly_one_query(
        self, tmp_path, capsys, request_args
    ):
        artifact, _ = self._build(tmp_path, capsys, theta=500)
        with pytest.raises(SystemExit) as excinfo:
            self._query(artifact, *request_args)
        assert excinfo.value.code == 2

    def test_index_query_never_shrinks_theta(self, tmp_path, capsys):
        artifact, _ = self._build(tmp_path, capsys, theta=1000)
        before = artifact.read_bytes()
        assert self._query(artifact, "--grow-theta", "500", "-k", "2") == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 1000
        assert artifact.read_bytes() == before

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
