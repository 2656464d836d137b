"""The bulk CSR compile against a per-edge reference compile.

``CompiledGraph.from_edge_arrays`` lays out the out-CSR by a stable argsort
of the sources and the in-CSR by a stable argsort of the out targets;
``from_digraph`` gathers a graph's edges and calls it.  ``reference_compile``
is the straightforward version it replaced: it walks the edges twice and
writes every array slot one at a time.  Both must produce the same bytes
for any graph, and the in-CSR must keep the layout that lets
``out_to_in_position`` skip its lexsort fallback.

The synthetic stand-ins are built as array-backed graphs
(``DiGraph.from_edge_arrays``); they must agree with the same edges added
one ``add_edge`` at a time on every public method, and the benchmark's
graphs must keep the bytes recorded in ``HARNESS_DIGESTS``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.exceptions import GraphError
from repro.graphs.digraph import CompiledGraph, DiGraph
from repro.graphs.generators import forest_fire_edges, powerlaw_cluster_edges
from repro.opinion.annotate import annotate_graph
from repro.specs import GraphSpec

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ARRAYS = (
    "out_indptr", "out_indices", "out_probability", "out_interaction", "out_weight",
    "in_indptr", "in_indices", "in_probability", "in_interaction", "in_weight",
    "opinions", "thresholds",
)


def reference_compile(graph: DiGraph) -> CompiledGraph:
    """Per-edge compile: count degrees, then place each edge at its cursors."""
    labels = list(graph.nodes())
    index_of = {label: i for i, label in enumerate(labels)}
    n = len(labels)

    out_degrees = np.zeros(n + 1, dtype=np.int64)
    in_degrees = np.zeros(n + 1, dtype=np.int64)
    for source, target, _ in graph.edges():
        out_degrees[index_of[source] + 1] += 1
        in_degrees[index_of[target] + 1] += 1
    out_indptr = np.cumsum(out_degrees)
    in_indptr = np.cumsum(in_degrees)
    m = int(out_indptr[-1])

    out_indices = np.zeros(m, dtype=np.int64)
    out_probability = np.zeros(m, dtype=np.float64)
    out_interaction = np.zeros(m, dtype=np.float64)
    out_weight = np.zeros(m, dtype=np.float64)
    in_indices = np.zeros(m, dtype=np.int64)
    in_probability = np.zeros(m, dtype=np.float64)
    in_interaction = np.zeros(m, dtype=np.float64)
    in_weight = np.zeros(m, dtype=np.float64)

    out_cursor = out_indptr[:-1].copy()
    in_cursor = in_indptr[:-1].copy()
    for source, target, data in graph.edges():
        u = index_of[source]
        v = index_of[target]
        pos = out_cursor[u]
        out_indices[pos] = v
        out_probability[pos] = data.probability
        out_interaction[pos] = data.interaction
        out_weight[pos] = data.weight
        out_cursor[u] += 1
        pos = in_cursor[v]
        in_indices[pos] = u
        in_probability[pos] = data.probability
        in_interaction[pos] = data.interaction
        in_weight[pos] = data.weight
        in_cursor[v] += 1

    opinions = np.zeros(n, dtype=np.float64)
    thresholds = np.full(n, np.nan, dtype=np.float64)
    for label, i in index_of.items():
        data = graph.node_data(label)
        opinions[i] = 0.0 if data.opinion is None else data.opinion
        if data.threshold is not None:
            thresholds[i] = data.threshold

    return CompiledGraph(
        labels=labels,
        index_of=index_of,
        out_indptr=out_indptr,
        out_indices=out_indices,
        out_probability=out_probability,
        out_interaction=out_interaction,
        out_weight=out_weight,
        in_indptr=in_indptr,
        in_indices=in_indices,
        in_probability=in_probability,
        in_interaction=in_interaction,
        in_weight=in_weight,
        opinions=opinions,
        thresholds=thresholds,
    )


def assert_same_compile(graph: DiGraph) -> CompiledGraph:
    compiled = graph.compile()
    expected = reference_compile(graph)
    assert compiled.labels == expected.labels
    assert list(compiled.index_of.items()) == list(expected.index_of.items())
    for name in ARRAYS:
        actual, wanted = getattr(compiled, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype, name
        assert actual.shape == wanted.shape, name
        # Byte equality: NaN thresholds and signed zeros must match too.
        assert actual.tobytes() == wanted.tobytes(), name
    return compiled


def assert_fast_in_layout(compiled: CompiledGraph) -> None:
    """The stable-argsort mapping is already valid: no lexsort fallback."""
    order = np.argsort(compiled.out_indices, kind="stable")
    mapping = np.empty(order.size, dtype=np.int64)
    mapping[order] = np.arange(order.size, dtype=np.int64)
    assert np.array_equal(compiled.in_indices[mapping], compiled.edge_sources)
    assert np.array_equal(compiled.out_to_in_position, mapping)
    assert np.array_equal(compiled.in_probability[mapping], compiled.out_probability)


LABELS = st.one_of(
    st.integers(-3, 40),
    st.text(alphabet="abcxyz", min_size=1, max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from(["u", "v"])),
)
UNIT = st.floats(0.0, 1.0)


@st.composite
def mutated_digraphs(draw):
    """Graphs built by a random history of adds, removals and overwrites.

    Covers mixed int/str/tuple labels, isolated nodes, removed and re-added
    edges and nodes, overwritten edge attributes, and opinions/thresholds on
    a subset of the nodes.
    """
    labels = draw(st.lists(LABELS, min_size=1, max_size=12, unique=True))
    pick = st.integers(0, len(labels) - 1)
    graph = DiGraph()
    operations = draw(st.lists(
        st.tuples(
            st.sampled_from(["edge", "edge", "edge", "remove_edge", "node",
                             "remove_node", "opinion", "threshold", "attribute"]),
            pick, pick, UNIT, UNIT, UNIT,
        ),
        max_size=60,
    ))
    for kind, i, j, a, b, c in operations:
        u, v = labels[i], labels[j]
        if kind == "edge" and u != v:
            graph.add_edge(u, v, probability=a, weight=b, interaction=c)
        elif kind == "remove_edge" and graph.has_edge(u, v):
            graph.remove_edge(u, v)
        elif kind == "node":
            graph.add_node(u)
        elif kind == "remove_node" and graph.has_node(u):
            graph.remove_node(u)
        elif kind == "opinion" and graph.has_node(u):
            graph.set_opinion(u, 2.0 * a - 1.0)
        elif kind == "threshold" and graph.has_node(u):
            graph.set_threshold(u, a)
        elif kind == "attribute" and graph.has_edge(u, v):
            graph.set_probability(u, v, a)
            graph.set_weight(u, v, b)
            graph.set_interaction(u, v, c)
    return graph


class TestBulkCompile:
    @SETTINGS
    @given(mutated_digraphs())
    def test_matches_reference_compile(self, graph):
        assert_fast_in_layout(assert_same_compile(graph))

    def test_empty_and_edgeless_graphs(self):
        assert_same_compile(DiGraph())
        graph = DiGraph()
        graph.add_nodes_from(["a", (1, "b"), 7])
        assert_fast_in_layout(assert_same_compile(graph))

    @pytest.mark.parametrize("name", ["soclive", "youtube"])
    def test_matches_reference_on_datasets(self, name):
        graph = load_dataset(name, scale=0.3, seed=1)
        annotate_graph(graph, seed=2)
        graph.set_linear_threshold_weights()
        assert_fast_in_layout(assert_same_compile(graph))


#: sha256 of each compiled array's bytes and of ``repr(labels)`` for the
#: benchmark's three graphs (``benchmarks/harness/workloads.py``), recorded
#: from the dict-of-dicts construction that the edge-array path replaced.
HARNESS_DIGESTS = {
    "soclive": {
        "out_indptr": "63f45709487b669819e6b4336dbebe40db5fec5a36d21e259c75365d91e3c376",
        "out_indices": "39d6fd6f84803baf39596c04bcf85c79515a8e04b256d1c6c6cc704ef168b410",
        "out_probability": "2e8316100a3ba90aefed504163a7c7b245908792e3f8d1d428694cbcece44a55",
        "out_interaction": "519f0ce2e10d7ed4c0ff9a58b2f2da39913c2473adee53498f33d7545d1b9041",
        "out_weight": "aec6f2d40a7042f46a5b446cffdefe4b9f89716225d6d7c15d43f9feadac9af5",
        "in_indptr": "ef9f24e1b6875b9270b29efb4d1dea086be3d705f20d4c1e5fe88f2be10f1de0",
        "in_indices": "aed6b353d5a75c66172019c7e17d66a64c70301b102e0ec86a054a5349d4420d",
        "in_probability": "2e8316100a3ba90aefed504163a7c7b245908792e3f8d1d428694cbcece44a55",
        "in_interaction": "519f0ce2e10d7ed4c0ff9a58b2f2da39913c2473adee53498f33d7545d1b9041",
        "in_weight": "aec6f2d40a7042f46a5b446cffdefe4b9f89716225d6d7c15d43f9feadac9af5",
        "opinions": "5d067bc81bb170f7edcfa496a59041b72f297c0df593c2b91fcfca646f42ddf3",
        "thresholds": "62c06cccf8ac7a00482794ee5717af76fff3f8883da3a87d0d2354b8631faf38",
        "labels": "ac3af069e54913efc7397a0c36c0b608a930ade02ed013865024e2d712dced3b",
    },
    "nethept": {
        "out_indptr": "ac887f53ec4ddb36591728e1b18162c54393fcf5ad93767654682c19b4838524",
        "out_indices": "fbf7e4d341ef7d81ce436192d7b0455734a761171d9b263eb8c53f5335bc1089",
        "out_probability": "6c268227e4911aed49b65b71da392b8b8a5bde052ea847f1c7e75f6518e43d53",
        "out_interaction": "bf7019f13be6f01726c0f1079d1b1eba62952cd8552938b733e8e9f1233f3082",
        "out_weight": "82a0c51912e25c8d453bfdeebdb58f2a40f5f438cf4b4a7fc1c95bc0dc976c07",
        "in_indptr": "ac887f53ec4ddb36591728e1b18162c54393fcf5ad93767654682c19b4838524",
        "in_indices": "b2a3a1cf5e0c38d8998cf121980db28e883429cd81c48311432ebf15b27d2bd3",
        "in_probability": "6c268227e4911aed49b65b71da392b8b8a5bde052ea847f1c7e75f6518e43d53",
        "in_interaction": "ce9ad964a3a2462871acb39a132c33c9a2de676f3b6b786736b03081d379322f",
        "in_weight": "82a0c51912e25c8d453bfdeebdb58f2a40f5f438cf4b4a7fc1c95bc0dc976c07",
        "opinions": "87e301817e8c97747dd71dc1b10f67986f2df6e8a41a2de500561fd4561c9da0",
        "thresholds": "57fa75525f34429ebac19bb0ea9a9ea7577bba67da26e3868733df3955698271",
        "labels": "0964c6043c74e9a1402cac5bbb5f3530b9f13bf58a43bac25028abc66a7719b5",
    },
    "youtube": {
        "out_indptr": "db66eac97cf64e3a26f644159df926b61b60f99f3a1e9cfbcd3b179d573df3d9",
        "out_indices": "f1f611303e48b45548c5a2b282e471af7ceedd497c0e2bafe135e4464649515d",
        "out_probability": "7b77b298fa156e8a9fd2b59f9d21404d585d780e83df2d73a1b0cee7c8eb17c4",
        "out_interaction": "1729d90985bbf21975aa7b200b251ddd2bbb91857a159095412ec55c7cb54e9c",
        "out_weight": "2f415376e3c6d95d8170e1255b7f9da144abded56e3fcec29df8264b2ee7f897",
        "in_indptr": "db66eac97cf64e3a26f644159df926b61b60f99f3a1e9cfbcd3b179d573df3d9",
        "in_indices": "99521c9f487c171bb7301b1c30fd9e8b98a5971b40045e8150901bf4387318b3",
        "in_probability": "7b77b298fa156e8a9fd2b59f9d21404d585d780e83df2d73a1b0cee7c8eb17c4",
        "in_interaction": "1729d90985bbf21975aa7b200b251ddd2bbb91857a159095412ec55c7cb54e9c",
        "in_weight": "2f415376e3c6d95d8170e1255b7f9da144abded56e3fcec29df8264b2ee7f897",
        "opinions": "9192c25b734fcbadbe32dadc28089c60db0e39f90cc20ce2e5733f57261acc0c",
        "thresholds": "d9a00c185955ebc430f202660b504ea0e466e9308661a68e7256bea24fae49d5",
        "labels": "4e492c7e181df1972940ca0dc6631f716af00bc314af7efc29f3fb9f3f15d48f",
    },
}

HARNESS_SPECS = {
    "soclive": GraphSpec(dataset="soclive", scale=3.0, seed=1),
    "nethept": GraphSpec(dataset="nethept", scale=30.0, seed=1, annotate=True,
                         opinion="normal"),
    "youtube": GraphSpec(dataset="youtube", scale=5.0, seed=1),
}


class TestArrayBuiltDatasets:
    @pytest.mark.parametrize("name", sorted(HARNESS_DIGESTS))
    def test_harness_graphs_keep_their_bytes(self, name):
        graph = HARNESS_SPECS[name].build()
        compiled = graph.compile()
        # The dataset path never builds the adjacency maps.
        assert "_succ" not in vars(graph)
        digests = {
            array: hashlib.sha256(getattr(compiled, array).tobytes()).hexdigest()
            for array in ARRAYS
        }
        digests["labels"] = hashlib.sha256(repr(compiled.labels).encode()).hexdigest()
        assert digests == HARNESS_DIGESTS[name]

    @pytest.mark.parametrize("edges", [
        lambda seed: powerlaw_cluster_edges(300, 3, 0.6, seed=seed),
        lambda seed: powerlaw_cluster_edges(200, 1, 1.0, seed=seed),
        lambda seed: forest_fire_edges(300, 0.3, 0.2, seed=seed),
        lambda seed: forest_fire_edges(200, 0.9, 0.9, seed=seed),
    ], ids=["powerlaw", "powerlaw-a1", "forest-fire", "forest-fire-dense"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_generator_emits_a_duplicate_edge_or_self_loop(self, edges, seed):
        sources, targets = edges(seed)
        pairs = list(zip(sources, targets))
        assert len(set(pairs)) == len(pairs)
        assert all(u != v for u, v in pairs)


@st.composite
def edge_arrays(draw):
    """``n`` and distinct non-loop edges on ``0..n-1``, in a random order."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    return n, [u for u, _ in chosen], [v for _, v in chosen]


def public_view(graph: DiGraph):
    """Everything the public methods report, materialising adjacency last."""
    counts = (graph.number_of_nodes, graph.number_of_edges, len(graph), graph.has_opinions())
    nodes = list(graph.nodes())
    compiled = graph.compile()
    arrays = [getattr(compiled, name).tobytes() for name in ARRAYS]
    edges = [
        (u, v, data.probability, data.weight, data.interaction)
        for u, v, data in graph.edges()
    ]
    adjacency = [
        (list(graph.successors(node)), list(graph.predecessors(node)),
         graph.out_degree(node), graph.in_degree(node), graph.opinion(node),
         graph.threshold(node))
        for node in graph
    ]
    return counts, nodes, compiled.labels, arrays, edges, adjacency, repr(graph)


class TestArrayBackedDiGraph:
    @SETTINGS
    @given(
        edge_arrays(),
        st.floats(0.0, 1.0),
        st.sampled_from(["none", "annotate", "annotate+lt", "wc", "uniform"]),
        st.integers(0, 2**16),
    )
    def test_agrees_with_add_edge(self, edges, probability, bulk, seed):
        n, sources, targets = edges
        arrays = DiGraph.from_edge_arrays(n, sources, targets, probability)
        added = DiGraph()
        added.add_nodes_from(range(n))
        for u, v in zip(sources, targets):
            added.add_edge(u, v, probability=probability)
        for graph in (arrays, added):
            if bulk.startswith("annotate"):
                annotate_graph(graph, opinion="normal", seed=seed)
            if bulk == "annotate+lt":
                graph.set_linear_threshold_weights()
            elif bulk == "wc":
                graph.set_weighted_cascade_probabilities()
            elif bulk == "uniform":
                graph.set_uniform_probabilities(0.25)
        # Only the setters that annotation and the LT benches use stay on arrays.
        assert ("_succ" in vars(arrays)) == (bulk in ("wc", "uniform"))
        assert public_view(arrays) == public_view(added)
        assert "_succ" in vars(arrays)

        # Mutation after materialisation behaves as on any DiGraph.
        for graph in (arrays, added):
            graph.add_edge(n, n + 1, probability=0.5)
            if sources:
                graph.remove_edge(sources[0], targets[0])
            graph.set_opinion(n, -0.5)
            graph.set_threshold(n + 1, 0.75)
        assert public_view(arrays) == public_view(added)

    @pytest.mark.parametrize("sources, targets, message", [
        ([0, 1], [1, 1], "self-loops"),
        ([0, 1, 0], [1, 2, 1], "more than once"),
        ([0, 3], [1, 2], r"\[0, 3\)"),
        ([0, -1], [1, 2], r"\[0, 3\)"),
        ([0, 1], [1], "one length"),
    ])
    def test_rejects_invalid_edge_arrays(self, sources, targets, message):
        with pytest.raises(GraphError, match=message):
            DiGraph.from_edge_arrays(3, sources, targets)

    def test_compile_is_a_snapshot(self):
        # Sources already in order: the argsort is the identity, yet the
        # compiled arrays must still be copies.
        graph = DiGraph.from_edge_arrays(3, [0, 0, 1], [1, 2, 2], 0.5)
        compiled = graph.compile()
        before = [getattr(compiled, name).tobytes() for name in ARRAYS]
        graph.set_interactions([0.25, 0.5, 0.75])
        graph.set_linear_threshold_weights()
        assert [getattr(compiled, name).tobytes() for name in ARRAYS] == before

    def test_bulk_setters_validate(self):
        graph = DiGraph.from_edge_arrays(3, [0, 1], [1, 2])
        with pytest.raises(GraphError, match="opinion"):
            graph.set_opinions([0.0, 2.0, 0.0])
        with pytest.raises(GraphError, match="interaction"):
            graph.set_interactions([0.5])
        assert not graph.has_opinions()
