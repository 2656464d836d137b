"""The bulk CSR compile against a per-edge reference compile.

``CompiledGraph.from_digraph`` gathers the out-CSR in one pass and derives
the in-CSR from a stable argsort of the targets.  ``reference_compile`` is
the straightforward version it replaced: it walks the edges twice and
writes every array slot one at a time.  Both must produce the same bytes
for any graph, and the in-CSR must keep the layout that lets
``out_to_in_position`` skip its lexsort fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.graphs.digraph import CompiledGraph, DiGraph
from repro.opinion.annotate import annotate_graph

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
