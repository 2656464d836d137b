"""Unit tests for the DiGraph / CompiledGraph data structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs import DiGraph
from repro.graphs.digraph import CompiledGraph


class TestDiGraphBasics:
    def test_empty_graph(self):
        graph = DiGraph()
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert len(graph) == 0
        assert list(graph.nodes()) == []

    def test_add_node_idempotent(self):
        graph = DiGraph()
        graph.add_node("a")
        graph.add_node("a")
        assert graph.number_of_nodes == 1

    def test_add_edge_creates_endpoints(self):
        graph = DiGraph()
        graph.add_edge(1, 2, probability=0.3)
        assert graph.has_node(1)
        assert graph.has_node(2)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(2, 1)
        assert graph.edge_data(1, 2).probability == pytest.approx(0.3)

    def test_add_edge_overwrites_attributes(self):
        graph = DiGraph()
        graph.add_edge(1, 2, probability=0.3)
        graph.add_edge(1, 2, probability=0.7, interaction=0.2)
        assert graph.number_of_edges == 1
        assert graph.edge_data(1, 2).probability == pytest.approx(0.7)
        assert graph.edge_data(1, 2).interaction == pytest.approx(0.2)

    def test_self_loop_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_remove_edge(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.number_of_edges == 0

    def test_remove_missing_edge_raises(self):
        graph = DiGraph()
        graph.add_node(1)
        graph.add_node(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_remove_node_removes_incident_edges(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 1)
        graph.remove_node(2)
        assert graph.number_of_nodes == 2
        assert graph.number_of_edges == 1
        assert graph.has_edge(3, 1)

    def test_missing_node_raises(self):
        graph = DiGraph()
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(42)

    def test_degrees_and_neighbors(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        graph.add_edge("b", "c")
        assert graph.out_degree("a") == 2
        assert graph.in_degree("c") == 2
        assert set(graph.successors("a")) == {"b", "c"}
        assert set(graph.predecessors("c")) == {"a", "b"}

    def test_edges_iteration(self):
        graph = DiGraph()
        graph.add_edge(0, 1, probability=0.5)
        graph.add_edge(1, 2, probability=0.25)
        edges = {(u, v): d.probability for u, v, d in graph.edges()}
        assert edges == {(0, 1): 0.5, (1, 2): 0.25}

    def test_contains_and_iter(self):
        graph = DiGraph()
        graph.add_nodes_from([1, 2, 3])
        assert 2 in graph
        assert 7 not in graph
        assert sorted(graph) == [1, 2, 3]

    def test_repr_mentions_counts(self):
        graph = DiGraph(name="demo")
        graph.add_edge(0, 1)
        assert "demo" in repr(graph)
        assert "1 edges" in repr(graph)


class TestAttributes:
    def test_opinion_validation(self):
        graph = DiGraph()
        graph.add_node(0)
        graph.set_opinion(0, -0.5)
        assert graph.opinion(0) == pytest.approx(-0.5)
        with pytest.raises(GraphError):
            graph.set_opinion(0, 1.5)

    def test_threshold_validation(self):
        graph = DiGraph()
        graph.add_node(0)
        graph.set_threshold(0, 0.4)
        assert graph.threshold(0) == pytest.approx(0.4)
        with pytest.raises(GraphError):
            graph.set_threshold(0, -0.1)

    def test_edge_attribute_setters(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.set_probability(0, 1, 0.9)
        graph.set_interaction(0, 1, 0.25)
        graph.set_weight(0, 1, 0.5)
        data = graph.edge_data(0, 1)
        assert data.probability == pytest.approx(0.9)
        assert data.interaction == pytest.approx(0.25)
        assert data.weight == pytest.approx(0.5)

    def test_probability_out_of_range_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, probability=1.5)

    @pytest.mark.parametrize("attributes", [
        {"probability": 1.5}, {"weight": -0.1}, {"interaction": 2.0},
    ])
    def test_rejected_edge_leaves_graph_unchanged(self, attributes):
        graph = DiGraph()
        graph.add_edge("x", "y")
        with pytest.raises(GraphError):
            graph.add_edge("a", "b", **attributes)
        with pytest.raises(GraphError):
            graph.add_edge("x", "y", **attributes)
        assert list(graph.nodes()) == ["x", "y"]
        assert graph.number_of_edges == 1
        assert graph.edge_data("x", "y").probability == pytest.approx(0.1)

    def test_rejected_node_attributes_leave_graph_unchanged(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_node("a", opinion=1.5)
        with pytest.raises(GraphError):
            graph.add_node("a", threshold=-1.0)
        assert graph.number_of_nodes == 0

    def test_add_edges_from_validates_once_per_call(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edges_from([(0, 1), (1, 2)], probability=1.5)
        assert graph.number_of_nodes == 0
        graph.add_edges_from([(0, 1), (1, 2), (0, 1)], probability=0.4, weight=0.2)
        assert graph.number_of_edges == 2
        assert graph.edge_data(0, 1) == graph.edge_data(1, 2)
        assert graph.edge_data(0, 1) is not graph.edge_data(1, 2)
        assert graph.edge_data(1, 2).weight == pytest.approx(0.2)

    def test_add_edges_from_stops_at_self_loop(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edges_from([(0, 1), (2, 2), (3, 4)])
        assert list(graph.nodes()) == [0, 1]

    def test_records_are_slotted(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        assert not hasattr(graph.edge_data(0, 1), "__dict__")
        assert not hasattr(graph.node_data(0), "__dict__")

    def test_has_opinions(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        assert not graph.has_opinions()
        graph.set_opinion(0, 0.1)
        assert not graph.has_opinions()
        graph.set_opinion(1, -0.1)
        assert graph.has_opinions()

    def test_uniform_probabilities(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.set_uniform_probabilities(0.42)
        assert all(d.probability == pytest.approx(0.42) for _, _, d in graph.edges())

    def test_weighted_cascade_probabilities(self):
        graph = DiGraph()
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.add_edge(0, 1)
        graph.set_weighted_cascade_probabilities()
        assert graph.edge_data(0, 2).probability == pytest.approx(0.5)
        assert graph.edge_data(1, 2).probability == pytest.approx(0.5)
        assert graph.edge_data(0, 1).probability == pytest.approx(1.0)

    def test_linear_threshold_weights(self):
        graph = DiGraph()
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.set_linear_threshold_weights()
        assert graph.edge_data(0, 2).weight == pytest.approx(0.5)


class TestCopySubgraphReverse:
    def _sample(self) -> DiGraph:
        graph = DiGraph(name="sample")
        graph.add_edge("a", "b", probability=0.3, interaction=0.6)
        graph.add_edge("b", "c", probability=0.2, interaction=0.4)
        graph.set_opinion("a", 0.9)
        graph.set_opinion("b", -0.2)
        graph.set_opinion("c", 0.0)
        return graph

    def test_copy_is_deep(self):
        graph = self._sample()
        clone = graph.copy()
        clone.set_probability("a", "b", 0.9)
        clone.set_opinion("a", -0.9)
        assert graph.edge_data("a", "b").probability == pytest.approx(0.3)
        assert graph.opinion("a") == pytest.approx(0.9)

    def test_subgraph_keeps_attributes(self):
        graph = self._sample()
        sub = graph.subgraph(["a", "b"])
        assert sub.number_of_nodes == 2
        assert sub.number_of_edges == 1
        assert sub.opinion("a") == pytest.approx(0.9)
        assert sub.edge_data("a", "b").interaction == pytest.approx(0.6)

    def test_subgraph_unknown_node_raises(self):
        graph = self._sample()
        with pytest.raises(NodeNotFoundError):
            graph.subgraph(["a", "zzz"])

    def test_reverse_flips_edges(self):
        graph = self._sample()
        reverse = graph.reverse()
        assert reverse.has_edge("b", "a")
        assert not reverse.has_edge("a", "b")
        assert reverse.edge_data("b", "a").probability == pytest.approx(0.3)
        assert reverse.opinion("a") == pytest.approx(0.9)


class TestCompiledGraph:
    def test_round_trip_structure(self, figure1):
        compiled = figure1.compile()
        assert compiled.number_of_nodes == 4
        assert compiled.number_of_edges == 4
        # every edge of the original exists in the CSR
        for source, target, data in figure1.edges():
            u = compiled.index_of[source]
            v = compiled.index_of[target]
            neighbors = compiled.out_neighbors(u)
            position = list(neighbors).index(v)
            assert compiled.out_probabilities(u)[position] == pytest.approx(
                data.probability
            )
            assert compiled.out_interactions(u)[position] == pytest.approx(
                data.interaction
            )

    def test_in_out_degree_consistency(self, small_dag):
        compiled = small_dag.compile()
        for node in range(compiled.number_of_nodes):
            label = compiled.labels[node]
            assert compiled.out_degree(node) == small_dag.out_degree(label)
            assert compiled.in_degree(node) == small_dag.in_degree(label)

    def test_degree_sums_match_edges(self, small_dag):
        compiled = small_dag.compile()
        out_total = sum(compiled.out_degree(v) for v in range(compiled.number_of_nodes))
        in_total = sum(compiled.in_degree(v) for v in range(compiled.number_of_nodes))
        assert out_total == compiled.number_of_edges
        assert in_total == compiled.number_of_edges

    def test_opinions_transferred(self, figure1):
        compiled = figure1.compile()
        assert compiled.opinions[compiled.index_of["A"]] == pytest.approx(0.8)
        assert compiled.opinions[compiled.index_of["D"]] == pytest.approx(-0.3)

    def test_unannotated_opinions_default_to_zero(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        compiled = graph.compile()
        assert np.all(compiled.opinions == 0.0)

    def test_labels_for_and_indices_for(self, figure1):
        compiled = figure1.compile()
        indices = compiled.indices_for(["A", "C"])
        assert compiled.labels_for(indices) == ["A", "C"]

    def test_thresholds_nan_when_unset(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.set_threshold(0, 0.3)
        compiled = graph.compile()
        index_0 = compiled.index_of[0]
        index_1 = compiled.index_of[1]
        assert compiled.thresholds[index_0] == pytest.approx(0.3)
        assert np.isnan(compiled.thresholds[index_1])

    def test_repr(self, figure1):
        compiled = figure1.compile()
        assert "4 nodes" in repr(compiled)
