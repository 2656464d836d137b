"""Unit tests for graph builders, edge-list IO and samplers."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError
from repro.graphs import DiGraph, from_edge_list, make_bidirectional
from repro.graphs.builders import relabel_to_integers
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.samplers import random_edge_sample, random_node_sample, snowball_sample
from repro.graphs.generators import powerlaw_cluster_graph


class TestFromEdgeList:
    def test_two_tuples(self):
        graph = from_edge_list([(0, 1), (1, 2)])
        assert graph.number_of_edges == 2
        assert graph.edge_data(0, 1).probability == pytest.approx(0.1)

    def test_three_tuples_override_probability(self):
        graph = from_edge_list([(0, 1, 0.5)])
        assert graph.edge_data(0, 1).probability == pytest.approx(0.5)

    def test_undirected_adds_reverse(self):
        graph = from_edge_list([(0, 1)], directed=False)
        assert graph.has_edge(1, 0)

    def test_invalid_tuple_length(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 1, 0.5, 0.3, 9)])


class TestMakeBidirectional:
    def test_adds_missing_reverse_edges(self):
        graph = from_edge_list([(0, 1), (1, 2)])
        bidirected = make_bidirectional(graph)
        assert bidirected.has_edge(1, 0)
        assert bidirected.has_edge(2, 1)
        assert bidirected.number_of_edges == 4

    def test_keeps_existing_reverse_attributes(self):
        graph = DiGraph()
        graph.add_edge(0, 1, probability=0.3)
        graph.add_edge(1, 0, probability=0.9)
        bidirected = make_bidirectional(graph)
        assert bidirected.edge_data(1, 0).probability == pytest.approx(0.9)


class TestRelabel:
    def test_relabel_to_integers(self):
        graph = DiGraph()
        graph.add_edge("x", "y", probability=0.4)
        graph.set_opinion("x", 0.5)
        relabelled, mapping = relabel_to_integers(graph)
        assert set(relabelled.nodes()) == {0, 1}
        assert relabelled.opinion(mapping["x"]) == pytest.approx(0.5)
        assert relabelled.edge_data(mapping["x"], mapping["y"]).probability == pytest.approx(0.4)


class TestEdgeListIO:
    def test_round_trip_with_attributes(self, tmp_path, figure1):
        path = tmp_path / "figure1.txt"
        write_edge_list(figure1, path)
        loaded = read_edge_list(path)
        assert loaded.number_of_nodes == figure1.number_of_nodes
        assert loaded.number_of_edges == figure1.number_of_edges
        assert loaded.opinion("A") == pytest.approx(0.8)
        assert loaded.edge_data("A", "D").probability == pytest.approx(0.8)
        assert loaded.edge_data("A", "D").interaction == pytest.approx(0.9)

    def test_round_trip_gzip(self, tmp_path, figure1):
        path = tmp_path / "figure1.txt.gz"
        write_edge_list(figure1, path)
        loaded = read_edge_list(path)
        assert loaded.number_of_edges == 4

    def test_comments_and_plain_edges(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("# comment\n1 2\n2 3 0.4\n")
        graph = read_edge_list(path)
        assert graph.number_of_edges == 2
        assert graph.edge_data(2, 3).probability == pytest.approx(0.4)

    def test_undirected_reading(self, tmp_path):
        path = tmp_path / "undirected.txt"
        path.write_text("1 2\n")
        graph = read_edge_list(path, directed=False)
        assert graph.has_edge(2, 1)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 4 5 6\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["3 3", "1 2 1.7", "1 2 0.5 -0.2", "1 2 abc"])
    def test_invalid_edge_line_reports_position(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n1 2\n{line}\n")
        with pytest.raises(DatasetError, match=rf"bad\.txt:3: "):
            read_edge_list(path)

    def test_invalid_opinion_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nN 1 1.5\n")
        with pytest.raises(DatasetError, match=r"bad\.txt:2: opinion"):
            read_edge_list(path)

    def test_string_node_identifiers(self, tmp_path):
        path = tmp_path / "strings.txt"
        path.write_text("alice bob\n")
        graph = read_edge_list(path)
        assert graph.has_edge("alice", "bob")


class TestSamplers:
    @pytest.fixture
    def base_graph(self):
        return powerlaw_cluster_graph(80, attachment=2, triangle_probability=0.3, seed=1)

    def test_random_node_sample_size(self, base_graph):
        sample = random_node_sample(base_graph, 20, seed=2)
        assert sample.number_of_nodes == 20

    def test_random_node_sample_larger_than_graph(self, base_graph):
        sample = random_node_sample(base_graph, 1000, seed=2)
        assert sample.number_of_nodes == base_graph.number_of_nodes

    def test_snowball_sample_respects_limit(self, base_graph):
        sample = snowball_sample(base_graph, seeds=[0], max_nodes=15)
        assert 1 <= sample.number_of_nodes <= 15

    def test_snowball_contains_seed(self, base_graph):
        sample = snowball_sample(base_graph, seeds=[0], max_nodes=10)
        assert sample.has_node(0)

    def test_random_edge_sample(self, base_graph):
        sample = random_edge_sample(base_graph, 25, seed=3)
        assert sample.number_of_edges <= 25
        assert sample.number_of_edges > 0
