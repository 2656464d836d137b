"""Shared fixtures for the test suite.

Fixtures deliberately use tiny graphs and low simulation counts so the whole
suite runs in seconds; statistical assertions use wide tolerances and fixed
seeds.
"""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset
from repro.graphs import (
    DiGraph,
    figure1_example_graph,
    path_graph,
    random_dag,
    random_tree,
)
from repro.opinion.annotate import annotate_graph


@pytest.fixture
def figure1():
    """The paper's 4-node running example (Figure 1)."""
    return figure1_example_graph()


@pytest.fixture
def triangle():
    """A directed triangle with deterministic probabilities."""
    graph = DiGraph(name="triangle")
    graph.add_edge(0, 1, probability=1.0, interaction=1.0)
    graph.add_edge(1, 2, probability=1.0, interaction=1.0)
    graph.add_edge(2, 0, probability=1.0, interaction=1.0)
    for node in graph.nodes():
        graph.set_opinion(node, 0.5)
    return graph


@pytest.fixture
def line_graph():
    """Directed path 0 -> 1 -> 2 -> 3 -> 4 with p = 1 everywhere."""
    graph = path_graph(5, probability=1.0)
    for node in graph.nodes():
        graph.set_opinion(node, 0.2)
    return graph


@pytest.fixture
def small_tree():
    """A deterministic random out-tree on 30 nodes."""
    return random_tree(30, seed=3, random_probabilities=True)


@pytest.fixture
def small_dag():
    """A deterministic random DAG on 20 nodes."""
    return random_dag(20, edge_probability=0.2, seed=5, random_probabilities=True)


@pytest.fixture
def annotated_small_graph():
    """A tiny annotated NetHEPT stand-in used by opinion-aware tests."""
    graph = load_dataset("nethept", scale=0.12, seed=11)
    annotate_graph(graph, opinion="uniform", interaction="uniform", seed=11)
    return graph


@pytest.fixture
def small_ic_graph():
    """A tiny opinion-oblivious graph for IC/WC/LT algorithm tests."""
    return load_dataset("nethept", scale=0.12, seed=13)
