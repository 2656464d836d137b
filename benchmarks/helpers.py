"""Shared helpers for the benchmark suite (graph cache, one-shot timing).

Kept separate from ``conftest.py`` so benchmark modules can import the helpers
directly (``from helpers import ...``) while pytest loads ``conftest.py`` as a
plugin for the fixtures.
"""

from __future__ import annotations

from typing import Dict

from repro.datasets import load_dataset
from repro.opinion.annotate import annotate_graph

#: Scale applied to every registry dataset in the benchmark suite.
BENCH_SCALE = 0.4

_GRAPH_CACHE: Dict[tuple, object] = {}


def load_bench_graph(name: str, scale: float = BENCH_SCALE, annotated: bool = False,
                     opinion: str = "uniform", seed: int = 7):
    """Process-cached synthetic dataset, optionally annotated with opinions."""
    key = (name, scale, annotated, opinion, seed)
    if key not in _GRAPH_CACHE:
        graph = load_dataset(name, scale=scale, seed=seed)
        if annotated:
            annotate_graph(graph, opinion=opinion, interaction="uniform", seed=seed)
        _GRAPH_CACHE[key] = graph
    return _GRAPH_CACHE[key]


def one_shot(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The paper's experiments are single end-to-end runs (seed selection is
    deterministic given the seed), so repeating them only to tighten timing
    statistics would multiply the suite's runtime for no informational gain.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
