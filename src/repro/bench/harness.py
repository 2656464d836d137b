"""Measurement harness shared by every benchmark.

The paper's figures measure three things per algorithm: the quality of the
selected seeds (spread under a reference model), the running time of seed
selection, and the memory consumed over and above the graph.
:func:`measure_selection` runs one algorithm on one graph and captures the
seeds, the time and the memory; the "vs #seeds" curves come from the
estimators' ``sweep`` (:mod:`repro.api`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.algorithms.base import SeedSelectionResult, SeedSelector
from repro.algorithms.registry import get_algorithm
from repro.graphs.digraph import CompiledGraph, DiGraph
from repro.utils.memory import MemoryTracker
from repro.utils.timer import Timer


@dataclass
class AlgorithmRun:
    """One algorithm executed on one graph: seeds + time + memory."""

    algorithm: str
    dataset: str
    budget: int
    seeds: List[object]
    runtime_seconds: float
    peak_memory_mb: float
    selection: SeedSelectionResult
    metadata: Dict[str, object] = field(default_factory=dict)


def measure_selection(
    graph: Union[DiGraph, CompiledGraph],
    algorithm: Union[str, SeedSelector],
    budget: int,
    dataset: str = "",
    **algorithm_options: object,
) -> AlgorithmRun:
    """Run seed selection once, measuring wall-clock time and peak extra memory."""
    selector = (
        get_algorithm(algorithm, **algorithm_options)
        if isinstance(algorithm, str)
        else algorithm
    )
    compiled = graph.compile() if isinstance(graph, DiGraph) else graph
    timer = Timer()
    with MemoryTracker() as tracker:
        with timer:
            selection = selector.select(compiled, budget)
    return AlgorithmRun(
        algorithm=selector.name,
        dataset=dataset or getattr(graph, "name", ""),
        budget=budget,
        seeds=list(selection.seeds),
        runtime_seconds=timer.elapsed,
        peak_memory_mb=tracker.peak_mb,
        selection=selection,
        metadata=dict(selection.metadata),
    )
