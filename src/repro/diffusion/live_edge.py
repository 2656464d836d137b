"""The live-edge formulation of the Linear Threshold model.

Kempe et al. proved LT is equivalent to the following random-graph process:
every node independently keeps *at most one* of its incoming edges — edge
``(u, v)`` is selected with probability ``w_(u,v)`` and no edge is selected
with probability ``1 - sum_u w_(u,v)``.  The spread of a seed set is the
number of nodes reachable from it through the selected ("live") edges.

The paper's Sec. 3.3 uses this formulation to extend EaSyIM/OSIM to LT, and
the test suite uses it to cross-validate :class:`LinearThresholdModel`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import BatchOutcome, DiffusionModel
from repro.diffusion.batch import run_live_edge_batch
from repro.graphs.digraph import CompiledGraph


class LiveEdgeModel(DiffusionModel):
    """LT diffusion simulated through its live-edge equivalence."""

    name = "lt-live-edge"
    opinion_aware = False

    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        return run_live_edge_batch(graph, seeds, rng, count)
