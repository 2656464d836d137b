"""The Linear Threshold (LT) model.

Each node ``v`` holds an activation threshold ``theta_v``; it activates once
the sum of weights ``w_(u,v)`` over its *active* in-neighbours reaches the
threshold.  Following the conventional randomised formulation (and the paper's
experimental setup), thresholds are drawn uniformly at random per simulation
unless the node carries an explicit threshold annotation, and weights default
to ``1 / in_degree(v)`` when the graph has not been given LT weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import BatchOutcome, DiffusionModel
from repro.diffusion.batch import run_lt_batch
from repro.graphs.digraph import CompiledGraph


class LinearThresholdModel(DiffusionModel):
    """Opinion-oblivious LT diffusion with synchronous rounds."""

    name = "lt"
    opinion_aware = False

    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        return run_lt_batch(graph, seeds, rng, count, opinion="initial")
