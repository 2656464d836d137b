"""The OC model (Zhang, Dinh and Thai, ICDCS 2013) — opinion-aware LT baseline.

OC couples opinion formation with the Linear Threshold activation layer: when
a node ``v`` activates, its final opinion depends on its own initial opinion
and the final opinions of the in-neighbours that activated it, without any
notion of pairwise interaction probability.  The paper lists the missing
interaction term and the LT-only first layer as OC's main limitations
(Sec. 1, limitations 3-4).

Implementation detail: activation follows LT (random thresholds, ``1/indeg``
weights by default); the final opinion of a newly activated node is the
average of its own opinion and the mean final opinion of its active
in-neighbours — the same mixing rule as OI with ``phi = 1`` everywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import BatchOutcome, DiffusionModel
from repro.diffusion.batch import run_lt_batch
from repro.graphs.digraph import CompiledGraph


class OCModel(DiffusionModel):
    """Opinion-aware LT diffusion without interaction probabilities."""

    name = "oc"
    opinion_aware = True

    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        return run_lt_batch(graph, seeds, rng, count, opinion="mean")
