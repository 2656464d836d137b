"""The Independent Cascade (IC) model of Kempe, Kleinberg and Tardos.

At each synchronous step every node activated in the previous step gets one
independent attempt to activate each of its out-neighbours ``v`` with
probability ``p_(u,v)``.  The cascade stops when a step activates nobody.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import BatchOutcome, DiffusionModel
from repro.diffusion.batch import run_ic_batch
from repro.graphs.digraph import CompiledGraph


class IndependentCascadeModel(DiffusionModel):
    """Opinion-oblivious IC diffusion.

    The final opinion recorded for each activated node is simply its initial
    opinion (zero for unannotated graphs); that is how the paper evaluates the
    opinion spread of seed sets chosen under IC.
    """

    name = "ic"
    opinion_aware = False

    #: The :meth:`~repro.graphs.digraph.CompiledGraph.resolved_edge_probabilities`
    #: weighting the cascade reads; the weighted-cascade model overrides it.
    weighting = "ic"

    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        return run_ic_batch(
            graph, seeds, rng, count, graph.resolved_edge_probabilities(self.weighting)
        )
