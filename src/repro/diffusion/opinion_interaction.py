"""The Opinion-cum-Interaction (OI) model — the paper's diffusion model.

OI layers opinion dynamics on top of a fundamental activation model (IC or
LT, Sec. 2.2):

* **Activation layer** — identical to IC (independent activation attempts
  with probability ``p``) or LT (weighted thresholds).
* **Opinion layer** — a seed keeps its own opinion.  When a node ``v`` is
  activated under the IC first layer by node ``u``, its final opinion becomes
  ``o'_v = (o_v + (-1)^alpha * o'_u) / 2`` where ``alpha = 0`` with
  probability ``phi_(u,v)`` (agreement) and ``alpha = 1`` otherwise
  (disagreement).  Under the LT first layer the contribution of all active
  in-neighbours is averaged:
  ``o'_v = (o_v + mean_u (-1)^{alpha_(u,v)} o'_u) / 2``.

Once active, a node keeps its effective opinion for the rest of the cascade.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import BatchOutcome, DiffusionModel
from repro.diffusion.batch import run_ic_batch, run_lt_batch
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph

#: First-layer activation models supported by OI.
FIRST_LAYERS = ("ic", "wc", "lt")


class OpinionInteractionModel(DiffusionModel):
    """The OI model with a configurable first layer (``"ic"``, ``"wc"`` or ``"lt"``)."""

    opinion_aware = True

    def __init__(self, first_layer: str = "ic") -> None:
        if first_layer not in FIRST_LAYERS:
            raise ConfigurationError(
                f"first_layer must be one of {FIRST_LAYERS}, got {first_layer!r}"
            )
        self.first_layer = first_layer
        self.name = f"oi-{first_layer}"

    def __repr__(self) -> str:
        return f"OpinionInteractionModel(first_layer={self.first_layer!r})"

    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        if self.first_layer == "lt":
            return run_lt_batch(graph, seeds, rng, count, opinion="interaction")
        return run_ic_batch(
            graph,
            seeds,
            rng,
            count,
            graph.resolved_edge_probabilities(self.first_layer),
            opinion="interaction",
        )
