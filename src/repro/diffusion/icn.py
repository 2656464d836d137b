"""The IC-N model (Chen et al., SDM 2011) — negative-opinion baseline.

IC-N extends IC with a single global *quality factor* ``q``:

* a node activated by a *positive* neighbour becomes positive with
  probability ``q`` and negative with probability ``1 - q``;
* a node activated by a *negative* neighbour always becomes negative
  (negativity dominance);
* seeds start positive, but turn negative with probability ``1 - q`` as well.

The paper criticises IC-N for ignoring personal opinions and for its rigid
propagation of negativity (Sec. 1, limitations 1-2); it is implemented here as
one of the two prior opinion-aware baselines.  Final opinions are reported as
``+1`` / ``-1`` so the opinion-spread definitions apply unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import BatchOutcome, DiffusionModel
from repro.diffusion.batch import ic_edge_probability, run_ic_batch
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph


class ICNModel(DiffusionModel):
    """IC with negative opinion emergence controlled by a quality factor."""

    name = "icn"
    opinion_aware = True

    def __init__(self, quality_factor: float = 0.9) -> None:
        if not 0.0 <= quality_factor <= 1.0:
            raise ConfigurationError(
                f"quality_factor must lie in [0, 1], got {quality_factor}"
            )
        self.quality_factor = quality_factor

    def __repr__(self) -> str:
        return f"ICNModel(quality_factor={self.quality_factor})"

    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        return run_ic_batch(
            graph,
            seeds,
            rng,
            count,
            ic_edge_probability(graph, "ic"),
            opinion="polarity",
            quality_factor=self.quality_factor,
        )
