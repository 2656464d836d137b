"""EaSyIM — the paper's opinion-oblivious score-assignment algorithm (Algorithm 4).

The score of a node ``u`` aggregates the contribution of every walk of length
at most ``l`` starting at ``u``; walks of length ``i`` from ``u`` are counted
as the sum, over out-neighbours ``v``, of walks of length ``i - 1`` from
``v``.  Each walk contributes the product of its edge probabilities:

.. math::

    \\Delta_i(u) = \\sum_{v \\in Out(u)} p_{(u,v)} (1 + \\Delta_{i-1}(v))

which runs in ``O(l (m + n))`` time and ``O(n)`` additional space.  Plugged
into the ScoreGREEDY driver the total cost is ``O(k D (m + n))`` — the paper's
headline complexity.

Contributions of previously activated nodes are discounted by zeroing every
edge that points at an activated node, which removes all walks passing
through the activated set.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.algorithms.score_greedy import ScoreGreedySelector
from repro.diffusion.base import DiffusionModel
from repro.diffusion.registry import base_model_layer
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph
from repro.utils.rng import RandomState

#: Default maximum path length; the paper finds l=3 to be the best trade-off.
DEFAULT_MAX_PATH_LENGTH = 3

_SUPPORTED_WEIGHTING = ("ic", "wc", "lt")


def resolve_edge_probabilities(graph: CompiledGraph, weighting: str) -> np.ndarray:
    """Per-out-edge walk probabilities for the chosen model weighting.

    * ``"ic"`` — the annotated influence probabilities ``p``.
    * ``"wc"`` — ``1 / in_degree(target)``.
    * ``"lt"`` — the annotated LT weights when present, else ``1/in_degree``
      (the live-edge probabilities, Sec. 3.3).

    Cached on the immutable :class:`CompiledGraph`, so repeated score passes
    (and IRIE, and the score engine) share one array per weighting.
    """
    if weighting not in _SUPPORTED_WEIGHTING:
        raise ConfigurationError(
            f"weighting must be one of {_SUPPORTED_WEIGHTING}, got {weighting!r}"
        )
    return graph.resolved_edge_probabilities(weighting)


def edge_sources(graph: CompiledGraph) -> np.ndarray:
    """Source node index of every out-edge, aligned with ``out_indices``.

    Cached on the immutable :class:`CompiledGraph` — the historical
    implementation re-allocated an m-sized ``np.repeat`` array on every
    score pass.
    """
    return graph.edge_sources


def easyim_scores(
    graph: CompiledGraph,
    active: Optional[np.ndarray] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    weighting: str = "ic",
) -> np.ndarray:
    """Assign EaSyIM scores ``Delta_l`` to every node.

    Parameters
    ----------
    graph:
        Compiled graph to score.
    active:
        Boolean mask of previously activated nodes whose contributions must be
        discounted; ``None`` means no node is active yet.
    max_path_length:
        The parameter ``l`` (1 <= l <= diameter).
    weighting:
        Which edge probabilities drive the walk weights (``"ic"``, ``"wc"`` or
        ``"lt"``).
    """
    if max_path_length < 1:
        raise ConfigurationError(
            f"max_path_length must be >= 1, got {max_path_length}"
        )
    n = graph.number_of_nodes
    if active is None:
        active = np.zeros(n, dtype=bool)
    probabilities = resolve_edge_probabilities(graph, weighting)
    sources = edge_sources(graph)
    targets = graph.out_indices
    # Edges pointing into the activated set contribute nothing.
    edge_mask = (~active[targets]).astype(np.float64)

    delta_prev = np.zeros(n, dtype=np.float64)
    for _ in range(max_path_length):
        contributions = probabilities * (1.0 + delta_prev[targets]) * edge_mask
        delta_prev = np.bincount(sources, weights=contributions, minlength=n)
    return delta_prev


class EaSyIMSelector(ScoreGreedySelector):
    """ScoreGREEDY with EaSyIM score assignment (the paper's EaSyIM algorithm).

    By default selection runs on the incremental
    :class:`~repro.scoring.engine.ScoreEngine`, which patches each hop of an
    activation update inside its l-hop reverse ball until a hop's dirty
    nodes own more than ``fallback_fraction`` of the ``m`` edges, then
    recomputes that hop and every later one in full; pass
    ``incremental=False`` for the historical full-recompute driver
    (identical seed sets, asserted by the test suite).
    """

    name = "easyim"

    def __init__(
        self,
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        model: Union[str, DiffusionModel] = "ic",
        weighting: Optional[str] = None,
        update_strategy: str = "single",
        update_simulations: int = 10,
        seed: RandomState = None,
        incremental: bool = True,
        fallback_fraction: Optional[float] = None,
    ) -> None:
        from repro.scoring import DEFAULT_FALLBACK_FRACTION, ScoreEngine

        model_name = model if isinstance(model, str) else model.name
        if weighting is None:
            weighting = base_model_layer(model_name)
        self.max_path_length = max_path_length
        self.weighting = weighting
        self.incremental = incremental
        self.fallback_fraction = (
            DEFAULT_FALLBACK_FRACTION if fallback_fraction is None else fallback_fraction
        )

        def score(graph: CompiledGraph, active: np.ndarray) -> np.ndarray:
            return easyim_scores(
                graph,
                active=active,
                max_path_length=self.max_path_length,
                weighting=self.weighting,
            )

        def engine_factory(graph: CompiledGraph) -> ScoreEngine:
            return ScoreEngine(
                graph,
                algorithm="easyim",
                max_path_length=self.max_path_length,
                weighting=self.weighting,
                fallback_fraction=self.fallback_fraction,
            )

        super().__init__(
            score_function=score,
            model=model,
            update_strategy=update_strategy,
            update_simulations=update_simulations,
            seed=seed,
            engine_factory=engine_factory if incremental else None,
        )

    def __repr__(self) -> str:
        return (
            f"EaSyIMSelector(max_path_length={self.max_path_length}, "
            f"weighting={self.weighting!r}, incremental={self.incremental})"
        )
