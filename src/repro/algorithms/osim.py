"""OSIM — the paper's opinion-aware score-assignment algorithm (Algorithm 5).

OSIM extends EaSyIM with three per-node running aggregates that capture how
opinions mix along walks of length ``i`` starting at ``u``:

* ``or_i(u)`` — the probability-weighted sum of the *initial* opinions of the
  nodes reachable through length-``i`` walks;
* ``alpha_i(u)`` — the probability-weighted product of the interaction terms
  ``(2 phi - 1) / 2`` along those walks (how much of the seed's own opinion
  survives ``i`` hops of agreement/disagreement mixing);
* ``sc_i(u)`` — the contribution of intermediate nodes to the opinion change
  of the walk's endpoint.

The recurrences follow Algorithm 5 line by line; for a single path the score
equals the closed-form effective opinion spread of Lemma 8 (verified by the
test suite through Lemma 9).  The complexity matches EaSyIM:
``O(l (m + n))`` time and ``O(n)`` additional space.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.algorithms.easyim import (
    DEFAULT_MAX_PATH_LENGTH,
    edge_sources,
    resolve_edge_probabilities,
)
from repro.algorithms.score_greedy import ScoreGreedySelector
from repro.diffusion.base import DiffusionModel
from repro.diffusion.registry import base_model_layer
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph
from repro.scoring.engine import DEFAULT_FALLBACK_FRACTION, ScoreEngine, osim_psi
from repro.utils.rng import RandomState


def osim_scores(
    graph: CompiledGraph,
    active: Optional[np.ndarray] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    weighting: str = "ic",
    model: Optional[str] = None,
) -> np.ndarray:
    """Assign OSIM scores ``Delta_l`` to every node (Algorithm 5).

    The graph's ``opinions`` array provides :math:`o_v` (unannotated graphs
    score as all-zero opinions) and the per-edge ``interaction`` array
    provides :math:`\\varphi_{(u,v)}` — except under ``model="oc"``, which
    has no interaction term and scores every edge as ``phi = 1``
    (:func:`~repro.scoring.engine.osim_psi`).
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
    edge_mask = (~active[targets]).astype(np.float64)
    opinions = graph.opinions

    # psi = (2*phi - 1) / 2 — the expected signed retention of the upstream
    # opinion across one interaction (agreement contributes +o, disagreement -o).
    psi = osim_psi(graph, model)

    alpha_prev = np.ones(n, dtype=np.float64)
    or_prev = opinions.astype(np.float64).copy()
    sc_prev = np.zeros(n, dtype=np.float64)
    delta = np.zeros(n, dtype=np.float64)

    for _ in range(max_path_length):
        weighted = probabilities * edge_mask
        or_cur = np.bincount(
            sources, weights=weighted * or_prev[targets], minlength=n
        )
        alpha_cur = np.bincount(
            sources, weights=weighted * alpha_prev[targets] * psi, minlength=n
        )
        sc_cur = np.bincount(
            sources, weights=weighted * sc_prev[targets], minlength=n
        )
        sc_cur = sc_cur + opinions * alpha_cur
        delta = delta + (or_cur + sc_cur + opinions * alpha_cur) / 2.0
        or_prev, alpha_prev, sc_prev = or_cur, alpha_cur, sc_cur
    return delta


class OSIMSelector(ScoreGreedySelector):
    """ScoreGREEDY with OSIM score assignment — the paper's MEO heuristic.

    By default selection runs on the incremental
    :class:`~repro.scoring.engine.ScoreEngine` (which also fuses OSIM's three
    per-hop scatters into one stacked pass); pass ``incremental=False`` for
    the historical full-recompute driver (identical seed sets, asserted by
    the test suite).
    """

    name = "osim"
    opinion_aware = True

    def __init__(
        self,
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        model: Union[str, DiffusionModel] = "oi-ic",
        weighting: Optional[str] = None,
        update_strategy: str = "single",
        update_simulations: int = 10,
        seed: RandomState = None,
        incremental: bool = True,
        fallback_fraction: Optional[float] = None,
    ) -> None:
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
            return osim_scores(
                graph,
                active=active,
                max_path_length=self.max_path_length,
                weighting=self.weighting,
                model=model_name,
            )

        def engine_factory(graph: CompiledGraph) -> ScoreEngine:
            return ScoreEngine(
                graph,
                algorithm="osim",
                max_path_length=self.max_path_length,
                weighting=self.weighting,
                fallback_fraction=self.fallback_fraction,
                model=model_name,
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
            f"OSIMSelector(max_path_length={self.max_path_length}, "
            f"weighting={self.weighting!r}, incremental={self.incremental})"
        )
