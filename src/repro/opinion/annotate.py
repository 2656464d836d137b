"""Random annotation of opinions and interactions on benchmark graphs.

The classical IM benchmark graphs carry no opinion or interaction data, so the
paper (Sec. 4.1.3) annotates them synthetically:

* node opinions either uniformly at random in ``[-1, 1]`` or from the standard
  normal distribution (clipped to ``[-1, 1]``);
* edge interaction probabilities uniformly at random in ``[0, 1]``.

:func:`annotate_opinions` and :func:`annotate_interactions` implement those
schemes plus a few extras (constant values, positive-only) that the examples
and ablations use.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomState, ensure_rng

#: Named opinion-generation schemes.
OPINION_SCHEMES = ("uniform", "normal", "positive", "constant")

#: Named interaction-generation schemes.
INTERACTION_SCHEMES = ("uniform", "constant", "agreeable")


def annotate_opinions(
    graph: DiGraph,
    scheme: str = "uniform",
    constant: float = 1.0,
    seed: RandomState = None,
) -> Dict[object, float]:
    """Assign an opinion to every node of ``graph`` in place.

    Parameters
    ----------
    scheme:
        ``"uniform"`` — ``o ~ U(-1, 1)`` (the paper's first scheme);
        ``"normal"`` — ``o ~ N(0, 1)`` clipped to ``[-1, 1]`` (second scheme);
        ``"positive"`` — ``o ~ U(0, 1)``;
        ``"constant"`` — every node gets ``constant``.
    constant:
        Value used by the ``"constant"`` scheme.

    Returns the mapping node -> opinion for convenience.
    """
    if scheme not in OPINION_SCHEMES:
        raise ConfigurationError(
            f"unknown opinion scheme {scheme!r}; expected one of {OPINION_SCHEMES}"
        )
    rng = ensure_rng(seed)
    n = graph.number_of_nodes
    if scheme == "uniform":
        values = rng.uniform(-1.0, 1.0, size=n)
    elif scheme == "normal":
        values = np.clip(rng.normal(0.0, 1.0, size=n), -1.0, 1.0)
    elif scheme == "positive":
        values = rng.uniform(0.0, 1.0, size=n)
    else:
        if not -1.0 <= constant <= 1.0:
            raise ConfigurationError(
                f"constant opinion must lie in [-1, 1], got {constant}"
            )
        values = np.full(n, constant)
    assigned: Dict[object, float] = {}
    for node, value in zip(graph.nodes(), values):
        graph.set_opinion(node, float(value))
        assigned[node] = float(value)
    return assigned


def annotate_interactions(
    graph: DiGraph,
    scheme: str = "uniform",
    constant: float = 1.0,
    seed: RandomState = None,
) -> int:
    """Assign an interaction probability to every edge of ``graph`` in place.

    Parameters
    ----------
    scheme:
        ``"uniform"`` — ``phi ~ U(0, 1)`` (the paper's scheme);
        ``"constant"`` — every edge gets ``constant``;
        ``"agreeable"`` — ``phi ~ U(0.5, 1)``, modelling populations that
        mostly agree (used by an ablation benchmark).
    constant:
        Value used by the ``"constant"`` scheme.

    Returns the number of annotated edges.  The random schemes draw one
    vector of ``number_of_edges`` values, assigned in :meth:`DiGraph.edges`
    order; it equals one scalar draw per edge in that order.
    """
    if scheme not in INTERACTION_SCHEMES:
        raise ConfigurationError(
            f"unknown interaction scheme {scheme!r}; expected one of {INTERACTION_SCHEMES}"
        )
    if scheme == "constant" and not 0.0 <= constant <= 1.0:
        raise ConfigurationError(
            f"constant interaction must lie in [0, 1], got {constant}"
        )
    rng = ensure_rng(seed)
    edges = [data for _, _, data in graph.edges()]
    if scheme == "constant":
        values = [float(constant)] * len(edges)
    else:
        low = 0.0 if scheme == "uniform" else 0.5
        values = rng.uniform(low, 1.0, size=len(edges)).tolist()
    for data, value in zip(edges, values):
        data.interaction = value
    return len(edges)


def annotate_graph(
    graph: DiGraph,
    opinion: Union[str, None] = "uniform",
    interaction: Union[str, None] = "uniform",
    seed: RandomState = None,
) -> DiGraph:
    """Annotate both opinions and interactions with one call (in place).

    ``opinion`` / ``interaction`` may be ``None`` to skip that annotation.
    Returns the graph to allow chaining.
    """
    rng = ensure_rng(seed)
    if opinion is not None:
        annotate_opinions(graph, scheme=opinion, seed=rng)
    if interaction is not None:
        annotate_interactions(graph, scheme=interaction, seed=rng)
    return graph
