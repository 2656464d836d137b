"""The Weighted Cascade (WC) model.

WC is the IC model with the activation probability of every edge ``(u, v)``
fixed to ``1 / in_degree(v)`` (Sec. 3.3 of the paper).  The probabilities are
derived from the compiled graph's in-degrees (and cached on it), so the same
graph object can be used under IC and WC without re-annotation.
"""

from __future__ import annotations

from repro.diffusion.independent_cascade import IndependentCascadeModel


class WeightedCascadeModel(IndependentCascadeModel):
    """IC with ``p_(u,v) = 1 / in_degree(v)``."""

    name = "wc"
    weighting = "wc"
