"""Name-based lookup of diffusion models.

The public API, the CLI and the benchmark harness refer to models by short
string identifiers; :func:`get_model` turns those identifiers into configured
model instances.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict

from repro.diffusion.base import DiffusionModel
from repro.diffusion.icn import ICNModel
from repro.diffusion.independent_cascade import IndependentCascadeModel
from repro.diffusion.linear_threshold import LinearThresholdModel
from repro.diffusion.live_edge import LiveEdgeModel
from repro.diffusion.oc import OCModel
from repro.diffusion.opinion_interaction import OpinionInteractionModel
from repro.diffusion.weighted_cascade import WeightedCascadeModel
from repro.exceptions import ConfigurationError

_FACTORIES: Dict[str, Callable[..., DiffusionModel]] = {
    "ic": IndependentCascadeModel,
    "wc": WeightedCascadeModel,
    "lt": LinearThresholdModel,
    "lt-live-edge": LiveEdgeModel,
    "oi-ic": lambda: OpinionInteractionModel("ic"),
    "oi-wc": lambda: OpinionInteractionModel("wc"),
    "oi-lt": lambda: OpinionInteractionModel("lt"),
    "icn": ICNModel,
    "oc": OCModel,
}

#: Models whose spread definition is opinion-aware.
OPINION_AWARE_MODELS = frozenset({"oi-ic", "oi-wc", "oi-lt", "icn", "oc"})


def base_model_layer(model_name: str) -> str:
    """The ic/wc/lt activation layer a (possibly opinion-aware) model runs on.

    EaSyIM, OSIM and the ``score`` estimator weight their walks under this
    layer.  ``oi-lt`` and ``lt-live-edge`` map to ``lt``, ``oi-wc`` to
    ``wc``, and ``oc`` to ``lt`` because OC activates under Linear Threshold
    (:mod:`repro.diffusion.oc`).  Everything else (``oi-ic``, ``icn``,
    ``ic`` itself) maps to ``ic``.
    """
    name = str(model_name).lower()
    if name == "oc":
        return "lt"
    # Match by name segment, not suffix: "lt-live-edge" is an LT-equivalent
    # sampler, not an IC variant.
    parts = name.split("-")
    if "lt" in parts:
        return "lt"
    if "wc" in parts:
        return "wc"
    return "ic"


def available_models() -> list[str]:
    """Sorted list of the registered model identifiers."""
    return sorted(_FACTORIES)


def get_model(name: str, **kwargs: object) -> DiffusionModel:
    """Instantiate the diffusion model registered under ``name``.

    Keyword arguments are forwarded to the model constructor (e.g.
    ``get_model("icn", quality_factor=0.8)``); one the constructor does not
    accept raises :class:`~repro.exceptions.ConfigurationError`.
    """
    if isinstance(name, DiffusionModel):
        return name
    key = str(name).lower()
    if key not in _FACTORIES:
        raise ConfigurationError(
            f"unknown diffusion model {name!r}; available: {', '.join(available_models())}"
        )
    factory = _FACTORIES[key]
    try:
        inspect.signature(factory).bind(**kwargs)
    except TypeError as error:
        raise ConfigurationError(
            f"model {name!r} does not accept parameters {kwargs}: {error}"
        ) from None
    return factory(**kwargs)
