"""Name-based lookup of seed-selection algorithms, with capability metadata.

Mirrors :mod:`repro.diffusion.registry` for algorithms: the public API, the
CLI and the benchmark harness ask for algorithms by short string identifiers
and pass configuration as keyword arguments.

Each registry entry is an :class:`AlgorithmInfo` declaring what the
algorithm's constructor understands (model / objective / penalty / seed /
...), so :func:`repro.api.build_selector` injects context by *capability*
instead of maintaining hard-coded name sets.  ``supported_models`` restricts
which diffusion models an algorithm accepts (``None`` means any registered
model); the RIS algorithms only sample the opinion-oblivious ic/wc/lt
layers, so an opinion-aware experiment names the layer explicitly
(``algorithm.options.model``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.algorithms.base import SeedSelector
from repro.algorithms.degree import (
    DegreeDiscountSelector,
    HighDegreeSelector,
    SingleDiscountSelector,
)
from repro.algorithms.easyim import EaSyIMSelector
from repro.algorithms.greedy import CELFPlusPlusSelector, CELFSelector, GreedySelector
from repro.algorithms.imm import IMMSelector
from repro.algorithms.irie import IRIESelector
from repro.algorithms.modified_greedy import ModifiedGreedySelector
from repro.algorithms.osim import OSIMSelector
from repro.algorithms.pagerank import PageRankSelector
from repro.algorithms.path_union import PathUnionSelector
from repro.algorithms.random_seeds import RandomSelector
from repro.algorithms.simpath import SimPathSelector
from repro.algorithms.tim import TIMPlusSelector
from repro.exceptions import ConfigurationError
from repro.sketches.sampler import SUPPORTED_MODELS as _RIS_SUPPORTED_MODELS

#: The opinion-oblivious base layers the RIS stack samples under (the one
#: definition lives with the sampler; this is the set view capability
#: metadata uses).
RIS_MODELS = frozenset(_RIS_SUPPORTED_MODELS)


@dataclass(frozen=True)
class AlgorithmInfo:
    """Constructor capabilities of one registered seed-selection algorithm."""

    name: str
    cls: Type[SeedSelector]
    #: Accepts a ``model=`` keyword (string name or model instance).
    model_aware: bool = False
    #: Accepts an ``objective=`` keyword (spread / opinion / effective-opinion).
    objective_aware: bool = False
    #: Accepts a ``penalty=`` keyword (the MEO lambda).
    penalty_aware: bool = False
    #: Accepts a ``seed=`` keyword controlling the selector's own RNG.
    seedable: bool = False
    #: Accepts a ``simulations=`` keyword (Monte-Carlo greedy family).
    simulation_aware: bool = False
    #: Accepts a ``max_path_length=`` keyword (the paper's ``l``).
    path_length_aware: bool = False
    #: Accepts ``incremental=`` / ``fallback_fraction=`` (score engine).
    incremental: bool = False
    #: Optimises an opinion-aware objective out of the box.
    opinion_aware: bool = False
    #: Diffusion models the algorithm accepts; ``None`` means any registered.
    supported_models: Optional[frozenset] = None
    #: Accepts a ``max_rr_sets=`` keyword (RIS sampling cap).
    rr_set_aware: bool = False


_REGISTRY: Dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo("random", RandomSelector, seedable=True),
        AlgorithmInfo("high-degree", HighDegreeSelector),
        AlgorithmInfo("single-discount", SingleDiscountSelector),
        AlgorithmInfo("degree-discount", DegreeDiscountSelector),
        AlgorithmInfo("pagerank", PageRankSelector),
        AlgorithmInfo(
            "greedy", GreedySelector,
            model_aware=True, objective_aware=True, penalty_aware=True,
            seedable=True, simulation_aware=True,
        ),
        AlgorithmInfo(
            "celf", CELFSelector,
            model_aware=True, objective_aware=True, penalty_aware=True,
            seedable=True, simulation_aware=True,
        ),
        AlgorithmInfo(
            "celf++", CELFPlusPlusSelector,
            model_aware=True, objective_aware=True, penalty_aware=True,
            seedable=True, simulation_aware=True,
        ),
        AlgorithmInfo(
            "modified-greedy", ModifiedGreedySelector,
            model_aware=True, penalty_aware=True, seedable=True,
            simulation_aware=True, opinion_aware=True,
        ),
        AlgorithmInfo(
            "easyim", EaSyIMSelector,
            model_aware=True, seedable=True, path_length_aware=True,
            incremental=True,
        ),
        AlgorithmInfo(
            "osim", OSIMSelector,
            model_aware=True, seedable=True, path_length_aware=True,
            incremental=True, opinion_aware=True,
        ),
        AlgorithmInfo(
            "path-union", PathUnionSelector,
            model_aware=True, seedable=True, path_length_aware=True,
        ),
        AlgorithmInfo("irie", IRIESelector),
        AlgorithmInfo("simpath", SimPathSelector),
        AlgorithmInfo(
            "tim+", TIMPlusSelector,
            model_aware=True, seedable=True, supported_models=RIS_MODELS,
            rr_set_aware=True,
        ),
        AlgorithmInfo(
            "imm", IMMSelector,
            model_aware=True, seedable=True, supported_models=RIS_MODELS,
            rr_set_aware=True,
        ),
    )
}

#: Algorithms that optimise an opinion-aware objective out of the box
#: (derived from the capability metadata; kept for backwards compatibility).
OPINION_AWARE_ALGORITHMS = frozenset(
    name for name, info in _REGISTRY.items() if info.opinion_aware
)


def available_algorithms() -> list[str]:
    """Sorted list of the registered algorithm identifiers."""
    return sorted(_REGISTRY)


def algorithm_info(name: str) -> AlgorithmInfo:
    """Capability metadata for the algorithm registered under ``name``."""
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        )
    return _REGISTRY[key]


def algorithm_capabilities() -> Dict[str, Dict[str, object]]:
    """Capability table for every registered algorithm (docs / CLI / specs).

    Flags that are ``False`` and an unrestricted ``supported_models`` are
    omitted, so the table reads as "what is special about this algorithm".
    """
    table: Dict[str, Dict[str, object]] = {}
    for name in available_algorithms():
        info = _REGISTRY[name]
        row: Dict[str, object] = {}
        for flag in (
            "model_aware", "objective_aware", "penalty_aware", "seedable",
            "simulation_aware", "path_length_aware", "incremental",
            "opinion_aware", "rr_set_aware",
        ):
            if getattr(info, flag):
                row[flag] = True
        if info.supported_models is not None:
            row["supported_models"] = sorted(info.supported_models)
        table[name] = row
    return table


def check_model_support(name: str, model_name: str) -> None:
    """Raise :class:`ConfigurationError` if ``name`` rejects ``model_name``.

    The error lists the models the algorithm does support, per the
    capability metadata.
    """
    info = algorithm_info(name)
    if info.supported_models is not None and model_name not in info.supported_models:
        raise ConfigurationError(
            f"algorithm {info.name!r} only supports the "
            f"{'/'.join(sorted(info.supported_models))} models, got "
            f"{model_name!r}; pick one of those or an algorithm without the "
            "restriction (see repro.algorithms.registry.algorithm_capabilities())"
        )


def get_algorithm(name: str, **kwargs: object) -> SeedSelector:
    """Instantiate the algorithm registered under ``name`` with ``kwargs``."""
    if isinstance(name, SeedSelector):
        return name
    return algorithm_info(name).cls(**kwargs)  # type: ignore[arg-type]
