"""Declarative experiment specifications (see :mod:`repro.specs.experiment`).

The spec layer is deliberately free of backend imports at module load time:
a spec is data, and validating one touches only the registries it names.
Execution lives in :mod:`repro.api`.
"""

from repro.specs.experiment import (
    ESTIMATOR_BACKENDS,
    OBJECTIVES,
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
    load_experiment_spec,
)

__all__ = [
    "AlgorithmSpec",
    "ESTIMATOR_BACKENDS",
    "EstimatorSpec",
    "EvalSpec",
    "ExperimentSpec",
    "GraphSpec",
    "ModelSpec",
    "OBJECTIVES",
    "load_experiment_spec",
]
