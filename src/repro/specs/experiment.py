"""Typed, validated, JSON-round-trippable experiment specifications.

One :class:`ExperimentSpec` is the single declarative description of an
experiment: which graph, which diffusion model, which seed-selection
algorithm (or a fixed seed set), and how the result is estimated.  The
design follows the declarative graph-extraction interface of
Xirogiannopoulos & Deshpande (VLDB'17): the *what* of an experiment is a
plain, serialisable document; the *how* (which backend executes it) is
negotiated at run time from capability metadata.

Every spec class offers ``to_dict``/``from_dict`` (plain JSON types only)
and the pair round-trips exactly: ``Spec.from_dict(spec.to_dict()) ==
spec``.  Validation failures raise :class:`~repro.exceptions.SpecError`
whose message leads with the dotted path of the offending field
(``experiment.evaluation.estimator.theta: must be >= 1, got 0``), so an
error in a JSON document can be located without reading Python code.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.exceptions import SpecError

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from repro.diffusion.base import DiffusionModel
    from repro.graphs.digraph import DiGraph

_S = TypeVar("_S", bound="_SpecBase")

#: Canonical estimator backend identifiers, in documentation order.
ESTIMATOR_BACKENDS = ("monte-carlo", "sketch", "score")

#: Objectives a spec may ask an estimator for (Defs. 3, 6 and 7 of the paper).
OBJECTIVES = ("spread", "opinion", "effective-opinion")

def _type_name(value: object) -> str:
    return type(value).__name__


def _check_mapping(data: object, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SpecError(path, f"expected an object, got {_type_name(data)}")
    return data


def _reject_unknown(data: Mapping, known: Sequence[str], path: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SpecError(
            path,
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(sorted(known))}",
        )


def _require_type(
    value: object,
    types: Union[type, Tuple[type, ...]],
    path: str,
    what: str,
) -> object:
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise SpecError(path, f"must be {what}, got {value!r}")
    if not isinstance(value, types):
        raise SpecError(path, f"must be {what}, got {_type_name(value)}")
    return value


def _validate_label(value: Union[int, str], path: str) -> Union[int, str]:
    """Node labels are JSON scalars: ints or strings."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SpecError(
            path, f"node labels must be integers or strings, got {_type_name(value)}"
        )
    return value


class _SpecBase:
    """Shared ``to_dict``/JSON plumbing for all spec dataclasses."""

    _path = "spec"

    @classmethod
    def _construct(cls: "type[_S]", kwargs: Mapping, path: str) -> "_S":
        """Build the spec, re-rooting validation errors at ``path``.

        ``__post_init__`` validation reports paths relative to the class's
        default root (e.g. ``graph.scale``); when the spec is nested inside
        a larger document the error must carry the full dotted path
        (``experiment.graph.scale``).
        """
        try:
            return cls(**dict(kwargs))
        except SpecError as error:
            default = cls._path
            if path != default and error.path.startswith(default):
                suffix = error.path[len(default):]
                message = str(error)[len(error.path) + 2:]
                raise SpecError(path + suffix, message) from None
            raise
        except TypeError as error:
            raise SpecError(path, str(error))

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON-types dictionary; nested specs become nested objects."""
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif isinstance(value, (list, tuple)):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls: "type[_S]", text: str) -> "_S":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(cls._path, f"invalid JSON document ({error})")
        return cls.from_dict(data)

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        target = pathlib.Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls: "type[_S]", path: Union[str, pathlib.Path]) -> "_S":
        source = pathlib.Path(path)
        if not source.exists():
            raise SpecError(cls._path, f"spec file {str(source)!r} does not exist")
        return cls.from_json(source.read_text(encoding="utf-8"))


@dataclass
class GraphSpec(_SpecBase):
    """Where the experiment graph comes from and how it is annotated.

    Exactly one of ``dataset`` (a name from the synthetic dataset registry)
    or ``edge_list`` (a path to an edge-list file) must be given.
    """

    _path = "graph"

    dataset: Optional[str] = None
    edge_list: Optional[str] = None
    scale: float = 1.0
    seed: int = 0
    probability: Optional[float] = None
    annotate: bool = False
    opinion: str = "uniform"
    interaction: str = "uniform"
    annotation_seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "graph") -> None:
        if (self.dataset is None) == (self.edge_list is None):
            raise SpecError(
                path,
                "exactly one of 'dataset' and 'edge_list' must be set",
            )
        if self.dataset is not None:
            _require_type(self.dataset, str, f"{path}.dataset", "a string")
            from repro.datasets.registry import available_datasets

            if self.dataset not in available_datasets():
                raise SpecError(
                    f"{path}.dataset",
                    f"unknown dataset {self.dataset!r}; available: "
                    f"{', '.join(available_datasets())}",
                )
        if self.edge_list is not None:
            _require_type(self.edge_list, str, f"{path}.edge_list", "a string path")
        _require_type(self.scale, (int, float), f"{path}.scale", "a number")
        self.scale = float(self.scale)
        if self.scale <= 0:
            raise SpecError(f"{path}.scale", f"must be > 0, got {self.scale}")
        self.seed = int(_require_type(self.seed, int, f"{path}.seed", "an integer"))
        if self.probability is not None:
            _require_type(
                self.probability, (int, float), f"{path}.probability", "a number"
            )
            self.probability = float(self.probability)
            if not 0.0 < self.probability <= 1.0:
                raise SpecError(
                    f"{path}.probability",
                    f"must lie in (0, 1], got {self.probability}",
                )
        _require_type(self.annotate, bool, f"{path}.annotate", "a boolean")
        _require_type(self.opinion, str, f"{path}.opinion", "a string")
        _require_type(self.interaction, str, f"{path}.interaction", "a string")
        if self.annotation_seed is not None:
            self.annotation_seed = int(
                _require_type(
                    self.annotation_seed, int, f"{path}.annotation_seed", "an integer"
                )
            )

    @classmethod
    def from_dict(cls, data: object, path: str = "graph") -> "GraphSpec":
        mapping = _check_mapping(data, path)
        _reject_unknown(mapping, [f.name for f in dataclasses.fields(cls)], path)
        return cls._construct(mapping, path)

    def build(self) -> "DiGraph":
        """Materialise the graph this spec describes (with annotations).

        (Named ``build`` like :meth:`ModelSpec.build`; the inherited
        ``GraphSpec.load(path)`` classmethod reads a spec *file*.)
        """
        if self.dataset is not None:
            from repro.datasets.registry import load_dataset

            graph = load_dataset(
                self.dataset,
                scale=self.scale,
                seed=self.seed,
                probability=self.probability,
            )
        else:
            from repro.graphs.io import read_edge_list

            graph = read_edge_list(self.edge_list)
        if self.annotate:
            from repro.opinion.annotate import annotate_graph

            annotate_graph(
                graph,
                opinion=self.opinion,
                interaction=self.interaction,
                seed=self.seed if self.annotation_seed is None else self.annotation_seed,
            )
        return graph


@dataclass
class ModelSpec(_SpecBase):
    """Diffusion model name plus constructor parameters."""

    _path = "model"

    name: str = "ic"
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "model") -> None:
        _require_type(self.name, str, f"{path}.name", "a string")
        self.name = self.name.lower()
        from repro.diffusion.registry import available_models

        if self.name not in available_models():
            raise SpecError(
                f"{path}.name",
                f"unknown diffusion model {self.name!r}; available: "
                f"{', '.join(available_models())}",
            )
        self.params = dict(
            _check_mapping(self.params, f"{path}.params")
        )

    @classmethod
    def from_dict(cls, data: object, path: str = "model") -> "ModelSpec":
        if isinstance(data, str):
            # Shorthand: "model": "oi-ic"
            return cls._construct({"name": data}, path)
        mapping = _check_mapping(data, path)
        _reject_unknown(mapping, [f.name for f in dataclasses.fields(cls)], path)
        return cls._construct(mapping, path)

    def build(self) -> "DiffusionModel":
        """Instantiate the diffusion model."""
        from repro.diffusion.registry import get_model

        return get_model(self.name, **self.params)


@dataclass
class AlgorithmSpec(_SpecBase):
    """Seed-selection algorithm name plus constructor options.

    Options the algorithm's constructor does not understand fail at build
    time; capability-driven context (model / objective / penalty / seed) is
    injected by the runner only where the registry metadata says the
    algorithm accepts it, and never overrides an explicit option.
    """

    _path = "algorithm"

    name: str = "easyim"
    options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "algorithm") -> None:
        _require_type(self.name, str, f"{path}.name", "a string")
        self.name = self.name.lower()
        from repro.algorithms.registry import available_algorithms

        if self.name not in available_algorithms():
            raise SpecError(
                f"{path}.name",
                f"unknown algorithm {self.name!r}; available: "
                f"{', '.join(available_algorithms())}",
            )
        self.options = dict(_check_mapping(self.options, f"{path}.options"))

    @classmethod
    def from_dict(cls, data: object, path: str = "algorithm") -> "AlgorithmSpec":
        if isinstance(data, str):
            # Shorthand: "algorithm": "tim+"
            return cls._construct({"name": data}, path)
        mapping = _check_mapping(data, path)
        _reject_unknown(mapping, [f.name for f in dataclasses.fields(cls)], path)
        return cls._construct(mapping, path)


@dataclass
class EstimatorSpec(_SpecBase):
    """Which spread-estimation backend answers ``estimate``/``sweep``.

    Backends (see :mod:`repro.api` for the adapters):

    ``monte-carlo``
        The batch Monte-Carlo engine — any model, any objective; the only
        backend ``workers`` applies to.
    ``sketch``
        An RR-sketch :class:`~repro.serving.index.InfluenceIndex` (the RIS
        oracle), loaded from ``artifact`` (memory-mapped unless ``mmap`` is
        false) or sampled in memory at ``theta`` — ic/wc/lt, spread only.
    ``score``
        The incremental :class:`~repro.scoring.engine.ScoreEngine` —
        EaSyIM/OSIM residual path scores, a fast *heuristic* proxy that is
        not sigma-comparable with the other backends.

    ``block_size`` sets the RR sets per sampler call of the ``sketch``
    backend; at most 1024 of them are in flight at once, so the sampler's
    visited buffer is ``min(block_size, 1024) * n`` bytes.  The sampled
    sets do not depend on it.
    """

    _path = "estimator"

    backend: str = "monte-carlo"
    simulations: int = 1000
    theta: int = 20_000
    block_size: int = 2048
    engine_seed: int = 0
    workers: int = 1
    artifact: Optional[str] = None
    mmap: bool = True
    max_path_length: int = 3

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "estimator") -> None:
        _require_type(self.backend, str, f"{path}.backend", "a string")
        backend = self.backend.lower()
        if backend not in ESTIMATOR_BACKENDS:
            raise SpecError(
                f"{path}.backend",
                f"unknown backend {self.backend!r}; available: "
                f"{', '.join(ESTIMATOR_BACKENDS)}",
            )
        self.backend = backend
        for name in ("simulations", "theta", "block_size", "max_path_length", "workers"):
            value = int(
                _require_type(getattr(self, name), int, f"{path}.{name}", "an integer")
            )
            setattr(self, name, value)
            if value < 1:
                raise SpecError(f"{path}.{name}", f"must be >= 1, got {value}")
        self.engine_seed = int(
            _require_type(self.engine_seed, int, f"{path}.engine_seed", "an integer")
        )
        if self.artifact is not None:
            _require_type(self.artifact, str, f"{path}.artifact", "a string path")
            if self.backend != "sketch":
                raise SpecError(
                    f"{path}.artifact",
                    f"artifacts are only meaningful for the 'sketch' backend, "
                    f"got backend {self.backend!r}",
                )
        _require_type(self.mmap, bool, f"{path}.mmap", "a boolean")

    @classmethod
    def from_dict(cls, data: object, path: str = "estimator") -> "EstimatorSpec":
        if isinstance(data, str):
            # Shorthand: "estimator": "sketch"
            return cls._construct({"backend": data}, path)
        mapping = _check_mapping(data, path)
        _reject_unknown(mapping, [f.name for f in dataclasses.fields(cls)], path)
        return cls._construct(mapping, path)


@dataclass
class EvalSpec(_SpecBase):
    """What to report about the selected seeds, and how to estimate it."""

    _path = "evaluation"

    objective: str = "spread"
    penalty: float = 1.0
    seed_counts: Optional[List[int]] = None
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "evaluation") -> None:
        _require_type(self.objective, str, f"{path}.objective", "a string")
        self.objective = self.objective.lower()
        if self.objective not in OBJECTIVES:
            raise SpecError(
                f"{path}.objective",
                f"unknown objective {self.objective!r}; available: "
                f"{', '.join(OBJECTIVES)}",
            )
        _require_type(self.penalty, (int, float), f"{path}.penalty", "a number")
        self.penalty = float(self.penalty)
        if self.penalty < 0:
            raise SpecError(f"{path}.penalty", f"must be >= 0, got {self.penalty}")
        if self.seed_counts is not None:
            _require_type(
                self.seed_counts, (list, tuple), f"{path}.seed_counts", "a list"
            )
            counts = []
            for i, value in enumerate(self.seed_counts):
                counts.append(
                    int(
                        _require_type(
                            value, int, f"{path}.seed_counts[{i}]", "an integer"
                        )
                    )
                )
                if counts[-1] < 0:
                    raise SpecError(
                        f"{path}.seed_counts[{i}]", f"must be >= 0, got {counts[-1]}"
                    )
            self.seed_counts = counts
        if not isinstance(self.estimator, EstimatorSpec):
            self.estimator = EstimatorSpec.from_dict(
                self.estimator, f"{path}.estimator"
            )

    @classmethod
    def from_dict(cls, data: object, path: str = "evaluation") -> "EvalSpec":
        mapping = _check_mapping(data, path)
        _reject_unknown(mapping, [f.name for f in dataclasses.fields(cls)], path)
        kwargs = dict(mapping)
        if "estimator" in kwargs:
            kwargs["estimator"] = EstimatorSpec.from_dict(
                kwargs["estimator"], f"{path}.estimator"
            )
        return cls._construct(kwargs, path)


@dataclass
class ExperimentSpec(_SpecBase):
    """The full declarative description of one experiment run.

    Exactly one of ``algorithm`` (select seeds) or ``seeds`` (evaluate a
    fixed list) must be given; ``budget`` is required with ``algorithm``.
    ``seed`` is the selection seed injected into seedable algorithms —
    distinct from ``graph.seed`` (generation) and
    ``evaluation.estimator.engine_seed`` (estimation).
    """

    _path = "experiment"

    name: str = "experiment"
    graph: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="nethept"))
    model: ModelSpec = field(default_factory=ModelSpec)
    algorithm: Optional[AlgorithmSpec] = None
    seeds: Optional[List[object]] = None
    budget: Optional[int] = None
    seed: Optional[int] = None
    evaluation: EvalSpec = field(default_factory=EvalSpec)
    notes: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "experiment") -> None:
        _require_type(self.name, str, f"{path}.name", "a string")
        if not isinstance(self.graph, GraphSpec):
            self.graph = GraphSpec.from_dict(self.graph, f"{path}.graph")
        if not isinstance(self.model, ModelSpec):
            self.model = ModelSpec.from_dict(self.model, f"{path}.model")
        if self.algorithm is not None and not isinstance(self.algorithm, AlgorithmSpec):
            self.algorithm = AlgorithmSpec.from_dict(
                self.algorithm, f"{path}.algorithm"
            )
        if not isinstance(self.evaluation, EvalSpec):
            self.evaluation = EvalSpec.from_dict(self.evaluation, f"{path}.evaluation")
        if (self.algorithm is None) == (self.seeds is None):
            raise SpecError(
                path,
                "exactly one of 'algorithm' (select seeds) and 'seeds' "
                "(evaluate a fixed seed list) must be set",
            )
        if self.seeds is not None:
            _require_type(self.seeds, (list, tuple), f"{path}.seeds", "a list")
            self.seeds = [
                _validate_label(s, f"{path}.seeds[{i}]")
                for i, s in enumerate(self.seeds)
            ]
            if self.budget is not None:
                raise SpecError(
                    f"{path}.budget",
                    "budget is implied by the explicit seed list; drop it",
                )
        if self.algorithm is not None:
            if self.budget is None:
                raise SpecError(
                    f"{path}.budget", "required when 'algorithm' is set"
                )
            self.budget = int(
                _require_type(self.budget, int, f"{path}.budget", "an integer")
            )
            if self.budget < 1:
                raise SpecError(f"{path}.budget", f"must be >= 1, got {self.budget}")
        if self.seed is not None:
            self.seed = int(
                _require_type(self.seed, int, f"{path}.seed", "an integer")
            )
        _require_type(self.notes, str, f"{path}.notes", "a string")
        counts = self.evaluation.seed_counts
        if counts is not None:
            limit = self.budget if self.budget is not None else len(self.seeds)
            for i, k in enumerate(counts):
                if k > limit:
                    raise SpecError(
                        f"{path}.evaluation.seed_counts[{i}]",
                        f"seed count {k} exceeds the available seeds ({limit})",
                    )

    @classmethod
    def from_dict(cls, data: object, path: str = "experiment") -> "ExperimentSpec":
        mapping = _check_mapping(data, path)
        _reject_unknown(mapping, [f.name for f in dataclasses.fields(cls)], path)
        kwargs = dict(mapping)
        if "graph" in kwargs:
            kwargs["graph"] = GraphSpec.from_dict(kwargs["graph"], f"{path}.graph")
        if "model" in kwargs:
            kwargs["model"] = ModelSpec.from_dict(kwargs["model"], f"{path}.model")
        if kwargs.get("algorithm") is not None:
            kwargs["algorithm"] = AlgorithmSpec.from_dict(
                kwargs["algorithm"], f"{path}.algorithm"
            )
        if "evaluation" in kwargs:
            kwargs["evaluation"] = EvalSpec.from_dict(
                kwargs["evaluation"], f"{path}.evaluation"
            )
        return cls._construct(kwargs, path)


def load_experiment_spec(path: Union[str, pathlib.Path]) -> ExperimentSpec:
    """Load and validate an :class:`ExperimentSpec` from a JSON file."""
    return ExperimentSpec.load(path)
