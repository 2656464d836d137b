"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can distinguish library failures from programming errors with a single
``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class GraphError(ReproError):
    """Raised for structural problems with graphs (bad nodes, bad edges)."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) is not in the graph")
        self.source = source
        self.target = target


class GraphConstructionError(GraphError, ValueError):
    """Raised when graph-building input (edge lists, CSR arrays) is malformed.

    Keeps ``ValueError`` as a base because builder callers historically
    caught that.
    """


class ConfigurationError(ReproError, ValueError):
    """Raised when a model, algorithm or problem receives invalid parameters."""


class RNGError(ReproError, TypeError):
    """Raised when a seed argument is not one of the accepted spellings.

    ``TypeError`` stays a base: passing a float (or a foreign RNG object)
    where ``None | int | numpy.random.Generator`` is expected is a typing
    mistake, and callers may reasonably catch it as such.
    """


class LifecycleError(ReproError, RuntimeError):
    """Raised when a stateful utility is used out of order.

    Covers wrong-state transitions such as starting an already-running
    timer or reading a measurement that has not finished; ``RuntimeError``
    stays a base for existing callers.
    """


class SketchError(ReproError, ValueError):
    """Raised for structural problems in an RR-sketch collection.

    Malformed CSR membership arrays, inconsistent ``indptr`` boundaries
    and the like; ``ValueError`` stays a base for existing callers.
    """


class SketchIndexError(ReproError, IndexError):
    """Raised when an RR-set index is outside the collection's range."""


class MissingAnnotationError(ReproError, KeyError):
    """Raised when an opinion-aware component runs on an unannotated graph.

    Opinion-aware diffusion (the OI model and its baselines) requires node
    opinions and edge interaction probabilities; this error explains which of
    the two annotations is missing.
    """

    def __init__(self, what: str) -> None:
        super().__init__(
            f"graph is missing the {what!r} annotation; call "
            "repro.opinion.annotate_opinions() or set it explicitly"
        )
        self.what = what


class DatasetError(ReproError, ValueError):
    """Raised when a named dataset cannot be located or generated."""


class AlgorithmError(ReproError, RuntimeError):
    """Raised when a seed-selection algorithm fails to produce a seed set."""


class ServingError(ReproError, RuntimeError):
    """Raised by the serving layer (artifact store, influence index, service)."""


class IndexArtifactError(ServingError):
    """Raised when a persisted influence-index artifact is malformed."""


class ArtifactCorruptError(IndexArtifactError):
    """Raised when an artifact's payload fails its sha256 checksum.

    Distinct from the parent so a caller can tell bit-rot in a well-formed
    file from a merely *malformed* file (wrong format, foreign schema).
    """

    def __init__(self, path: object, detail: str) -> None:
        super().__init__(
            f"artifact {path} is corrupt: {detail}; restore it from a backup "
            f"or rebuild it with `repro index build`"
        )
        self.path = path


class IndexMismatchError(ServingError):
    """Raised when an index artifact's provenance doesn't match the graph.

    An influence index is only valid for the exact graph it was sampled on;
    serving a stale index against a modified graph would silently return
    wrong seeds, so the mismatch (content fingerprint, model, node count) is
    rejected instead.
    """


class ExecutionError(ReproError, RuntimeError):
    """Raised by the supervised execution runtime (:mod:`repro.runtime`).

    Covers the parallel build machinery: worker pools, crash replay and
    checkpoint/resume.  ``RuntimeError`` stays a base so callers that
    treat pool failures as generic runtime faults keep working.
    """


class TaskFailedError(ExecutionError):
    """Raised when a task raises a real exception inside a worker.

    Distinct from a worker *crash* (process death), whose unfinished blocks
    are replayed in the parent: an in-task exception is itself
    deterministic — the replay invariant guarantees a retry would raise it
    again — so the pool surfaces it immediately instead of replaying it.
    """

    def __init__(self, label: str, detail: str) -> None:
        super().__init__(f"task {label} failed in a worker: {detail}")
        self.label = label
        self.detail = detail


class CheckpointError(ExecutionError):
    """Raised when a checkpoint manifest does not match the requested build.

    A checkpoint is only resumable into the *exact* build that wrote it
    (same graph fingerprint, model, engine seed, block size and numpy
    stream); resuming across any of those would silently break the
    resumed == uninterrupted guarantee, so the mismatch is refused.
    """


class ExecutionInterrupted(ExecutionError):
    """Raised when a build stops at a clean block boundary after a signal.

    SIGINT/SIGTERM handling requests a *cooperative* stop: the current
    block finishes, the partial state is checkpointable, and this error
    reports how far the build got so the CLI can print a resume command.
    """

    def __init__(self, stage: str, completed: int) -> None:
        super().__init__(
            f"interrupted at stage {stage!r} after {completed} completed "
            "unit(s); partial progress was kept for --resume"
        )
        self.stage = stage
        self.completed = completed


class SpecError(ConfigurationError):
    """Raised when a declarative experiment spec fails validation.

    Messages are schema-style: they lead with the dotted path of the
    offending field (``experiment.graph.scale: must be > 0, got -1``) so a
    spec author can locate the problem in a JSON document directly.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class LintError(ReproError, RuntimeError):
    """Raised by :mod:`repro.devtools` for unusable lint input.

    Covers unparsable source, malformed ``# repro: noqa[...]`` comments
    and missing lint targets — *not* rule violations, which are reported
    as findings, never exceptions.
    """


class BudgetError(ConfigurationError):
    """Raised when the seed budget ``k`` is not satisfiable for the graph."""

    def __init__(self, budget: int, population: int) -> None:
        super().__init__(
            f"budget k={budget} exceeds the number of selectable nodes "
            f"({population})"
        )
        self.budget = budget
        self.population = population
