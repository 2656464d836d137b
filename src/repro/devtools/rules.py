"""The project-specific lint rules that tier-1 runs over ``src/``.

Each rule guards one invariant the test suite can only check on the
paths it happens to execute; see DESIGN.md ("Invariants and how they're
enforced") for the rationale and suppression policy.

Rule codes are stable and never reused; the gap after REP006 is a
retired static lock-order rule:

========  ======================  ==============================================
Code      Name                    Invariant
========  ======================  ==============================================
REP001    rng-discipline          all randomness flows through repro.utils.rng
REP002    no-wall-clock           deterministic code never reads the wall clock
REP003    exception-taxonomy      every raise uses the repro.exceptions hierarchy
REP004    no-swallowed-except     no bare/broad except that fails to re-raise
REP005    csr-immutability        CompiledGraph CSR arrays mutate only in graphs/
REP006    all-exports             __all__ present in packages, bound + complete
REP008    no-print                library code never prints (CLI/bench excepted)
REP009    telemetry-conventions   metric names are repro_-prefixed snake_case,
                                  registered via the registry (no raw dict tallies)
REP010    no-raw-pools            worker processes are spawned only through
                                  repro.runtime (SupervisedPool), never raw pools
========  ======================  ==============================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.framework import Finding, ModuleContext, Rule

__all__ = [
    "AllExportsRule",
    "CsrImmutabilityRule",
    "ExceptionTaxonomyRule",
    "NoPrintRule",
    "NoRawPoolsRule",
    "NoSwallowedExceptRule",
    "NoWallClockRule",
    "RULES",
    "RngDisciplineRule",
    "TelemetryConventionsRule",
]


def _attribute_chain(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains as a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_names(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> fully qualified origin for every import."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    origins[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return origins


class RngDisciplineRule(Rule):
    """All randomness is created in :mod:`repro.utils.rng`, nowhere else.

    Seed-set determinism across engines relies on every random draw being
    derived from an explicit seed: a SplitMix64 counter token or a
    :class:`numpy.random.Generator` threaded down from ``ensure_rng``.  A
    naked ``np.random.*`` call (even a *seeded* ``default_rng`` — module
    code must accept a Generator, not mint one) or a stdlib ``random.*``
    call reintroduces hidden global state.  Type annotations mentioning
    ``np.random.Generator`` are fine; only *calls* are flagged.
    """

    code = "REP001"

    ALLOWED_MODULES = ("repro.utils.rng",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED_MODULES):
            return
        origins = _imported_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            resolved = self._resolve(chain, origins)
            if resolved is None:
                continue
            yield self.finding(
                module,
                node,
                f"call to {resolved} — thread a Generator from "
                "repro.utils.rng.ensure_rng (or a SplitMix64 token) instead",
            )

    @staticmethod
    def _resolve(chain: str, origins: Dict[str, str]) -> Optional[str]:
        head, _, rest = chain.partition(".")
        origin = origins.get(head)
        full = f"{origin}.{rest}" if origin and rest else (origin or chain)
        if origin == "random" and rest:
            return full
        for banned in ("numpy.random.", "np.random."):
            if full.startswith(banned) or chain.startswith(banned):
                suffix = full.split("random.", 1)[1] if "random." in full else rest
                # Generator appearing in a call position is construction from
                # an explicit BitGenerator — still hidden-state-free, but all
                # construction belongs in utils/rng, so it is banned too.
                return "numpy.random." + suffix
        if origin == "numpy.random." + chain.split(".")[-1] or (
            origin is not None and origin.startswith("numpy.random.")
        ):
            return origin
        return None


class NoWallClockRule(Rule):
    """Deterministic modules never read the wall clock.

    Replayability of token streams requires monotonic or injectable
    clocks (``time.monotonic``/``time.perf_counter`` or a ``clock=``
    parameter).
    ``time.time`` and ``datetime.now`` silently couple results to the
    machine's clock and break bit-for-bit replay.
    """

    code = "REP002"

    BANNED_TIME = {"time", "time_ns", "ctime", "localtime", "gmtime", "strftime"}
    BANNED_DATETIME = {"now", "utcnow", "today", "fromtimestamp"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        origins = _imported_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            banned = self._banned_call(chain, origins)
            if banned is None:
                continue
            yield self.finding(
                module,
                node,
                f"wall-clock read {banned}() — use time.monotonic/perf_counter "
                "or an injectable clock parameter",
            )

    def _banned_call(
        self, chain: str, origins: Dict[str, str]
    ) -> Optional[str]:
        parts = chain.split(".")
        head, tail = parts[0], parts[-1]
        origin = origins.get(head, head)
        if len(parts) >= 2:
            if origin == "time" and tail in self.BANNED_TIME:
                return f"time.{tail}"
            if origin in ("datetime", "datetime.datetime", "datetime.date"):
                if tail in self.BANNED_DATETIME:
                    return f"{origin}.{tail}"
        else:
            # `from time import time` / `from datetime import ...` aliases.
            if origin == "time.time":
                return "time.time"
            if origin in ("datetime.datetime.now",):
                return origin
        return None


class ExceptionTaxonomyRule(Rule):
    """Every ``raise`` uses the :mod:`repro.exceptions` hierarchy.

    Callers distinguish library failures from programming errors with one
    ``except ReproError``; a stray ``raise ValueError`` punches a hole in
    that contract.  ``NotImplementedError`` (abstract hooks) and
    ``AssertionError`` (unreachable-code guards) stay allowed, as do
    re-raises of caught exceptions.
    """

    code = "REP003"

    BUILTIN_EXCEPTIONS = {
        "ArithmeticError",
        "AttributeError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "FileExistsError",
        "FileNotFoundError",
        "IOError",
        "IndexError",
        "InterruptedError",
        "KeyError",
        "LookupError",
        "MemoryError",
        "NameError",
        "OSError",
        "OverflowError",
        "PermissionError",
        "RecursionError",
        "ReferenceError",
        "RuntimeError",
        "StopAsyncIteration",
        "StopIteration",
        "SystemError",
        "TimeoutError",
        "TypeError",
        "UnicodeDecodeError",
        "UnicodeEncodeError",
        "ValueError",
        "ZeroDivisionError",
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        protocol_raises = self._protocol_raises(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._raised_builtin(node.exc)
            if name is None:
                continue
            if name == "AttributeError" and node in protocol_raises:
                continue
            yield self.finding(
                module,
                node,
                f"raise {name} — use (or add) a repro.exceptions subclass that "
                f"keeps {name} as a base so existing callers still catch it",
            )

    @staticmethod
    def _protocol_raises(tree: ast.Module) -> Set[ast.Raise]:
        """``raise`` nodes inside ``__getattr__``/``__getattribute__``.

        The attribute protocol *requires* AttributeError there (module
        ``__getattr__`` deprecation shims rely on it for ``hasattr``), so
        those raises are exempt from the taxonomy.
        """
        exempt: Set[ast.Raise] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name in ("__getattr__", "__getattribute__")
            ):
                for child in ast.walk(node):
                    if isinstance(child, ast.Raise):
                        exempt.add(child)
        return exempt

    def _raised_builtin(self, exc: ast.expr) -> Optional[str]:
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in self.BUILTIN_EXCEPTIONS:
            return exc.id
        return None


class NoSwallowedExceptRule(Rule):
    """No bare/broad ``except`` that fails to re-raise.

    A handler catching ``Exception``/``BaseException`` (or everything)
    may only do bookkeeping on the way out: its body must contain a
    ``raise``.  Handlers that swallow broad exceptions hide real bugs —
    the crash and leader-death tests only work because failures surface.
    Deliberate swallows (e.g. a coalescing leader routing the error to
    every parked waiter) carry a ``# repro: noqa[REP004]`` naming the
    invariant they uphold instead.
    """

    code = "REP004"

    BROAD = {"Exception", "BaseException"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(node.type)
            if label is None:
                continue
            if any(isinstance(child, ast.Raise) for child in ast.walk(node)):
                continue
            yield self.finding(
                module,
                node,
                f"{label} swallows the exception — catch the specific types, "
                "re-raise, or justify with a repro: noqa[REP004]",
            )

    def _broad_label(self, type_node: Optional[ast.expr]) -> Optional[str]:
        if type_node is None:
            return "bare except:"
        names: List[ast.expr] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in self.BROAD:
                return f"except {name.id}"
        return None


class CsrImmutabilityRule(Rule):
    """CompiledGraph CSR arrays are written only inside ``repro.graphs``.

    Compiled graphs are shared across threads, memory-mapped artifacts
    and cached fingerprints; every consumer (engines, serving, scoring)
    assumes they are frozen.  Any store into a CSR field — attribute
    assignment, element assignment, augmented assignment or delete —
    outside the graphs package is flagged.
    """

    code = "REP005"

    CSR_FIELDS = {
        "out_indptr",
        "out_indices",
        "out_probability",
        "out_interaction",
        "out_weight",
        "in_indptr",
        "in_indices",
        "in_probability",
        "in_interaction",
        "in_weight",
    }

    ALLOWED_MODULES = ("repro.graphs",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED_MODULES):
            return
        for node in ast.walk(module.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                field = self._csr_field(target)
                if field is not None:
                    yield self.finding(
                        module,
                        node,
                        f"write to CSR field .{field} outside repro.graphs — "
                        "compiled graphs are immutable; build a new graph or "
                        "add the derivation to repro.graphs",
                    )

    def _csr_field(self, target: ast.expr) -> Optional[str]:
        # Unwrap element/slice stores: graph.out_probability[...] = x
        while isinstance(target, (ast.Subscript, ast.Starred)):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in self.CSR_FIELDS:
            return target.attr
        return None


class AllExportsRule(Rule):
    """``__all__`` is present in packages, bound, and covers the public API.

    Three checks: every ``__init__.py`` declares ``__all__``; every name
    listed in any module's ``__all__`` is actually bound in that module;
    and (for ``__init__.py`` re-export surfaces) every public name
    introduced by a ``from ... import`` is listed in ``__all__`` — a
    re-export someone forgot to list is an API users cannot
    ``from repro import *`` or discover in docs.
    """

    code = "REP006"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        is_init = module.path.name == "__init__.py"
        declared = self._declared_all(module.tree)
        if declared is None:
            if is_init:
                yield self.finding(
                    module,
                    module.tree,
                    "package __init__.py must declare __all__ (the package's "
                    "public API surface)",
                )
            return
        node, names = declared
        bound = self._bound_names(module.tree)
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                yield self.finding(
                    module, node, f"__all__ lists {name!r} more than once"
                )
            seen.add(name)
            if name not in bound:
                yield self.finding(
                    module,
                    node,
                    f"__all__ entry {name!r} is not defined or imported in "
                    "this module",
                )
        if is_init:
            for public, public_node in self._public_reexports(module.tree):
                if public not in seen:
                    yield self.finding(
                        module,
                        public_node,
                        f"public re-export {public!r} is missing from __all__",
                    )

    @staticmethod
    def _declared_all(
        tree: ast.Module,
    ) -> Optional[Tuple[ast.stmt, List[str]]]:
        for node in tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
                value = node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == "__all__"):
                continue
            if not isinstance(value, (ast.List, ast.Tuple)):
                return node, []
            names = [
                element.value
                for element in value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]
            return node, names
        return None

    @staticmethod
    def _bound_names(tree: ast.Module) -> Set[str]:
        bound: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.add(name.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                for child in ast.walk(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        bound.add(child.name)
                    elif isinstance(child, ast.Name) and isinstance(
                        child.ctx, ast.Store
                    ):
                        bound.add(child.id)
                    elif isinstance(child, (ast.Import, ast.ImportFrom)):
                        for alias in child.names:
                            if alias.name != "*":
                                bound.add(
                                    (alias.asname or alias.name).split(".")[0]
                                )
        return bound

    @staticmethod
    def _public_reexports(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name != "*" and not name.startswith("_"):
                        yield name, node


class NoPrintRule(Rule):
    """Library code never prints; only the CLI and benches talk to stdout.

    A ``print`` inside an engine corrupts machine-readable output (the
    CLI's ``--json`` contract) and is invisible in production logs.  Use the structured return values,
    ``warnings.warn``, or route text through the CLI layer.
    """

    code = "REP008"

    ALLOWED_MODULES = ("repro.cli", "repro.bench")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED_MODULES):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "print() in library code — return structured data or go "
                    "through the CLI layer",
                )


class TelemetryConventionsRule(Rule):
    """Telemetry metrics are named and registered the one blessed way.

    Every exported series must parse in Prometheus text format and group
    under a common prefix in dashboards, so metric names are
    ``repro_``-prefixed lower snake_case (``METRIC_NAME_PATTERN`` in
    :mod:`repro.telemetry.registry` enforces the same shape at runtime —
    this rule catches it before the code path runs).  Counters also must
    live on a registry, not in ad-hoc instance dictionaries: a raw
    ``self._stats[...] += 1`` tally is invisible to the exporters and
    unsynchronised under concurrent requests.
    """

    code = "REP009"

    #: Methods on a registry (or family constructors) whose first argument
    #: is a metric name.
    REGISTRY_METHODS = ("counter", "histogram")
    FAMILY_CLASSES = ("Counter", "Histogram")
    #: Instance-dict names that signal a hand-rolled metrics store.
    RAW_COUNTER_ATTRS = ("_stats", "_counters", "_metrics")
    NAME_PATTERN = r"^repro_[a-z][a-z0-9_]*$"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        pattern = re.compile(self.NAME_PATTERN)
        origins = _imported_names(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = self._metric_name_argument(node, origins)
                if name is not None and not pattern.match(name):
                    yield self.finding(
                        module,
                        node,
                        f"metric name {name!r} must match {self.NAME_PATTERN} "
                        "(repro_-prefixed lower snake_case)",
                    )
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Subscript)
                and isinstance(node.target.value, ast.Attribute)
                and node.target.value.attr in self.RAW_COUNTER_ATTRS
            ):
                yield self.finding(
                    module,
                    node,
                    f"raw dict counter on {node.target.value.attr!r} — "
                    "register a Counter on a telemetry MetricsRegistry so "
                    "the series is exported and thread-safe",
                )

    def _metric_name_argument(
        self, node: ast.Call, origins: Dict[str, str]
    ) -> Optional[str]:
        """The would-be metric name, when ``node`` registers a metric."""
        if not node.args or not isinstance(node.args[0], ast.Constant):
            return None
        first = node.args[0].value
        if not isinstance(first, str):
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.REGISTRY_METHODS:
            return first
        if isinstance(func, ast.Name) and func.id in self.FAMILY_CLASSES:
            origin = origins.get(func.id, "")
            if origin.startswith("repro.telemetry"):
                return first
        return None


class NoRawPoolsRule(Rule):
    """Worker processes are spawned only through :mod:`repro.runtime`.

    :class:`repro.runtime.SupervisedPool` wraps a
    ``ProcessPoolExecutor`` with what a raw pool lacks: results in block
    order (so checkpoints cover a prefix), a cooperative stop, and replay
    of a dead worker's unfinished blocks in the parent.  A raw pool turns
    an OOM-killed worker into a failed build (``BrokenProcessPool``), so
    all process fan-out goes through the runtime.  Thread pools are
    unaffected — this rule is about *process* workers, which is where
    crash replay and worker-count determinism live.
    """

    code = "REP010"

    ALLOWED_MODULES = ("repro.runtime",)
    BANNED_CALLS = {
        "multiprocessing.Pool": "multiprocessing.Pool",
        "multiprocessing.pool.Pool": "multiprocessing.pool.Pool",
        "concurrent.futures.ProcessPoolExecutor": (
            "concurrent.futures.ProcessPoolExecutor"
        ),
        "concurrent.futures.process.ProcessPoolExecutor": (
            "concurrent.futures.process.ProcessPoolExecutor"
        ),
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.in_package(*self.ALLOWED_MODULES):
            return
        origins = _imported_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            resolved = self._resolve(chain, origins)
            if resolved is None:
                continue
            yield self.finding(
                module,
                node,
                f"raw {resolved} — spawn workers through "
                "repro.runtime.SupervisedPool so a crashed worker's blocks "
                "are replayed deterministically and checkpoints work",
            )

    def _resolve(self, chain: str, origins: Dict[str, str]) -> Optional[str]:
        head, _, rest = chain.partition(".")
        origin = origins.get(head)
        full = f"{origin}.{rest}" if origin and rest else (origin or chain)
        if full in self.BANNED_CALLS:
            return self.BANNED_CALLS[full]
        if chain in self.BANNED_CALLS:
            return self.BANNED_CALLS[chain]
        # ``mp.Pool(...)`` under any import alias of multiprocessing —
        # except multiprocessing.dummy, whose Pool is a thread pool.
        if chain.endswith(".Pool") and "dummy" not in full:
            if origin is not None and origin.startswith("multiprocessing"):
                return full
        return None


#: Every rule tier-1 runs, in code order.
RULES: Tuple[Rule, ...] = (
    RngDisciplineRule(),
    NoWallClockRule(),
    ExceptionTaxonomyRule(),
    NoSwallowedExceptRule(),
    CsrImmutabilityRule(),
    AllExportsRule(),
    NoPrintRule(),
    TelemetryConventionsRule(),
    NoRawPoolsRule(),
)
