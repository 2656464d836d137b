"""Developer tooling: the invariant linter and the runtime lock checker.

``repro lint`` (and the CI ``lint`` job) runs the per-file AST rules in
:mod:`repro.devtools.rules` over ``src/`` and fails on any finding; the
framework — registration, ``# repro: noqa[RULE]`` suppressions and the
JSON/human reporters — lives in :mod:`repro.devtools.framework`.
:mod:`repro.devtools.lockcheck` holds the declared serving-layer lock
hierarchy plus the runtime monitor the serving tests run under
(``REPRO_LOCKCHECK=1``), which checks lock order across call chains.

This package is import-light on purpose: it depends only on the
standard library and :mod:`repro.exceptions`, so linting never drags in
numpy or the engines it is checking.
"""

from repro.devtools.framework import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    all_rules,
    get_rule,
    register,
    render_json,
    render_text,
    run_lint,
)
from repro.devtools.lockcheck import (
    LOCK_HIERARCHY,
    InstrumentedLock,
    LockOrderMonitor,
    instrument_serving,
)

__all__ = [
    "Finding",
    "InstrumentedLock",
    "LOCK_HIERARCHY",
    "LintReport",
    "LockOrderMonitor",
    "ModuleContext",
    "Rule",
    "all_rules",
    "get_rule",
    "instrument_serving",
    "register",
    "render_json",
    "render_text",
    "run_lint",
]
