"""Developer tooling: the invariant linter.

Tier-1's ``test_src_is_lint_clean`` runs the per-file AST rules of
:mod:`repro.devtools.rules` (the ``RULES`` tuple) over ``src/`` and fails
on any finding; ``# repro: noqa[RULE]`` suppressions, the driver and
the text reporter live in :mod:`repro.devtools.framework`.

This package is import-light on purpose: it depends only on the
standard library and :mod:`repro.exceptions`, so linting never drags in
numpy or the engines it is checking.
"""

from repro.devtools.framework import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    render_text,
    run_lint,
)
from repro.devtools.rules import RULES

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "RULES",
    "Rule",
    "render_text",
    "run_lint",
]
