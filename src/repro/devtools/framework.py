"""AST-based invariant linter: suppressions, driver and reporter.

The library's headline guarantee — bit-for-bit deterministic seed sets
across every backend — rests on a handful of project-wide invariants
(all randomness flows through :mod:`repro.utils.rng` tokens, no wall
clock in deterministic paths, one exception taxonomy).  Tests exercise
those invariants only on the paths they happen to cover; this module
makes them machine checked on every file of ``src/``.

Pieces:

* :class:`Rule` — one invariant, implemented as a visitor over a parsed
  module under a stable ``REPxxx`` code; the rules are the ``RULES``
  tuple of :mod:`repro.devtools.rules`.
* :class:`Finding` — one violation at a (path, line, column).
* ``# repro: noqa[REP001]`` — per-line, per-rule suppression.  Bare
  ``# repro: noqa`` is deliberately not supported: every suppression
  names the rule it silences.
* :func:`run_lint` + :func:`render_text` — driver and reporter for
  tier-1's ``test_src_is_lint_clean``.  Any finding fails it.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
import tokenize
from typing import Dict, Iterator, List, Optional, Sequence

from repro.exceptions import LintError

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "Rule",
    "iter_source_files",
    "render_text",
    "run_lint",
]

#: Suppression comments look like ``# repro: noqa[REP001]`` or
#: ``# repro: noqa[REP001,REP004]``.  The rule list is mandatory.
_NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa\[(?P<codes>[^\]]*)\]")

_CODE_PATTERN = re.compile(r"^REP\d{3}$")


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location."""

    path: str
    line: int
    column: int
    rule: str
    message: str


class ModuleContext:
    """A parsed source module handed to every rule.

    ``relpath`` is the path relative to the lint root (stable across
    machines, used in findings); ``dotted`` is the module's
    import path when it lives under a package root (``repro.utils.rng``),
    used by rules that scope themselves to parts of the package.
    """

    def __init__(self, path: pathlib.Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            raise LintError(f"{path}: cannot parse: {error}") from error
        self.dotted = _dotted_name(relpath)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def in_package(self, *prefixes: str) -> bool:
        """Whether the module is (inside) any of the dotted ``prefixes``."""
        for prefix in prefixes:
            if self.dotted == prefix or self.dotted.startswith(prefix + "."):
                return True
        return False


def _dotted_name(relpath: str) -> str:
    parts = pathlib.PurePosixPath(relpath.replace("\\", "/")).parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + (last,)
    return ".".join(parts)


class Rule:
    """Base class for one lint rule.

    Subclasses set ``code`` (a stable ``REPxxx`` identifier) and
    implement :meth:`check` yielding findings.
    """

    code: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


def iter_source_files(paths: Sequence[pathlib.Path]) -> Iterator[pathlib.Path]:
    """Yield ``.py`` files under ``paths`` in deterministic sorted order."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        else:
            raise LintError(f"lint target {path} does not exist")


def _suppressed_lines(source: str, path: pathlib.Path) -> Dict[int, set]:
    """Map line number -> set of rule codes suppressed on that line.

    Comments are found with :mod:`tokenize` (not a regex over raw lines)
    so a ``# repro: noqa[...]`` inside a string literal does not suppress
    anything.
    """
    suppressed: Dict[int, set] = {}
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_PATTERN.search(token.string)
            if not match:
                continue
            codes = {
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            }
            bad = [code for code in codes if not _CODE_PATTERN.match(code)]
            if bad or not codes:
                raise LintError(
                    f"{path}:{token.start[0]}: malformed suppression "
                    f"{token.string.strip()!r}: expected one or more REPxxx "
                    f"codes, got {sorted(bad) or 'nothing'}"
                )
            suppressed.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenError:
        # The AST parse will have raised a clearer error already; if it
        # parsed, a trailing tokenizer hiccup should not kill the lint run.
        pass
    return suppressed


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run: surviving findings plus bookkeeping."""

    findings: List[Finding]
    files_checked: int
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def run_lint(
    paths: Sequence[pathlib.Path],
    *,
    root: Optional[pathlib.Path] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with every rule in ``RULES``."""
    # Imported here: the rules module imports this one.
    from repro.devtools.rules import RULES

    base = (root or pathlib.Path.cwd()).resolve()
    findings: List[Finding] = []
    suppressed = 0
    files = 0
    for path in iter_source_files([pathlib.Path(p) for p in paths]):
        try:
            relpath = str(path.resolve().relative_to(base))
        except ValueError:
            relpath = str(path)
        source = path.read_text(encoding="utf-8")
        module = ModuleContext(path, relpath.replace("\\", "/"), source)
        noqa = _suppressed_lines(source, path)
        for rule in RULES:
            for finding in rule.check(module):
                if finding.rule in noqa.get(finding.line, ()):
                    suppressed += 1
                else:
                    findings.append(finding)
        files += 1
    return LintReport(
        findings=sorted(findings), files_checked=files, suppressed=suppressed
    )


def render_text(report: LintReport) -> str:
    """Human reporter: one ``path:line:col CODE message`` line per finding."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.column} "
            f"{finding.rule} {finding.message}"
        )
    counts = report.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}={count}" for rule, count in sorted(counts.items()))
        lines.append(f"found {len(report.findings)} violation(s) ({per_rule})")
    summary = (
        f"checked {report.files_checked} file(s): "
        f"{len(report.findings)} finding(s), {report.suppressed} suppressed"
    )
    lines.append(summary + (" — OK" if report.ok else ""))
    return "\n".join(lines)

