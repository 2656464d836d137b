"""Documentation-consistency tests.

The README's quickstart snippet and the experiment index in EXPERIMENTS.md
are the first things a new user touches; these tests keep them executable
and in sync with the code and with the paper-claim cases of
``test_paper_claims.py``.
"""

from __future__ import annotations

import pathlib
import re
import shlex
import tomllib

import pytest

import repro
import repro.api
from repro.cli import build_parser
from repro.devtools import RULES
from repro.specs import ESTIMATOR_BACKENDS
from test_paper_claims import CASES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self) -> str:
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def test_quickstart_snippets_execute(self, readme):
        blocks = _python_blocks(readme)
        assert blocks, "README must contain python quickstart blocks"
        # Execute the blocks cumulatively (they form one narrative session);
        # shrink the dataset so the documentation examples stay fast in CI.
        namespace: dict = {}
        for block in blocks:
            code = block.replace('repro.load_dataset("nethept", seed=7)',
                                 'repro.load_dataset("nethept", scale=0.1, seed=7)')
            code = code.replace("budget=10", "budget=3")
            exec(compile(code, "<README>", "exec"), namespace)  # noqa: S102

    def test_mentions_all_deliverable_directories(self, readme):
        for path in ("src/repro", "tests/", "benchmarks/", "examples/"):
            assert path in readme

    def test_examples_listed_in_readme_exist(self, readme):
        for match in re.findall(r"`examples/([a-z_]+\.py)`", readme):
            assert (REPO_ROOT / "examples" / match).exists(), match


def _claim_cases(markdown: str) -> set[str]:
    """Case ids named as ``test_paper_claims.py::<id>``."""
    return set(re.findall(r"test_paper_claims\.py::([\w-]+)", markdown))


class TestDesignAndExperiments:
    @pytest.fixture(scope="class")
    def experiments(self) -> str:
        return (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

    def test_every_paper_claim_case_is_documented(self, experiments):
        missing = sorted({case.id for case in CASES} - _claim_cases(experiments))
        assert not missing, f"EXPERIMENTS.md does not name cases {missing}"

    def test_documented_paper_claim_cases_exist(self, experiments):
        named = _claim_cases(experiments)
        assert named, "EXPERIMENTS.md names no paper-claim case"
        unknown = sorted(named - {case.id for case in CASES})
        assert not unknown, f"EXPERIMENTS.md names missing cases {unknown}"

    def test_experiments_md_covers_every_table_and_figure(self, experiments):
        for fragment in ("Table 2", "Table 3", "Table 4", "Figure 2", "5(a)", "5(b)",
                         "5(c)", "5(d)", "5(e)", "5(f)", "5(g)", "5(h)", "6(a)",
                         "6(d)", "6(f)", "6(i)", "7(a)", "7(d)", "7(f)", "7(j)"):
            assert fragment in experiments, fragment

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_named_benchmark_files_exist(self, doc):
        """Every concrete benchmark script or ``BENCH_*.json`` record a doc
        names must exist; globs such as ``bench_fig*.py`` are skipped."""
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w/*])(benchmarks/[\w/]+\.py)\b", text))
        named.update(
            f"benchmarks/{name}"
            for name in re.findall(r"(?<![\w/*])(bench_\w+\.py)\b", text)
        )
        named.update(re.findall(r"(?<![\w/*])(BENCH_\w+\.json)\b", text))
        missing = sorted(path for path in named if not (REPO_ROOT / path).exists())
        assert not missing, f"{doc} names missing files: {missing}"

    def test_every_example_script_exists_and_has_docstring(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4
        for script in examples:
            source = script.read_text(encoding="utf-8")
            assert source.lstrip().startswith(("#!", '"""')), script.name
            assert '"""' in source


def test_version_is_declared_only_in_the_version_module():
    """``pyproject.toml`` takes the version from ``repro._version`` instead
    of repeating it, so the package metadata and the version recorded in
    artifacts and run provenance cannot drift apart."""
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    source = pyproject["tool"]["setuptools"]["dynamic"]["version"]
    assert source == {"attr": "repro._version.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
    declared = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in (REPO_ROOT / "src").rglob("*.py")
        if re.search(r"^__version__\s*=", path.read_text(encoding="utf-8"), re.M)
    ]
    assert declared == ["src/repro/_version.py"]


CLI_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]

#: The installed console script: a doc line starting with it is a command.
SCRIPT = next(iter(
    tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    ["project"]["scripts"]
))


def _cli_commands(markdown: str) -> list[str]:
    """The arguments of every documented command line.

    A command is a ``python -m repro.cli`` invocation anywhere in a line, or
    a line that starts with the console script's name.  Backslash
    continuations are joined first; each command is cut at the first shell
    redirect, pipe, comment or closing backtick.
    """
    joined = re.sub(r"\\\n\s*", " ", markdown)
    commands = []
    for line in joined.splitlines():
        match = re.search(r"python3? -m repro\.cli\b", line) or re.match(
            rf"\s*{re.escape(SCRIPT)}(?= )", line
        )
        if match:
            commands.append(re.split(r"[>|#`]", line[match.end():], maxsplit=1)[0])
    return commands


#: One case per distinct (doc, command), named by the command's own words so
#: that adding or removing a line renames no other case.
DOC_COMMANDS = list(dict.fromkeys(
    (doc, " ".join(command.split()))
    for doc in CLI_DOCS
    for command in _cli_commands((REPO_ROOT / doc).read_text(encoding="utf-8"))
))


def test_docs_show_cli_commands():
    assert DOC_COMMANDS, "no `python -m repro.cli` command lines found in the docs"


def test_docs_show_console_script_commands():
    assert build_parser().prog == SCRIPT
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert any(line.startswith(f"{SCRIPT} ") for line in readme.splitlines()), SCRIPT


@pytest.mark.parametrize(
    "doc,command",
    DOC_COMMANDS,
    ids=[f"{doc}:{command}" for doc, command in DOC_COMMANDS],
)
def test_documented_cli_command_parses(doc, command):
    """A flag removed from the CLI fails here instead of lingering in docs."""
    try:
        build_parser().parse_args(shlex.split(command))
    except SystemExit:
        pytest.fail(f"{doc}: `{SCRIPT} {command}` does not parse")


@pytest.mark.parametrize("doc", CLI_DOCS)
def test_docs_name_only_existing_backends_and_estimators(doc):
    """A retired estimator backend or adapter class fails here.

    Checks every ``backend="..."`` / ``"backend": "..."`` literal against
    ``ESTIMATOR_BACKENDS``, and every backticked ``...Estimator`` name against
    ``repro.api``.
    """
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    backends = re.findall(r'(?:\bbackend\s*=\s*|"backend"\s*:\s*)"([^"]*)"', text)
    estimators = {
        name
        for span in re.findall(r"`([^`\n]+)`", text)
        for name in re.findall(r"\b([A-Z]\w*Estimator)\b", span)
    }
    unknown = sorted(set(backends) - set(ESTIMATOR_BACKENDS))
    unknown += sorted(name for name in estimators if not hasattr(repro.api, name))
    assert not unknown, f"{doc} names retired backends or estimators: {unknown}"


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_docs_name_only_registered_metrics(doc):
    """A documented ``repro_*_total`` / ``repro_*_seconds`` metric must be
    registered under that exact (quoted) name somewhere in ``src/``, so a
    runbook cannot point at a counter that was deleted."""
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    named = set(re.findall(r"\b(repro_\w+?_(?:total|seconds))\b", text))
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in (REPO_ROOT / "src").rglob("*.py")
    )
    missing = sorted(name for name in named if f'"{name}"' not in source)
    assert not missing, f"{doc} names unregistered metrics: {missing}"


def test_design_invariants_table_lists_exactly_the_lint_rules():
    """DESIGN.md's invariants table names the codes of ``RULES``, no more."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| (REP\d{3}) \|", design, flags=re.MULTILINE)
    assert documented == [rule.code for rule in RULES]
