"""Tests for repro.devtools: lint framework and every rule.

Each rule is exercised against a good/bad fixture pair under
``tests/devtools_fixtures/`` — the bad file must produce findings for
exactly its rule, the good file none.  ``src/`` itself must lint clean.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.devtools import RULES, render_text, run_lint
from repro.exceptions import LintError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "devtools_fixtures"
SRC = REPO_ROOT / "src"


def lint_one(path: pathlib.Path):
    return run_lint([path], root=REPO_ROOT)


# ---------------------------------------------------------------- rule pairs


RULE_FIXTURES = [
    ("REP001", "rep001_bad.py", "rep001_good.py", 2),
    ("REP002", "rep002_bad.py", "rep002_good.py", 2),
    ("REP003", "rep003_bad.py", "rep003_good.py", 2),
    ("REP004", "rep004_bad.py", "rep004_good.py", 2),
    ("REP005", "rep005_bad.py", "rep005_good.py", 3),
    ("REP006", "rep006_bad.py", "rep006_good_pkg/__init__.py", 2),
    ("REP008", "rep008_bad.py", "rep008_good.py", 1),
    ("REP009", "rep009_bad.py", "rep009_good.py", 5),
    ("REP010", "rep010_bad.py", "rep010_good.py", 3),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "code,bad,good,expected", RULE_FIXTURES, ids=[r[0] for r in RULE_FIXTURES]
    )
    def test_bad_fixture_fires_only_its_rule(self, code, bad, good, expected):
        report = lint_one(FIXTURES / bad)
        codes = [finding.rule for finding in report.findings]
        assert codes == [code] * expected, report.findings

    @pytest.mark.parametrize(
        "code,bad,good,expected", RULE_FIXTURES, ids=[r[0] for r in RULE_FIXTURES]
    )
    def test_good_fixture_is_clean(self, code, bad, good, expected):
        report = lint_one(FIXTURES / good)
        assert report.findings == [], report.findings

    def test_package_init_without_all_fires_rep006(self):
        report = lint_one(FIXTURES / "rep006_bad_pkg" / "__init__.py")
        assert [finding.rule for finding in report.findings] == ["REP006"]
        assert "__all__" in report.findings[0].message

    def test_findings_carry_locations(self):
        report = lint_one(FIXTURES / "rep008_bad.py")
        (finding,) = report.findings
        assert finding.line == 5
        assert finding.path.endswith("rep008_bad.py")
        assert finding.rule == "REP008"


def lint_snippet(tmp_path, relpath: str, source: str):
    """Lint ``source`` saved at ``relpath`` under a throwaway root.

    ``relpath`` sets the module's dotted name (``src/repro/graphs/x.py``
    is ``repro.graphs.x``), which the package-scoped rules read.
    """
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([path], root=tmp_path)


#: (case id, path under the lint root, source, rule codes it must raise).
#: The fixtures pin each rule's main shape; these pin import aliases,
#: the allowed cases each docstring names, and the package scopes.
RULE_EDGE_CASES = [
    (
        "rep001-seeded-default-rng",
        "src/repro/x.py",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        ["REP001"],
    ),
    (
        "rep001-stdlib-random-alias",
        "src/repro/x.py",
        "import random as r\nx = r.random()\n",
        ["REP001"],
    ),
    (
        "rep001-from-numpy-random-import",
        "src/repro/x.py",
        "from numpy.random import default_rng\nrng = default_rng()\n",
        ["REP001"],
    ),
    (
        "rep001-generator-annotation-ok",
        "src/repro/x.py",
        "import numpy as np\n\n\ndef f(rng: np.random.Generator) -> None:\n"
        "    return None\n",
        [],
    ),
    (
        "rep001-allowed-in-utils-rng",
        "src/repro/utils/rng.py",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        [],
    ),
    (
        "rep002-datetime-now",
        "src/repro/x.py",
        "import datetime\nstamp = datetime.datetime.now()\n",
        ["REP002"],
    ),
    (
        "rep002-from-time-import-time",
        "src/repro/x.py",
        "from time import time\nstamp = time()\n",
        ["REP002"],
    ),
    (
        "rep002-monotonic-clocks-ok",
        "src/repro/x.py",
        "import time\na = time.monotonic()\nb = time.perf_counter()\n",
        [],
    ),
    (
        "rep003-bare-class-raise",
        "src/repro/x.py",
        "def f():\n    raise KeyError\n",
        ["REP003"],
    ),
    (
        "rep003-attribute-protocol-ok",
        "src/repro/x.py",
        "def __getattr__(name):\n    raise AttributeError(name)\n",
        [],
    ),
    (
        "rep003-not-implemented-ok",
        "src/repro/x.py",
        "def f():\n    raise NotImplementedError\n",
        [],
    ),
    (
        "rep003-reraise-caught-ok",
        "src/repro/x.py",
        "try:\n    pass\nexcept ValueError as error:\n    raise error\n",
        [],
    ),
    (
        "rep004-broad-inside-tuple",
        "src/repro/x.py",
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n",
        ["REP004"],
    ),
    (
        "rep004-bare-except",
        "src/repro/x.py",
        "try:\n    pass\nexcept:\n    x = 1\n",
        ["REP004"],
    ),
    (
        "rep004-broad-reraise-ok",
        "src/repro/x.py",
        "try:\n    pass\nexcept Exception:\n    x = 1\n    raise\n",
        [],
    ),
    (
        "rep004-narrow-swallow-ok",
        "src/repro/x.py",
        "try:\n    pass\nexcept ValueError:\n    pass\n",
        [],
    ),
    (
        "rep005-augmented-element-store",
        "src/repro/x.py",
        "def f(graph):\n    graph.out_probability[0] += 1.0\n",
        ["REP005"],
    ),
    (
        "rep005-delete",
        "src/repro/x.py",
        "def f(graph):\n    del graph.in_indices\n",
        ["REP005"],
    ),
    (
        "rep005-allowed-in-graphs",
        "src/repro/graphs/x.py",
        "def f(graph):\n    graph.out_indptr = None\n",
        [],
    ),
    (
        "rep006-duplicate-entry",
        "src/repro/x.py",
        '__all__ = ["f", "f"]\n\n\ndef f():\n    return None\n',
        ["REP006"],
    ),
    (
        "rep006-unbound-entry",
        "src/repro/x.py",
        '__all__ = ["missing"]\n',
        ["REP006"],
    ),
    (
        "rep006-module-without-all-ok",
        "src/repro/x.py",
        "def f():\n    return None\n",
        [],
    ),
    (
        "rep006-private-reexport-ok",
        "src/repro/pkg/__init__.py",
        "from os import path as _path\n\n__all__ = []\n",
        [],
    ),
    (
        "rep008-allowed-in-cli",
        "src/repro/cli.py",
        'print("ok")\n',
        [],
    ),
    (
        "rep008-allowed-in-bench",
        "src/repro/bench/x.py",
        'print("ok")\n',
        [],
    ),
    (
        "rep009-bad-histogram-name",
        "src/repro/x.py",
        'def f(registry):\n    registry.histogram("Latency", "help")\n',
        ["REP009"],
    ),
    (
        "rep009-raw-counters-dict",
        "src/repro/x.py",
        'class A:\n    def f(self):\n        self._counters["x"] += 1\n',
        ["REP009"],
    ),
    (
        "rep009-foreign-counter-class-ok",
        "src/repro/x.py",
        'from collections import Counter\ntally = Counter("abc")\n',
        [],
    ),
    (
        "rep010-multiprocessing-alias",
        "src/repro/x.py",
        "import multiprocessing as mp\npool = mp.Pool(2)\n",
        ["REP010"],
    ),
    (
        "rep010-from-import-executor",
        "src/repro/x.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pool = ProcessPoolExecutor()\n",
        ["REP010"],
    ),
    (
        "rep010-dummy-thread-pool-ok",
        "src/repro/x.py",
        "import multiprocessing.dummy as threads\npool = threads.Pool(2)\n",
        [],
    ),
    (
        "rep010-thread-pool-executor-ok",
        "src/repro/x.py",
        "from concurrent.futures import ThreadPoolExecutor\n"
        "pool = ThreadPoolExecutor()\n",
        [],
    ),
    (
        "rep010-allowed-in-runtime",
        "src/repro/runtime/x.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pool = ProcessPoolExecutor()\n",
        [],
    ),
]


@pytest.mark.parametrize(
    "relpath,source,expected",
    [case[1:] for case in RULE_EDGE_CASES],
    ids=[case[0] for case in RULE_EDGE_CASES],
)
def test_rule_edge_case(tmp_path, relpath, source, expected):
    report = lint_snippet(tmp_path, relpath, source)
    assert [finding.rule for finding in report.findings] == expected, render_text(
        report
    )


class TestSuppression:
    def test_noqa_suppresses_named_rule_on_line(self):
        report = lint_one(FIXTURES / "suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_does_not_suppress_other_rules(self, tmp_path):
        source = 'import time\nx = time.time()  # repro: noqa[REP001]\n'
        path = tmp_path / "wrong_code.py"
        path.write_text(source)
        report = lint_one(path)
        assert [finding.rule for finding in report.findings] == ["REP002"]

    @pytest.mark.parametrize(
        "code,bad,good,expected", RULE_FIXTURES, ids=[r[0] for r in RULE_FIXTURES]
    )
    def test_noqa_silences_every_rule(self, tmp_path, code, bad, good, expected):
        lines = (FIXTURES / bad).read_text().splitlines()
        for line in {finding.line for finding in lint_one(FIXTURES / bad).findings}:
            lines[line - 1] += f"  # repro: noqa[{code}]"
        path = tmp_path / pathlib.Path(bad).name
        path.write_text("\n".join(lines) + "\n")
        report = run_lint([path], root=tmp_path)
        assert report.findings == [], render_text(report)
        assert report.suppressed == expected

    @pytest.mark.parametrize("code", ["REP011", "REP012", "REP013"])
    def test_noqa_naming_a_retired_code_silences_nothing(self, tmp_path, code):
        assert code not in {rule.code for rule in RULES}
        path = tmp_path / "retired.py"
        path.write_text(f"import time\nx = time.time()  # repro: noqa[{code}]\n")
        report = run_lint([path], root=tmp_path)
        assert [finding.rule for finding in report.findings] == ["REP002"]
        assert report.suppressed == 0

    def test_malformed_noqa_is_an_error_not_a_silent_noop(self, tmp_path):
        path = tmp_path / "malformed.py"
        path.write_text("x = 1  # repro: noqa[banana]\n")
        with pytest.raises(LintError, match="malformed suppression"):
            lint_one(path)

    def test_noqa_inside_string_literal_is_inert(self, tmp_path):
        path = tmp_path / "stringy.py"
        path.write_text(
            'import time\nnote = "# repro: noqa[REP002]"\nx = time.time()\n'
        )
        report = lint_one(path)
        assert [finding.rule for finding in report.findings] == ["REP002"]


class TestFramework:
    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            run_lint([tmp_path / "nope"], root=REPO_ROOT)

    def test_unparsable_source_raises(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def (:\n")
        with pytest.raises(LintError, match="cannot parse"):
            lint_one(path)


def test_src_is_lint_clean():
    """Every rule passes on ``src/``: any finding fails tier-1."""
    report = run_lint([SRC], root=REPO_ROOT)
    assert report.ok, render_text(report)


class TestReporters:
    def test_text_reporter_mentions_location_and_summary(self):
        report = lint_one(FIXTURES / "rep002_bad.py")
        text = render_text(report)
        assert "rep002_bad.py:7" in text
        assert "REP002" in text
        assert "checked 1 file(s)" in text
