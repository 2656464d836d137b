"""Tests for repro.devtools: lint framework, every rule, lockcheck.

Each rule is exercised against a good/bad fixture pair under
``tests/devtools_fixtures/`` — the bad file must produce findings for
exactly its rule, the good file none.  ``src/`` itself must lint clean.
"""

from __future__ import annotations

import json
import pathlib
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main as cli_main
from repro.devtools import (
    LOCK_HIERARCHY,
    LockOrderMonitor,
    InstrumentedLock,
    all_rules,
    get_rule,
    instrument_serving,
    render_json,
    render_text,
    run_lint,
)
from repro.devtools.lockcheck import STATIC_LOCK_MAP
from repro.exceptions import LintError, LockOrderError

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
    ("REP007", "rep007_bad.py", "rep007_good.py", 1),
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
    def test_get_rule_unknown_code_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            get_rule("REP999")

    def test_all_rules_cover_the_documented_set(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [f"REP{i:03d}" for i in range(1, 11)]

    def test_rule_filtering(self):
        report = run_lint(
            [FIXTURES / "rep001_bad.py"],
            root=REPO_ROOT,
            rules=[get_rule("REP002")],
        )
        assert report.findings == []

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
    def test_json_reporter_schema(self):
        report = lint_one(FIXTURES / "rep002_bad.py")
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"REP002": 2}
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "column", "rule", "message"}

    def test_text_reporter_mentions_location_and_summary(self):
        report = lint_one(FIXTURES / "rep002_bad.py")
        text = render_text(report)
        assert "rep002_bad.py:7" in text
        assert "REP002" in text
        assert "checked 1 file(s)" in text


class TestCli:
    def test_lint_command_fails_on_bad_file(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rep003_bad.py")])
        assert code == 1
        assert "REP003" in capsys.readouterr().out

    def test_lint_command_passes_on_good_file(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rep003_good.py")])
        assert code == 0

    def test_lint_json_output(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rep008_bad.py"), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"REP008": 1}

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for expected in ("REP001", "rng-discipline", "REP008"):
            assert expected in out

    def test_explain_prints_rule_documentation(self, capsys):
        assert cli_main(["lint", "--explain", "REP007"]) == 0
        out = capsys.readouterr().out
        assert "lock-order" in out
        assert "LOCK_HIERARCHY" in out

    def test_rule_selection_flag(self, capsys):
        code = cli_main(
            ["lint", str(FIXTURES / "rep001_bad.py"), "--rules", "REP002"]
        )
        assert code == 0

    @pytest.mark.parametrize("code", [r[0] for r in RULE_FIXTURES])
    def test_explain_covers_every_rule(self, code, capsys):
        rule = get_rule(code)
        doc = (type(rule).__doc__ or "").strip()
        assert doc, f"{code} has no explanation"
        assert cli_main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{code}  {rule.name}\n{rule.summary}\n")
        assert doc in out

    @pytest.mark.parametrize("code", ["REP011", "REP012", "REP013"])
    def test_retired_rule_codes_are_unknown(self, code):
        """Selecting a retired rule is an error, not a run of no rules."""
        with pytest.raises(LintError, match="unknown rule"):
            cli_main(["lint", str(FIXTURES / "rep001_good.py"), "--rules", code])

    @pytest.mark.parametrize(
        "flag",
        [
            "--scope=file",
            "--callgraph=callgraph.json",
            "--baseline=lint-baseline.json",
            "--update-baseline",
            "--diff-baseline",
        ],
    )
    def test_retired_lint_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", str(FIXTURES / "rep001_good.py"), flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------- lockcheck


def make_locks(monitor):
    """One instrumented lock per hierarchy level, in declared order."""
    return [
        InstrumentedLock(threading.RLock(), level, monitor)
        for level in LOCK_HIERARCHY
    ]


class TestLockOrderMonitor:
    def test_ordered_acquisitions_pass(self):
        monitor = LockOrderMonitor()
        service, index = make_locks(monitor)
        with service:
            with index:
                pass
        monitor.check()
        assert monitor.acquisitions()["service"] == 1
        assert ("service", "index") in monitor.edges()

    def test_inverted_acquisition_is_a_violation(self):
        monitor = LockOrderMonitor()
        service, index, *_ = make_locks(monitor)
        with index:
            with service:
                pass
        with pytest.raises(LockOrderError, match="holding 'index'"):
            monitor.check()

    def test_cycle_between_unranked_locks_is_detected(self):
        monitor = LockOrderMonitor()
        a = InstrumentedLock(threading.RLock(), "custom-a", monitor)
        b = InstrumentedLock(threading.RLock(), "custom-b", monitor)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with pytest.raises(LockOrderError, match="cycle"):
            monitor.check()

    def test_reentrant_acquisition_records_no_edge(self):
        monitor = LockOrderMonitor()
        _, index, *_ = make_locks(monitor)
        with index:
            with index:
                pass
        assert monitor.edges() == {}
        monitor.check()

    def test_condition_wait_keeps_thread_stack_truthful(self):
        monitor = LockOrderMonitor()
        service, index, *_ = make_locks(monitor)
        condition = threading.Condition(service)
        ready = threading.Event()
        woken = threading.Event()

        def waiter():
            with condition:
                ready.set()
                condition.wait(timeout=5.0)
            # After wait() returned and the with-block exited, this thread
            # holds nothing: taking the index lock must record the edge
            # from nothing (no service->index edge from this path alone).
            with index:
                pass
            woken.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert ready.wait(timeout=5.0)
        with condition:
            condition.notify_all()
        assert woken.wait(timeout=5.0)
        thread.join(timeout=5.0)
        monitor.check()

    def test_violations_are_aggregated_with_counts(self):
        monitor = LockOrderMonitor()
        service, index, *_ = make_locks(monitor)
        for _ in range(3):
            with index:
                with service:
                    pass
        (problem, *rest) = monitor.violations()
        assert "3x" in problem and not rest


class TestInstrumentedServing:
    def test_concurrent_service_traffic_respects_hierarchy(self):
        """Concurrent service traffic under instrumentation: no inversion.

        ``tests/test_serving.py`` runs under the checker in CI via
        ``REPRO_LOCKCHECK=1`` (see conftest); this in-suite version drives
        the same build/evaluate/coalesce/grow paths at small scale.
        """
        from repro.graphs.generators import erdos_renyi_graph
        from repro.serving import InfluenceService

        compiled = erdos_renyi_graph(80, 0.06, seed=7).compile()
        monitor = LockOrderMonitor()
        with instrument_serving(monitor):
            service = InfluenceService(default_theta=300)
            index = service.get_index(compiled, "ic")
            seeds = [list(index.select(3).seeds), [0, 1], [2, 3], [4, 5]]

            def query(batch):
                return [service.evaluate(compiled, "ic", s) for s in batch]

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(query, [seeds] * 4))
        assert all(len(r) == len(seeds) for r in results)
        monitor.check()
        acquisitions = monitor.acquisitions()
        assert acquisitions.get("service", 0) > 0
        assert acquisitions.get("index", 0) > 0

    def test_instrumentation_restores_module_state(self):
        import repro.serving.index as index_module
        import repro.serving.service as service_module

        before = service_module.threading, index_module.threading
        with instrument_serving(LockOrderMonitor()):
            assert service_module.threading is not before[0]
            assert index_module.threading is not before[1]
        assert (service_module.threading, index_module.threading) == before


def test_static_lock_map_is_consistent_with_hierarchy():
    ranks = {name: rank for rank, name in enumerate(LOCK_HIERARCHY)}
    for (owner, attr), (rank, level) in STATIC_LOCK_MAP.items():
        assert ranks[level] == rank, (owner, attr)
    assert set(level for _, level in STATIC_LOCK_MAP.values()) == set(LOCK_HIERARCHY)
