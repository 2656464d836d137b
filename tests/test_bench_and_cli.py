"""Unit tests for the benchmark harness, table reporting and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import format_table, measure_selection
from repro.cli import build_parser, main


class TestHarness:
    def test_measure_selection(self, small_ic_graph):
        run = measure_selection(small_ic_graph, "high-degree", budget=3, dataset="tiny")
        assert run.algorithm == "high-degree"
        assert run.dataset == "tiny"
        assert len(run.seeds) == 3
        assert run.runtime_seconds >= 0.0
        assert run.peak_memory_mb >= 0.0

    def test_measure_selection_with_options(self, small_ic_graph):
        run = measure_selection(
            small_ic_graph, "easyim", budget=2, max_path_length=1, seed=0
        )
        assert run.algorithm == "easyim"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "b": "long-value"}, {"a": 123456.789, "b": "x"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "nethept" in output
        assert "friendster" in output

    def test_select_command_json(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "easyim", "--budget", "3", "--simulations", "50", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "easyim"
        assert len(payload["seeds"]) == 3

    def test_select_command_opinion_aware(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "osim", "--model", "oi-ic", "--budget", "2",
            "--simulations", "50", "--annotate", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]) == 2

    def test_evaluate_command(self, capsys):
        code = main([
            "evaluate", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "ic", "--seeds", "0,1,2", "--simulations", "50", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spread"] >= 0.0

    def test_evaluate_edge_list(self, tmp_path, capsys, figure1):
        from repro.graphs.io import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(figure1, path)
        code = main([
            "evaluate", "--edge-list", str(path), "--model", "oi-ic",
            "--seeds", "A", "--simulations", "200", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["opinion_spread"] == pytest.approx(0.136, abs=0.1)
