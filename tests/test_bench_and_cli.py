"""Unit tests for the benchmark harness, reporting helpers and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    EXPERIMENTS,
    format_series_table,
    format_table,
    get_experiment,
    measure_selection,
    normalized_rmse_curve,
    spread_deviation_percent,
)
from repro.bench.experiments import experiment_index_rows
from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError


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

    def test_format_series_table(self):
        series = {"alg1": {0: 0.0, 5: 2.0}, "alg2": {0: 0.0, 5: 3.0}}
        text = format_series_table(series, value_label="spread")
        lines = text.splitlines()
        assert lines[0] == "spread vs #seeds"
        assert "alg1" in lines[1] and "alg2" in lines[1]
        assert lines[-1].split(" | ") == ["5", "2.00", "3.00"]
        assert "(no series)" in format_series_table({})

    def test_normalized_rmse_curve(self):
        results = normalized_rmse_curve(
            {"perfect": [1.0, 2.0], "biased": [2.0, 3.0]}, [1.0, 2.0]
        )
        assert results["perfect"] == pytest.approx(0.0)
        assert results["biased"] > 0.0
        with pytest.raises(ConfigurationError):
            normalized_rmse_curve({"x": [1.0]}, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            normalized_rmse_curve({"x": [1.0]}, [])

    def test_spread_deviation_percent(self):
        assert spread_deviation_percent(95.0, 100.0) == pytest.approx(5.0)
        assert spread_deviation_percent(0.0, 0.0) == 0.0
        assert spread_deviation_percent(1.0, 0.0) == float("inf")


class TestExperimentRegistry:
    def test_every_figure_and_table_present(self):
        identifiers = set(EXPERIMENTS)
        for expected in ("table2", "fig2", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
                         "fig5f", "fig5g", "fig5h", "fig6a-c", "fig6d-e", "fig6f-h",
                         "fig6i-j", "table3", "table4", "fig7a-c", "fig7d-e", "fig7f-i",
                         "fig7j", "ablations"):
            assert expected in identifiers

    def test_every_experiment_names_a_bench_module(self, tmp_path):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        for spec in EXPERIMENTS.values():
            assert (repo_root / spec.bench_module).exists(), spec.bench_module

    def test_get_experiment(self):
        spec = get_experiment("Fig5F")
        assert spec.paper_reference == "Figure 5(f)"
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_experiment_index_rows(self):
        rows = experiment_index_rows()
        assert len(rows) == len(EXPERIMENTS)
        assert all({"id", "paper", "description", "bench"} <= set(r) for r in rows)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "nethept" in output
        assert "friendster" in output

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        assert "Figure 5(f)" in capsys.readouterr().out

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
