"""Pytest fixtures for the benchmark suite.

Every benchmark times, or measures the memory of, the workload of one of
the paper's tables or figures on the synthetic stand-in datasets.  Graphs
are generated once per process and cached (see ``helpers.py``); sizes, seed
counts and simulation budgets are deliberately small so the whole suite runs
on a laptop in minutes (EXPERIMENTS.md maps them back to the paper's
full-scale settings).

The ``reporter`` fixture prints the regenerated rows/series directly to the
terminal (bypassing pytest's capture) so running

    pytest benchmarks/ --benchmark-only

shows the same tables the paper reports alongside pytest-benchmark's
timing table.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def reporter(capsys):
    """Print a report block to the real terminal, bypassing output capture."""

    def emit(title: str, body: str) -> None:
        with capsys.disabled():
            separator = "=" * max(len(title), 24)
            print(f"\n{separator}\n{title}\n{separator}\n{body}\n")

    return emit
