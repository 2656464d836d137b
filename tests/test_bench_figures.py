"""Unit tests for the ASCII figure renderer."""

from __future__ import annotations

import pytest

from repro.bench.figures import ascii_chart, series_from_evaluations


class TestAsciiChart:
    def test_renders_title_markers_and_legend(self):
        chart = ascii_chart(
            {"EaSyIM": [(0, 0), (50, 10), (100, 20)],
             "TIM+": [(0, 0), (50, 12), (100, 21)]},
            title="Spread vs #seeds",
        )
        assert chart.startswith("Spread vs #seeds")
        assert "o EaSyIM" in chart
        assert "* TIM+" in chart
        grid_body = "\n".join(chart.splitlines()[1:-4])
        assert "o" in grid_body and "*" in grid_body  # markers appear in the grid

    def test_axis_labels_show_extremes(self):
        chart = ascii_chart({"s": [(0, 5), (10, 25)]}, width=30, height=8)
        assert "25" in chart
        assert "5" in chart
        assert "10" in chart.splitlines()[-3]

    def test_empty_series(self):
        assert "(no data)" in ascii_chart({}, title="empty")
        assert "(no data)" in ascii_chart({"x": []})

    def test_constant_series_does_not_divide_by_zero(self):
        chart = ascii_chart({"flat": [(0, 3), (10, 3)]})
        assert "flat" in chart

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ascii_chart({"x": [(0, 1)]}, width=5)
        with pytest.raises(ValueError):
            ascii_chart({"x": [(0, 1)]}, height=2)

    def test_many_series_cycle_markers(self):
        series = {f"series-{i}": [(0, i), (1, i + 1)] for i in range(10)}
        chart = ascii_chart(series)
        assert "series-9" in chart

    def test_series_from_evaluations(self):
        evaluations = {"alg": {0: 0.0, 5: 2.0, 10: 3.5}}
        converted = series_from_evaluations(evaluations)
        assert converted == {"alg": [(0.0, 0.0), (5.0, 2.0), (10.0, 3.5)]}
        chart = ascii_chart(converted, title="from evaluations")
        assert "alg" in chart
