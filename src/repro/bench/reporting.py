"""Plain-text tabular reporting and quality metrics for the benchmarks.

Benchmarks print the same rows/series the paper's tables and figures report,
so a reader can diff the regenerated output against the published numbers.
Output is deliberately dependency-free (no pandas / matplotlib): fixed-width
text tables that render fine in a terminal or a log file.  A series is one
labelled k-sweep, ``{label: {k: value}}`` — the shape every estimator's
``sweep`` returns.

The two metrics the paper's quality claims are stated in live here too:
:func:`normalized_rmse_curve` (Fig. 5b) and :func:`spread_deviation_percent`
(the "within 5% of the best method" claim of Figs. 6-7).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered_rows = [
        {column: _format_value(row.get(column, "")) for column in columns}
        for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered_rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rendered_rows:
        lines.append(" | ".join(row[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def format_series_table(
    series: Mapping[str, Mapping[int, float]],
    value_label: str = "value",
    title: str = "",
) -> str:
    """Render several k-sweeps side by side (one column per label).

    ``series`` maps each label to its ``{k: value}`` sweep; the rows follow
    the first sweep's seed counts.
    """
    if not series:
        return f"{title}\n(no series)" if title else "(no series)"
    seed_counts = list(next(iter(series.values())))
    rows: List[Dict[str, object]] = []
    for k in seed_counts:
        row: Dict[str, object] = {"k": k}
        for label, curve in series.items():
            row[label] = curve[k]
        rows.append(row)
    heading = title or f"{value_label} vs #seeds"
    return format_table(rows, title=heading)


def normalized_rmse_curve(
    predicted_by_label: Mapping[str, Sequence[float]],
    ground_truth: Sequence[float],
    as_percent: bool = True,
) -> Dict[str, float]:
    """Normalised RMSE of each labelled prediction series vs the ground truth.

    Used for Fig. 5b, where the "prediction" of a model at each seed count is
    its estimated opinion spread and the ground truth is the opinion spread
    observed in the data.
    """
    truth = np.asarray(ground_truth, dtype=np.float64)
    if truth.size == 0:
        raise ConfigurationError("ground_truth must not be empty")
    scale = float(np.abs(truth).max())
    if scale == 0.0:
        scale = 1.0
    results: Dict[str, float] = {}
    for label, predictions in predicted_by_label.items():
        predicted = np.asarray(predictions, dtype=np.float64)
        if predicted.shape != truth.shape:
            raise ConfigurationError(
                f"series {label!r} has shape {predicted.shape}, expected {truth.shape}"
            )
        rmse = float(np.sqrt(np.mean((predicted - truth) ** 2))) / scale
        results[label] = rmse * 100.0 if as_percent else rmse
    return results


def spread_deviation_percent(value: float, reference: float) -> float:
    """Relative deviation of ``value`` from ``reference`` in percent.

    The paper's headline quality claim is that EaSyIM/OSIM stay within 5% of
    the best-known methods; this helper expresses that deviation.
    """
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / abs(reference) * 100.0


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
