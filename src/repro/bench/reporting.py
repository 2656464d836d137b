"""Plain-text tabular reporting for the benchmarks and the CLI.

Benchmarks print the same rows the paper's tables report, so a reader can
diff the regenerated output against the published numbers.  Output is
deliberately dependency-free (no pandas / matplotlib): fixed-width text
tables that render fine in a terminal or a log file.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


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
