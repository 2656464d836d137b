"""Summary statistics and the regression verdict rules of the benchmark.

Quartiles follow :func:`statistics.quantiles` with ``n=4`` (the exclusive
method), so the spread this module reports is the one a reader gets by
feeding the same values to the standard library.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``; one value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(statistics.median(values)), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, count and the values themselves."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": [float(v) for v in values],
    }


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    """Classify one (workload, metric) pair of ``new`` against ``base``.

    * ``better`` — every run of ``new`` beats every run of ``base``;
    * ``unresolved`` — otherwise, when either side's spread between its
      quartiles, as a share of its median, is wider than ``bound``: the
      runs cannot tell a regression of that size from noise;
    * ``worse`` — the median got worse by more than ``bound``;
    * ``better`` — the median improved by more than ``bound``;
    * ``ok`` — anything else.

    A ``better`` here is not a claimed gain: that takes the paired protocol
    in the README (ten alternating pairs, nine wins).

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of the
    base median by which the metric may worsen.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    # Positive means new is worse than base.
    change = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    dominates = all(sign * (n - b) < 0 for n in new for b in base)
    if dominates:
        return "better"
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > bound:
        return "better"
    return "ok"


def compare_records(
    base: Dict[str, object], new: Dict[str, object], metrics: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """One verdict row per (workload, end-to-end metric) present in both records."""
    rows: List[Dict[str, object]] = []
    base_workloads = base["workloads"]
    new_workloads = new["workloads"]
    assert isinstance(base_workloads, dict) and isinstance(new_workloads, dict)
    for workload in sorted(set(base_workloads) & set(new_workloads)):
        for metric in metrics:
            name = str(metric["name"])
            old = base_workloads[workload]["metrics"].get(name)
            cur = new_workloads[workload]["metrics"].get(name)
            if not old or not cur or not old["values"] or not cur["values"]:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": old["median"],
                    "new": cur["median"],
                    "change": (cur["median"] - old["median"]) / abs(old["median"])
                    if old["median"]
                    else 0.0,
                    "spread": max(
                        relative_spread(old["values"]), relative_spread(cur["values"])
                    ),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        old["values"], cur["values"], str(metric["better"]),
                        float(metric["bound"]),
                    ),
                }
            )
    return rows
