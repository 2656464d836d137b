#!/usr/bin/env python3
"""The repository benchmark: four paper workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/harness/run.py [--seed S] [--output out.json]
    python3 benchmarks/harness/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/harness/run.py --compare A.json B.json

The first form runs every workload of ``BENCHMARK.json`` 7 times,
round-robin, each repeat in a fresh process, then one traced
repeat per workload, and writes one ``repro/bench@1`` record.  The second
form is one repeat: it prints a ``detail:`` line and, as its last line, the
result object (end-to-end metrics, or per-layer metrics with ``--trace 1``).
The third prints a verdict for every (workload, end-to-end metric) pair.
Any failed check makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: The record the default-seed quality and seed lists are checked against.
REFERENCE = HERE / "baseline" / "a.json"
RECORD_SCHEMA = "repro/bench@1"
DEFAULT_SEED = 1
#: Repeats per workload in a full run; records are compared at this count.
ROUNDS = 7
#: Shortfall of ``quality`` against the reference tolerated at the default seed.
QUALITY_TOLERANCE = 0.005
REPEAT_TIMEOUT_S = 900


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> Optional[Dict[str, object]]:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None


def reference_check(
    name: str, seed: int, seeds_sha256: str, quality: float,
    reference: Optional[Dict[str, object]],
) -> tuple[Optional[bool], Optional[str]]:
    """``(seeds_match_reference, failure)`` against the reference record.

    Only the reference's own seed is checked; other seeds make other graphs.
    """
    if reference is None or reference["seed"] != seed or name not in reference["workloads"]:
        return None, None
    expected = reference["workloads"][name]
    floor = expected["quality"] - QUALITY_TOLERANCE * abs(expected["quality"])
    failure = None
    if quality < floor:
        failure = f"quality {quality} is below the reference {expected['quality']} by more than 0.5%"
    return seeds_sha256 == expected["seeds_sha256"], failure


# ----------------------------------------------------------------- one repeat


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from layers import PER_LAYER
    from workloads import END_TO_END, make_workload, measure

    detail = measure(
        make_workload(name, seed),
        seconds,
        trace=trace,
        trace_path=OUT / f"trace-{name}-seed{seed}.json" if trace else None,
    )
    if "seeds_sha256" in detail:
        match, failure = reference_check(
            name, seed, detail["seeds_sha256"], detail["quality"], load_reference()
        )
        detail["seeds_match_reference"] = match
        if failure is not None:
            detail["failures"].append(failure)
    units = {metric: unit for metric, unit, _ in (PER_LAYER if trace else END_TO_END)}
    metrics = detail.get("metrics", {})
    result = {
        "correct": not detail["failures"] and bool(metrics),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    for failure in detail["failures"]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------- full benchmark


def _repeat(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One repeat in a fresh process; its parsed detail and result."""
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S
    )
    lines = completed.stdout.splitlines()
    detail = next(
        (json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")),
        {},
    )
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if completed.returncode != 0 and not detail.get("failures"):
        detail.setdefault("failures", []).append(
            f"exit {completed.returncode}: {completed.stderr.strip()[-500:]}"
        )
    return {"ok": completed.returncode == 0 and bool(result.get("correct")),
            "detail": detail, "result": result}


def build_record(
    benchmark: Dict[str, object],
    seed: int,
    seconds: float,
    repeats: Dict[str, List[Dict[str, object]]],
    traced: Dict[str, Dict[str, object]],
) -> Dict[str, object]:
    """Reduce the repeats of every workload to one ``repro/bench@1`` record."""
    import numpy as np

    from stats import summarize

    workloads: Dict[str, object] = {}
    for entry in benchmark["workloads"]:
        name = entry["name"]
        runs = repeats[name] + [traced[name]]
        good = [run for run in repeats[name] if run["ok"]]
        failures = [f for run in runs for f in run["detail"].get("failures", [])]
        outputs = {
            (run["detail"].get("seeds_sha256"), run["detail"].get("quality"))
            for run in runs if "seeds_sha256" in run["detail"]
        }
        if len(outputs) > 1:
            failures.append(f"repeats returned different seed lists or quality: {outputs}")
        attempted = sum(run["result"].get("attempted", 0) for run in runs)
        failed = sum(run["result"].get("failed", 0) for run in runs)
        first = good[0]["detail"] if good else {}
        metrics = {}
        for metric in benchmark["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in good]
            metrics[metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **(summarize(values) if values else {"n": 0, "values": []}),
            }
        tails = [run["detail"]["p99_ms"] for run in good if "p99_ms" in run["detail"]]
        slowdowns = [run["detail"]["host_slowdown"] for run in good]
        workloads[name] = {
            "why": entry["why"],
            "repeats": len(repeats[name]),
            "failed_repeats": len(repeats[name]) - len(good),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "correct": not failures and len(good) == len(repeats[name]) and traced[name]["ok"],
            "seeds_sha256": first.get("seeds_sha256"),
            "quality": first.get("quality"),
            "seeds_match_reference": first.get("seeds_match_reference"),
            "metrics": metrics,
            "p99_ms": summarize(tails) if tails else None,
            "host_slowdown": summarize(slowdowns) if slowdowns else None,
            "per_layer": traced[name]["result"].get("metrics", {}),
            "failures": failures,
        }
    return {
        "schema": RECORD_SCHEMA,
        "seed": seed,
        "rounds": ROUNDS,
        "seconds": seconds,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }


def print_record(record: Dict[str, object]) -> None:
    for name, workload in record["workloads"].items():
        status = "ok" if workload["correct"] else "FAILED"
        print(
            f"\n{name}  [{status}]  error_rate={workload['error_rate']:.4f} "
            f"({workload['failed']}/{workload['attempted']})  "
            f"seeds_match_reference={workload['seeds_match_reference']}"
        )
        for metric, summary in workload["metrics"].items():
            if summary["n"]:
                print(
                    f"  {metric:<14} {summary['median']:>12.4f} {summary['unit']:<9} "
                    f"[q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}, n={summary['n']}]"
                )
        tail = workload["p99_ms"]
        if tail:
            print(f"  {'p99_ms':<14} {tail['median']:>12.4f} ms        (not bounded)")
        slowdown = workload["host_slowdown"]
        if slowdown:
            print(f"  {'host_slowdown':<14} {slowdown['median']:>12.4f} x         (calibration)")
        for failure in workload["failures"]:
            print(f"  FAILED: {failure}")


def run_all(seed: int, seconds: Optional[float], output: pathlib.Path) -> int:
    benchmark = load_benchmark()
    seconds = seconds if seconds is not None else benchmark["run_seconds"]
    names = [entry["name"] for entry in benchmark["workloads"]]
    repeats: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    for round_index in range(ROUNDS):
        for name in names:
            print(f"round {round_index + 1}/{ROUNDS}: {name}", file=sys.stderr, flush=True)
            repeats[name].append(_repeat(name, seed, seconds, trace=False))
    traced = {}
    for name in names:
        print(f"traced: {name}", file=sys.stderr, flush=True)
        traced[name] = _repeat(name, seed, seconds, trace=True)
    record = build_record(benchmark, seed, seconds, repeats, traced)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print_record(record)
    print(f"\nrecord written to {output}")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


# -------------------------------------------------------------------- compare


def compare(base_path: pathlib.Path, new_path: pathlib.Path) -> int:
    from stats import compare_records

    rows = compare_records(
        json.loads(base_path.read_text()),
        json.loads(new_path.read_text()),
        load_benchmark()["end_to_end"],
    )
    print(f"{'workload':<12} {'metric':<13} {'base':>11} {'new':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<12} {row['metric']:<13} {row['base']:>11.4f} "
            f"{row['new']:>11.4f} {row['change']:>+8.2%} {row['spread']:>7.2%} "
            f"{row['bound']:>6.1%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", help="run one repeat of this workload")
    parser.add_argument("--seconds", type=float, help="measuring time of one repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=pathlib.Path, default=OUT / "bench.json")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    # The program under test is this checkout's own source tree.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    return run_all(args.seed, args.seconds, args.output)


if __name__ == "__main__":
    sys.exit(main())
