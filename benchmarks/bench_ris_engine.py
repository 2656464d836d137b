#!/usr/bin/env python
"""Micro-benchmark: scalar vs batched reverse-reachable (RR) set sampling.

Times the scalar per-set sampler retained on ``TIMPlusSelector``
(``_sample_rr_set`` — Python frontier loops, one RR set at a time) against
the vectorized :class:`repro.sketches.sampler.BatchRRSampler` drawing the
same number of sets block-wise, and also times the greedy max-coverage
over the batched collection.  Writes a JSON perf record so future PRs have
a trajectory to track.

The headline configuration mirrors the acceptance target of the RIS-sketch
PR: IC model on a 10k-node weighted-cascade BA graph, theta = 50,000 RR
sets, required sampling speedup >= 10x.

Run with::

    PYTHONPATH=src python benchmarks/bench_ris_engine.py
    PYTHONPATH=src python benchmarks/bench_ris_engine.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.algorithms.tim import TIMPlusSelector
from repro.graphs.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.sketches import BatchRRSampler, RRSetCollection, greedy_max_coverage

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ris_engine.json"

#: Required sampling speedup of the headline configuration (the PR bar).
TARGET_SPEEDUP = 10.0

BLOCK_SIZE = 2048


def time_scalar(compiled, model, theta, seed=0, repeats=3):
    """The pre-sketch path: one Python-frontier RR set per iteration."""
    best = float("inf")
    mean_size = 0.0
    for _ in range(repeats):
        selector = TIMPlusSelector(model=model, seed=seed)
        probabilities = selector._in_probabilities(compiled)
        rng = selector._rng
        n = compiled.number_of_nodes
        total_members = 0
        start = time.perf_counter()
        for _ in range(theta):
            root = int(rng.integers(0, n))
            members, _ = selector._sample_rr_set(compiled, probabilities, root)
            total_members += len(members)
        best = min(best, time.perf_counter() - start)
        mean_size = total_members / theta
    return best, mean_size


def time_batch(compiled, model, theta, seed=0, repeats=5):
    """Block-wise batched sampling into an RRSetCollection."""
    best = float("inf")
    collection = None
    for _ in range(repeats):
        sampler = BatchRRSampler(compiled, model)
        candidate = RRSetCollection(compiled.number_of_nodes)
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        sampler.sample_into(rng, candidate, theta, BLOCK_SIZE)
        best = min(best, time.perf_counter() - start)
        collection = candidate
    return best, collection


def build_configs(smoke: bool):
    scale = 10 if smoke else 1
    return [
        {
            "name": "ba-10k-wc-ic-50k",
            "headline": True,
            "graph": "barabasi_albert",
            "nodes": 10_000 // scale,
            "model": "ic",
            "theta": 50_000 // scale,
        },
        {
            "name": "er-5k-wc-ic-20k",
            "headline": False,
            "graph": "erdos_renyi",
            "nodes": 5_000 // scale,
            "model": "ic",
            "theta": 20_000 // scale,
        },
        {
            "name": "ba-10k-lt-20k",
            "headline": False,
            "graph": "barabasi_albert",
            "nodes": 10_000 // scale,
            "model": "lt",
            "theta": 20_000 // scale,
        },
    ]


def build_graph(kind: str, nodes: int, seed: int = 1):
    if kind == "barabasi_albert":
        graph = barabasi_albert_graph(nodes, 3, seed=seed)
    else:
        graph = erdos_renyi_graph(nodes, 6.0 / nodes, seed=seed)
    graph.set_weighted_cascade_probabilities()
    return graph


def run(smoke: bool, output: pathlib.Path) -> dict:
    records = []
    for config in build_configs(smoke):
        graph = build_graph(config["graph"], config["nodes"])
        compiled = graph.compile()
        theta = config["theta"]

        scalar_seconds, scalar_mean_size = time_scalar(
            compiled, config["model"], theta
        )
        batch_seconds, collection = time_batch(compiled, config["model"], theta)

        cover_start = time.perf_counter()
        seeds, covered_fraction = greedy_max_coverage(collection, 10)
        cover_seconds = time.perf_counter() - cover_start

        record = {
            **config,
            "edges": compiled.number_of_edges,
            "scalar_seconds": round(scalar_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "speedup": round(scalar_seconds / batch_seconds, 2),
            "scalar_mean_set_size": round(scalar_mean_size, 2),
            "batch_mean_set_size": round(
                collection.members.size / collection.num_sets, 2
            ),
            "cover_seconds": round(cover_seconds, 4),
            "cover_seeds": len(seeds),
            "covered_fraction": round(covered_fraction, 4),
        }
        records.append(record)
        print(
            f"{record['name']:>18s}: scalar {scalar_seconds:7.3f}s  "
            f"batch {batch_seconds:7.3f}s  speedup {record['speedup']:6.2f}x  "
            f"cover {cover_seconds:6.3f}s  "
            f"(mean |RR| {scalar_mean_size:.1f} vs "
            f"{record['batch_mean_set_size']:.1f})"
        )

    headline = next(r for r in records if r["headline"])
    report = {
        "benchmark": "bench_ris_engine",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "block_size": BLOCK_SIZE,
        "target_speedup": TARGET_SPEEDUP,
        "headline_speedup": headline["speedup"],
        "headline_meets_target": headline["speedup"] >= TARGET_SPEEDUP,
        "records": records,
    }
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="scale everything down ~10x for a CI smoke run",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON perf record (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args()
    report = run(args.smoke, args.output)
    if not args.smoke and not report["headline_meets_target"]:
        print(
            f"WARNING: headline speedup {report['headline_speedup']}x is below "
            f"the {TARGET_SPEEDUP}x target"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
