#!/usr/bin/env python
"""Quickstart: opinion-aware influence maximization in a dozen lines.

The script reproduces the paper's running example (Figure 1 / Example 2):
under the classical IC model the best single seed is ``C`` (highest expected
number of activations), but once opinions and interactions are taken into
account (the OI model and the MEO objective) the best seed flips to ``A`` —
seeding ``C`` would mostly spread *negative* opinion.

It then runs the same pipeline on a synthetic NetHEPT-like graph through the
declarative experiment API: describe the whole experiment as one
JSON-round-trippable :class:`repro.ExperimentSpec`, execute it with
:func:`repro.run_experiment`, and inspect the :class:`repro.RunResult`
(seeds, objective value, k-sweep curve, full provenance).  The same spec is
checked in at ``examples/specs/quickstart_meo.json`` and runs from the shell
with ``repro run``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import repro


def figure1_example() -> None:
    print("=" * 70)
    print("Part 1 — the paper's Figure 1 example")
    print("=" * 70)
    graph = repro.figure1_example_graph()
    print(f"Graph: {graph}")
    for node in graph.nodes():
        print(f"  node {node}: opinion={graph.opinion(node):+.1f}")

    engine_ic = repro.MonteCarloEngine(graph, "ic", simulations=5000, seed=1)
    engine_oi = repro.MonteCarloEngine(graph, "oi-ic", simulations=5000, seed=1)
    print("\nPer-node expected spread (IC) and opinion spread (OI):")
    for node in ["A", "B", "C", "D"]:
        sigma = engine_ic.expected_spread([node])
        sigma_o = engine_oi.expected_opinion_spread([node])
        print(f"  seed {node}:  sigma={sigma:6.3f}   sigma_o={sigma_o:+.3f}")

    def run(model: str, algorithm: str, objective: str) -> repro.RunResult:
        # The graph is built in memory and passed to run_experiment; the
        # spec's graph entry only records where it would be read from.
        spec = repro.ExperimentSpec(
            name=f"figure1-{algorithm}",
            graph=repro.GraphSpec(edge_list="figure1.edges"),
            model=repro.ModelSpec(name=model),
            algorithm=repro.AlgorithmSpec(name=algorithm),
            budget=1,
            seed=1,
            evaluation=repro.EvalSpec(
                objective=objective,
                estimator=repro.EstimatorSpec(backend="monte-carlo",
                                              simulations=2000, engine_seed=1),
            ),
        )
        return repro.run_experiment(spec, graph=graph)

    ic_result = run("ic", "greedy", "spread")
    meo_result = run("oi-ic", "osim", "effective-opinion")
    print(f"\nIC / classical IM picks:   {ic_result.seeds}  "
          f"(expected spread {ic_result.value:.3f})")
    print(f"OI / MEO (OSIM) picks:     {meo_result.seeds}  "
          f"(expected effective opinion spread {meo_result.value:+.3f})")
    print("=> the opinion-aware model avoids seeding the node that spreads "
          "negative opinion.\n")


def synthetic_dataset_example() -> None:
    print("=" * 70)
    print("Part 2 — a NetHEPT-like synthetic graph, declaratively")
    print("=" * 70)
    spec = repro.ExperimentSpec(
        name="quickstart-meo-osim",
        graph=repro.GraphSpec(dataset="nethept", scale=0.5, seed=7,
                              annotate=True, opinion="normal"),
        model=repro.ModelSpec(name="oi-ic"),
        algorithm=repro.AlgorithmSpec(name="osim",
                                      options={"max_path_length": 3}),
        budget=10,
        seed=1,
        evaluation=repro.EvalSpec(
            objective="effective-opinion",
            penalty=1.0,
            seed_counts=[0, 5, 10],
            estimator=repro.EstimatorSpec(backend="monte-carlo",
                                          simulations=500, engine_seed=1),
        ),
    )
    # Specs are data: they round-trip through JSON bit-for-bit, so the same
    # experiment can be checked in and executed with `repro run`.
    assert repro.ExperimentSpec.from_json(spec.to_json()) == spec

    result = repro.run_experiment(spec)
    print(f"Dataset: {result.dataset}  n={result.provenance['n']}  "
          f"m={result.provenance['m']}")
    print(f"\nOSIM seeds (k=10): {result.seeds}")
    print(f"Expected effective opinion spread: {result.value:+.3f}")
    print(f"k-sweep: {result.curve}")
    print(f"Selection time: {result.timings['selection_seconds'] * 1000:.1f} ms")
    print(f"Graph fingerprint: {result.provenance['graph_fingerprint'][:16]}…")

    # The estimator protocol is directly usable for ad-hoc comparisons: the
    # same Monte-Carlo backend evaluates a structural baseline's seeds.
    graph = spec.graph.build()
    baseline = repro.get_algorithm("high-degree").select(graph, 10)
    estimator = repro.build_estimator(
        repro.EstimatorSpec(backend="monte-carlo", simulations=500,
                            engine_seed=1),
        graph, "oi-ic", objective="effective-opinion", penalty=1.0,
    )
    print(f"High-degree baseline spread:       "
          f"{estimator.estimate(baseline.seeds):+.3f}")


if __name__ == "__main__":
    figure1_example()
    synthetic_dataset_example()
