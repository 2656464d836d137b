"""Tests for the unified experiment API: specs, estimators, run_experiment.

Covers the spec layer's JSON round-trips (including a property-based
ExperimentSpec -> dict -> ExperimentSpec equality check), schema-style
validation errors, capability negotiation (registry metadata instead of
frozensets), backend equivalence (Monte-Carlo vs sketch within 3 sigma on
the same seed set), the invariants the one RR-sketch backend rests on,
regression against the pre-redesign entry points, the deprecation shims,
the public-export audit and the rebuilt CLI.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    RESULT_SCHEMA,
    MonteCarloEstimator,
    RunResult,
    ScoreEstimator,
    SketchEstimator,
    SpreadEstimator,
    build_estimator,
    build_selector,
    estimator_capabilities,
    run_experiment,
)
from repro.algorithms.registry import (
    algorithm_capabilities,
    available_algorithms,
)
from repro.cli import main as cli_main
from repro.datasets.registry import load_dataset
from repro.diffusion.registry import base_model_layer
from repro.diffusion.simulation import MonteCarloEngine
from repro.exceptions import (
    BudgetError,
    ConfigurationError,
    MissingAnnotationError,
    SpecError,
)
from repro.serving import InfluenceIndex
from repro.specs import (
    ESTIMATOR_BACKENDS,
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
    load_experiment_spec,
)


@pytest.fixture(scope="module")
def nethept():
    return load_dataset("nethept", scale=0.1, seed=1)


@pytest.fixture(scope="module")
def nethept_compiled(nethept):
    return nethept.compile()


def _small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="test",
        graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
        model=ModelSpec(name="wc"),
        algorithm=AlgorithmSpec(name="easyim", options={"max_path_length": 3}),
        budget=5,
        seed=0,
        evaluation=EvalSpec(
            estimator=EstimatorSpec(backend="sketch", theta=4000)
        ),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------- round trips


class TestSpecRoundTrips:
    def test_dict_round_trip(self):
        spec = _small_spec(evaluation=EvalSpec(seed_counts=[0, 2, 5]))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_exact(self):
        spec = _small_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _small_spec()
        path = spec.save(tmp_path / "spec.json")
        assert load_experiment_spec(path) == spec

    def test_shorthand_forms(self):
        spec = ExperimentSpec.from_dict(
            {
                "graph": {"dataset": "nethept", "scale": 0.1},
                "model": "wc",
                "algorithm": "high-degree",
                "budget": 3,
                "evaluation": {"estimator": "sketch"},
            }
        )
        assert spec.model == ModelSpec(name="wc")
        assert spec.algorithm == AlgorithmSpec(name="high-degree")
        assert spec.evaluation.estimator == EstimatorSpec(backend="sketch")

    def test_seeds_spec_round_trip(self):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
            model=ModelSpec(name="ic"),
            seeds=[0, 1, "labelled"],
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=40, deadline=None)
    @given(
        dataset=st.sampled_from(["nethept", "hepph", "dblp"]),
        scale=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
        graph_seed=st.integers(min_value=0, max_value=2**31 - 1),
        model=st.sampled_from(["ic", "wc", "lt", "oi-ic", "oi-wc", "icn", "oc"]),
        algorithm=st.sampled_from(
            ["easyim", "osim", "tim+", "imm", "greedy", "high-degree", "random"]
        ),
        budget=st.integers(min_value=1, max_value=50),
        selection_seed=st.none() | st.integers(min_value=0, max_value=1000),
        objective=st.sampled_from(["spread", "opinion", "effective-opinion"]),
        penalty=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        backend=st.sampled_from(ESTIMATOR_BACKENDS),
        simulations=st.integers(min_value=1, max_value=10_000),
        theta=st.integers(min_value=1, max_value=100_000),
        annotate=st.booleans(),
        notes=st.text(max_size=40),
    )
    def test_property_round_trip(
        self, dataset, scale, graph_seed, model, algorithm, budget,
        selection_seed, objective, penalty, backend, simulations, theta,
        annotate, notes,
    ):
        spec = ExperimentSpec(
            name="prop",
            graph=GraphSpec(
                dataset=dataset, scale=scale, seed=graph_seed, annotate=annotate
            ),
            model=ModelSpec(name=model),
            algorithm=AlgorithmSpec(name=algorithm),
            budget=budget,
            seed=selection_seed,
            evaluation=EvalSpec(
                objective=objective,
                penalty=penalty,
                seed_counts=[0, budget],
                estimator=EstimatorSpec(
                    backend=backend, simulations=simulations, theta=theta
                ),
            ),
            notes=notes,
        )
        # Through plain dicts *and* through the JSON text form.
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec


# ------------------------------------------------------------ validation errors


class TestSpecValidation:
    def test_graph_requires_exactly_one_source(self):
        with pytest.raises(SpecError, match="exactly one of 'dataset'"):
            GraphSpec()
        with pytest.raises(SpecError, match="exactly one of 'dataset'"):
            GraphSpec(dataset="nethept", edge_list="x.txt")

    def test_error_messages_lead_with_dotted_path(self):
        with pytest.raises(SpecError, match=r"^graph\.scale: must be > 0"):
            GraphSpec(dataset="nethept", scale=-1)
        with pytest.raises(SpecError, match=r"^estimator\.theta: must be >= 1"):
            EstimatorSpec(theta=0)
        with pytest.raises(
            SpecError, match=r"^experiment\.graph\.dataset: unknown dataset"
        ):
            ExperimentSpec.from_dict(
                {"graph": {"dataset": "nope"}, "algorithm": "easyim", "budget": 1}
            )

    def test_shorthand_errors_carry_the_full_path(self):
        with pytest.raises(SpecError, match=r"^experiment\.model\.name"):
            ExperimentSpec.from_dict(
                {"graph": {"dataset": "nethept"}, "model": "bogus",
                 "algorithm": "easyim", "budget": 1}
            )
        with pytest.raises(
            SpecError, match=r"^experiment\.evaluation\.estimator\.backend"
        ):
            ExperimentSpec.from_dict(
                {"graph": {"dataset": "nethept"}, "algorithm": "easyim",
                 "budget": 1, "evaluation": {"estimator": "bogus"}}
            )

    def test_unknown_fields_rejected_with_valid_list(self):
        with pytest.raises(SpecError, match=r"unknown field\(s\) 'scal'.*scale"):
            GraphSpec.from_dict({"dataset": "nethept", "scal": 2})

    @pytest.mark.parametrize(
        "backend",
        # "index" and the former aliases are no longer spellings of a backend.
        ["bogus", "index", "mc", "montecarlo", "ris", "rr-sketch", "serving",
         "score-engine"],
    )
    def test_unknown_backend_lists_the_backends(self, backend):
        with pytest.raises(
            SpecError, match=r"available: monte-carlo, sketch, score$"
        ):
            EstimatorSpec(backend=backend)

    def test_unknown_algorithm_and_model(self):
        with pytest.raises(SpecError, match="unknown algorithm"):
            AlgorithmSpec(name="bogus")
        with pytest.raises(SpecError, match="unknown diffusion model"):
            ModelSpec(name="bogus")

    def test_budget_and_seeds_are_mutually_exclusive(self):
        graph = GraphSpec(dataset="nethept")
        with pytest.raises(SpecError, match="exactly one of 'algorithm'"):
            ExperimentSpec(graph=graph)
        with pytest.raises(SpecError, match="budget.*required"):
            ExperimentSpec(graph=graph, algorithm=AlgorithmSpec(name="easyim"))
        with pytest.raises(SpecError, match="implied by the explicit seed list"):
            ExperimentSpec(graph=graph, seeds=[1, 2], budget=2)

    def test_budget_and_penalty_bounds(self, nethept):
        with pytest.raises(SpecError, match=r"^experiment\.budget: must be >= 1"):
            _small_spec(budget=0)
        with pytest.raises(SpecError, match=r"^evaluation\.penalty: must be >= 0"):
            EvalSpec(penalty=-0.5)
        with pytest.raises(BudgetError):
            run_experiment(_small_spec(budget=nethept.number_of_nodes + 1))

    def test_seed_counts_cannot_exceed_budget(self):
        with pytest.raises(SpecError, match=r"seed_counts\[1\].*exceeds"):
            _small_spec(evaluation=EvalSpec(seed_counts=[1, 10]))

    def test_artifact_only_for_sketch_backend(self):
        with pytest.raises(SpecError, match="only meaningful for the 'sketch'"):
            EstimatorSpec(backend="monte-carlo", artifact="x.npz")

    def test_invalid_label_type(self):
        with pytest.raises(SpecError, match=r"seeds\[1\].*labels"):
            ExperimentSpec(
                graph=GraphSpec(dataset="nethept"), seeds=[1, 2.5]
            )


# ------------------------------------------------------ capability negotiation


class TestCapabilities:
    def test_registry_table_covers_every_algorithm(self):
        table = algorithm_capabilities()
        assert sorted(table) == available_algorithms()
        assert table["tim+"]["supported_models"] == ["ic", "lt", "wc"]
        assert table["osim"]["opinion_aware"] is True
        assert "supported_models" not in table["greedy"]

    def test_opinion_aware_set_derived_from_metadata(self):
        from repro.algorithms.registry import OPINION_AWARE_ALGORITHMS

        assert OPINION_AWARE_ALGORITHMS == frozenset({"osim", "modified-greedy"})

    def test_base_model_layer(self):
        assert base_model_layer("oi-lt") == "lt"
        assert base_model_layer("oi-wc") == "wc"
        # OC activates under LT (repro.diffusion.oc).
        assert base_model_layer("oc") == "lt"
        assert base_model_layer("ic") == "ic"
        # Segment match, not suffix: the LT-equivalent live-edge sampler
        # must score under LT weights, not IC.
        assert base_model_layer("lt-live-edge") == "lt"

    def test_score_estimator_scores_oc_under_lt(self, nethept_compiled):
        estimator = ScoreEstimator(nethept_compiled, "oc", objective="opinion")
        assert estimator.describe()["weighting"] == "lt"

    def test_selector_rejects_unsupported_model_with_list(self):
        with pytest.raises(ConfigurationError, match="only supports the ic/lt/wc"):
            build_selector(AlgorithmSpec(name="tim+"), model="oi-ic")

    def test_selector_injects_by_capability(self, nethept_compiled):
        selector = build_selector(
            AlgorithmSpec(name="greedy", options={"simulations": 10}),
            model="ic",
            objective="spread",
            penalty=2.0,
            seed=7,
        )
        assert selector.simulations == 10
        assert selector.penalty == 2.0
        # Explicit options always win over injected context.
        selector = build_selector(
            AlgorithmSpec(name="greedy", options={"simulations": 10, "penalty": 0.5}),
            model="ic",
            penalty=2.0,
        )
        assert selector.penalty == 0.5

    def test_estimator_negotiation_rejects_opinion_models(self, nethept_compiled):
        with pytest.raises(ConfigurationError, match="monte-carlo"):
            build_estimator("sketch", nethept_compiled, "oi-ic")
        with pytest.raises(ConfigurationError, match="objective 'opinion'"):
            build_estimator("sketch", nethept_compiled, "ic", objective="opinion")

    def test_estimator_requires_model_unless_artifact(self, nethept_compiled):
        with pytest.raises(ConfigurationError, match="requires a diffusion model"):
            build_estimator("sketch", nethept_compiled, None)

    def test_score_backend_refuses_non_default_penalty(self, nethept_compiled):
        with pytest.raises(ConfigurationError, match="cannot apply penalty"):
            build_estimator(
                "score", nethept_compiled, "oi-ic",
                objective="effective-opinion", penalty=0.5,
            )
        # penalty 1.0 (the identity) and non-penalised objectives still work.
        build_estimator("score", nethept_compiled, "ic", objective="spread",
                        penalty=0.5)

    def test_monte_carlo_sweep_matches_per_prefix_estimates(self, nethept_compiled):
        seeds = [0, 1, 2, 3]

        def estimator():
            return MonteCarloEstimator(nethept_compiled, "wc", simulations=100, seed=4)

        sweep = estimator().sweep(seeds, [0, 2, 4])
        assert list(sweep) == [0, 2, 4]
        assert sweep[0] == 0.0
        # A sweep is a fresh engine estimating each prefix in order.
        replay = estimator()
        assert sweep[2] == replay.estimate(seeds[:2])
        assert sweep[4] == replay.estimate(seeds)

    def test_sweep_rejects_counts_beyond_the_seed_list(self, nethept_compiled):
        estimator = MonteCarloEstimator(nethept_compiled, "wc", simulations=10)
        with pytest.raises(ConfigurationError, match="outside 0..3"):
            estimator.sweep([0, 1, 2], [5])

    def test_sketch_sweep_matches_per_prefix_estimates(self, nethept_compiled):
        estimator = SketchEstimator(nethept_compiled, "wc", theta=3000, seed=8)
        seeds = [0, 1, 2, 3, 4]
        sweep = estimator.sweep(seeds, [0, 2, 5])
        assert sweep[0] == 0.0
        assert sweep[2] == pytest.approx(estimator.estimate(seeds[:2]))
        assert sweep[5] == pytest.approx(estimator.estimate(seeds))

    def test_capability_table_shape(self):
        table = estimator_capabilities()
        assert tuple(table) == ESTIMATOR_BACKENDS == ("monte-carlo", "sketch", "score")
        assert table["score"]["sigma_comparable"] is False

    def test_run_experiment_runs_ris_algorithms_on_base_models(self):
        # Regression: the capability path must hand TIM+/IMM the model *name*
        # (their constructors reject model instances) when the experiment
        # model is already a supported base layer.
        result = run_experiment(_small_spec(
            budget=3,
            algorithm=AlgorithmSpec(
                name="tim+", options={"epsilon": 0.4, "max_rr_sets": 2000}
            ),
        ))
        assert len(result.seeds) == 3

    def test_index_artifact_model_mismatch_is_refused(
        self, nethept_compiled, tmp_path
    ):
        index = InfluenceIndex.build(nethept_compiled, "ic", 500, engine_seed=0)
        artifact = index.save(tmp_path / "ic.npz")
        spec = EstimatorSpec(backend="sketch", artifact=str(artifact))
        with pytest.raises(ConfigurationError, match="sampled under model 'ic'"):
            build_estimator(spec, nethept_compiled, "wc")
        # Without a requested model the artifact's own model is authoritative.
        estimator = build_estimator(spec, nethept_compiled, None)
        assert estimator.model == "ic"

    def test_ris_algorithm_in_opinion_experiment_names_its_layer(self):
        # TIM+ only samples the opinion-oblivious layers: an OI experiment
        # selects with it by naming the layer, and evaluates under OI.
        spec = _small_spec(
            graph=GraphSpec(dataset="nethept", scale=0.1, seed=1, annotate=True),
            model=ModelSpec(name="oi-ic"),
            budget=2,
            algorithm=AlgorithmSpec(
                name="tim+",
                options={"model": "ic", "epsilon": 0.4, "max_rr_sets": 1000},
            ),
            evaluation=EvalSpec(
                objective="effective-opinion",
                estimator=EstimatorSpec(backend="monte-carlo", simulations=50),
            ),
        )
        result = run_experiment(spec)
        assert len(result.seeds) == 2
        assert result.model == "oi-ic"


# ---------------------------------------------------------- backend equivalence


class TestBackendEquivalence:
    def test_mc_and_sketch_agree_within_3_sigma(self, nethept_compiled):
        seeds = repro.get_algorithm("high-degree").select(nethept_compiled, 5).seeds
        simulations, theta = 4000, 40_000
        n = nethept_compiled.number_of_nodes

        mc = MonteCarloEstimator(
            nethept_compiled, "wc", simulations=simulations, seed=3
        )
        sketch = SketchEstimator(nethept_compiled, "wc", theta=theta, seed=4)

        estimate = mc.engine.estimate(seeds)
        se_mc = estimate.spread_std / math.sqrt(simulations)
        values = {
            "monte-carlo": mc.estimate(seeds),
            "sketch": sketch.estimate(seeds),
        }
        p = (values["sketch"] + len(seeds)) / n
        se_ris = n * math.sqrt(max(p * (1 - p), 1e-12) / theta)
        tolerance = 3.0 * math.sqrt(se_mc**2 + se_ris**2)
        assert abs(values["sketch"] - values["monte-carlo"]) < tolerance, (
            values, tolerance,
        )

    def test_same_spec_different_backends_one_protocol(self, nethept_compiled):
        # The acceptance check: one ExperimentSpec, executed against the
        # Monte-Carlo and sketch backends, returns consistent spreads
        # and identical seeds, all through the SpreadEstimator protocol.
        base = _small_spec(
            algorithm=AlgorithmSpec(name="tim+", options={"epsilon": 0.4,
                                                          "max_rr_sets": 20_000}),
            model=ModelSpec(name="wc"),
        ).to_dict()
        results = {}
        for backend, config in {
            "monte-carlo": {"backend": "monte-carlo", "simulations": 3000},
            "sketch": {"backend": "sketch", "theta": 30_000},
        }.items():
            spec = ExperimentSpec.from_dict(
                {**base, "evaluation": {"estimator": config}}
            )
            result = run_experiment(spec)
            assert isinstance(
                build_estimator(
                    EstimatorSpec(**config), nethept_compiled, "wc"
                ),
                SpreadEstimator,
            )
            assert result.backend == backend
            results[backend] = result
        seed_sets = {tuple(r.seeds) for r in results.values()}
        assert len(seed_sets) == 1, "same spec must select the same seeds"
        values = [r.value for r in results.values()]
        assert max(values) - min(values) < 0.2 * max(values) + 5.0

    @pytest.mark.parametrize(
        "method, args",
        [
            ("estimate", (["no-such-node"],)),
            ("details", (["no-such-node"],)),
            ("sweep", (["no-such-node"], [1])),
            # The unknown label lies outside every requested prefix.
            ("sweep", ([0, "no-such-node"], [0, 1])),
        ],
        ids=["estimate", "details", "sweep", "sweep-outside-prefix"],
    )
    @pytest.mark.parametrize("backend", ESTIMATOR_BACKENDS)
    def test_unknown_seed_raises_configuration_error(
        self, nethept_compiled, backend, method, args
    ):
        estimator = build_estimator(
            EstimatorSpec(backend=backend, simulations=10, theta=200),
            nethept_compiled,
            "wc",
        )
        with pytest.raises(ConfigurationError, match="'no-such-node' is not a node"):
            getattr(estimator, method)(*args)

    def test_score_backend_is_flagged_heuristic(self, nethept_compiled):
        spec = ExperimentSpec.from_dict(
            {**_small_spec().to_dict(), "evaluation": {"estimator": "score"}}
        )
        result = run_experiment(spec)
        assert result.provenance["estimator"]["sigma_comparable"] is False
        assert result.spreads == {"score": pytest.approx(result.value)}


# ------------------------------------------------- the one RR-sketch backend


@pytest.mark.parametrize("model", ["ic", "wc", "lt"])
class TestSketchIndexInvariants:
    """An in-memory sketch estimator is the index a build would have made.

    ``sample_into`` draws 4 * block_size tokens per call and ``grow`` draws
    block_size, so the small block size makes the two chunkings differ.
    """

    THETA, BLOCK, SEED = 1000, 64, 11

    def _estimator(self, graph, model) -> SketchEstimator:
        return SketchEstimator(
            graph, model, theta=self.THETA, block_size=self.BLOCK, seed=self.SEED
        )

    def _build(self, graph, model, theta) -> InfluenceIndex:
        return InfluenceIndex.build(
            graph, model, theta, engine_seed=self.SEED, block_size=self.BLOCK
        )

    def test_collection_equals_index_build(self, nethept_compiled, model):
        estimator = self._estimator(nethept_compiled, model)
        built = self._build(nethept_compiled, model, self.THETA)
        assert estimator.index.collection == built.collection

    def test_grown_collection_equals_fresh_build(self, nethept_compiled, model):
        estimator = self._estimator(nethept_compiled, model)
        estimator.index.grow(2500)
        fresh = self._build(nethept_compiled, model, 2500)
        assert estimator.index.collection == fresh.collection

    @pytest.mark.parametrize("mmap", [True, False])
    def test_artifact_serves_the_same_sweep(
        self, nethept_compiled, model, mmap, tmp_path
    ):
        in_memory = self._estimator(nethept_compiled, model)
        artifact = str(in_memory.index.save(tmp_path / f"{model}.npz"))
        loaded = build_estimator(
            EstimatorSpec(backend="sketch", artifact=artifact, mmap=mmap),
            nethept_compiled,
            model,
        )
        seeds = repro.get_algorithm("high-degree").select(nethept_compiled, 5).seeds
        counts = [0, 1, 3, 5]
        assert loaded.sweep(seeds, counts) == in_memory.sweep(seeds, counts)
        assert loaded.details(seeds) == in_memory.details(seeds)
        expected = {
            **in_memory.describe(), "artifact": artifact, "memory_mapped": mmap,
        }
        assert loaded.describe() == expected


# ---------------------------------------------------------- regression vs old


class TestRegressionAgainstOldEntryPoints:
    def test_run_experiment_matches_direct_selector(self, nethept):
        spec = _small_spec()
        result = run_experiment(spec)
        selector = repro.get_algorithm(
            "easyim", max_path_length=3, model="wc", seed=0
        )
        assert result.seeds == selector.select(nethept.compile(), 5).seeds

    def test_mc_value_matches_engine(self, nethept_compiled):
        seeds = [0, 1, 2]
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
            model=ModelSpec(name="wc"),
            seeds=seeds,
            evaluation=EvalSpec(
                estimator=EstimatorSpec(
                    backend="monte-carlo", simulations=300, engine_seed=6
                )
            ),
        )
        result = run_experiment(spec)
        engine = MonteCarloEngine(nethept_compiled, "wc", simulations=300, seed=6)
        assert result.value == pytest.approx(engine.estimate(seeds).spread)

    def test_sketch_estimator_matches_influence_index(self, nethept_compiled):
        seeds = [0, 1, 2]
        index = InfluenceIndex.build(nethept_compiled, "wc", 5000, engine_seed=2)
        estimator = SketchEstimator(nethept_compiled, "wc", theta=5000, seed=2)
        raw = index.estimate_spread(seeds)
        assert estimator.estimate(seeds) == pytest.approx(max(raw - 3, 0.0))

    def test_score_estimator_telescopes_residual_scores(self, nethept_compiled):
        from repro.scoring import ScoreEngine

        seeds = [5, 9, 11]
        estimator = ScoreEstimator(nethept_compiled, "ic")
        engine = ScoreEngine(nethept_compiled, algorithm="easyim",
                             max_path_length=3, weighting="ic")
        expected = 0.0
        for node in nethept_compiled.indices_for(seeds):
            expected += engine.score_of(node)
            engine.mark_active([node])
        assert estimator.estimate(seeds) == pytest.approx(expected)
        sweep = estimator.sweep(seeds, [0, 1, 3])
        assert sweep[0] == 0.0 and sweep[3] == pytest.approx(expected)


# ------------------------------------------------------------------ RunResult


class TestRunResult:
    def test_payload_schema_and_round_trip(self):
        result = run_experiment(
            _small_spec(evaluation=EvalSpec(
                seed_counts=[0, 5],
                estimator=EstimatorSpec(backend="sketch", theta=2000),
            ))
        )
        payload = result.to_payload()
        assert payload["schema"] == RESULT_SCHEMA
        for key in ("query", "dataset", "algorithm", "model", "objective",
                    "backend", "budget", "seeds", "value", "curve",
                    "timings", "provenance"):
            assert key in payload, key
        assert payload["provenance"]["spec"] == result.spec.to_dict()
        rehydrated = RunResult.from_json(result.to_json())
        assert rehydrated.seeds == [str(s) for s in result.seeds]
        assert rehydrated.curve == {
            k: round(v, 3) for k, v in result.curve.items()
        }
        assert rehydrated.backend == result.backend

    def test_provenance_carries_fingerprint_and_seeds(self, nethept_compiled):
        from repro.graphs.fingerprint import graph_fingerprint

        result = run_experiment(_small_spec())
        assert result.provenance["graph_fingerprint"] == graph_fingerprint(
            nethept_compiled
        )
        assert result.provenance["selection_seed"] == 0
        assert result.provenance["estimator"]["engine_seed"] == 0
        assert result.provenance["library_version"] == repro.__version__

    def test_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            RunResult.from_payload({"schema": "something-else"})

    def test_result_iterates_over_seeds(self):
        result = run_experiment(_small_spec(budget=3))
        assert len(result) == 3
        assert list(result) == result.seeds

    def test_run_experiment_rejects_non_spec(self):
        with pytest.raises(ConfigurationError, match="must be an ExperimentSpec"):
            run_experiment({"graph": {"dataset": "nethept"}})

    @pytest.mark.parametrize("objective", ["opinion", "effective-opinion"])
    def test_opinion_objective_requires_annotation(self, objective, monkeypatch):
        # Unannotated opinions compile to 0, so the run would quietly
        # report 0.0; it must refuse before selecting anything.
        def no_selection(*args, **kwargs):
            raise AssertionError("selection ran on an unannotated graph")

        monkeypatch.setattr(repro.api, "build_selector", no_selection)
        spec = _small_spec(
            model=ModelSpec(name="oi-ic"),
            evaluation=EvalSpec(
                objective=objective,
                estimator=EstimatorSpec(backend="monte-carlo", simulations=20),
            ),
        )
        with pytest.raises(MissingAnnotationError, match="opinion"):
            run_experiment(spec)

    def test_opinion_objective_under_ic_is_allowed(self):
        # Figs. 5(a)/(b) read the opinion spread that IC predicts: the check
        # is about annotations, not about the model being opinion-aware.
        spec = _small_spec(
            graph=GraphSpec(dataset="nethept", scale=0.1, seed=1, annotate=True),
            model=ModelSpec(name="ic"),
            evaluation=EvalSpec(
                objective="opinion",
                estimator=EstimatorSpec(backend="monte-carlo", simulations=20),
            ),
        )
        assert np.isfinite(run_experiment(spec).value)

    def test_paper_example_2_on_figure1(self):
        # Example 2: classical IM (IC, greedy) seeds C, which spreads the
        # most but drags opinions negative; MEO under OI (OSIM) seeds A.
        graph = repro.figure1_example_graph()

        def seeds(model: str, algorithm: str, objective: str) -> list:
            spec = ExperimentSpec(
                graph=GraphSpec(edge_list="figure1.edges"),
                model=model,
                algorithm=algorithm,
                budget=1,
                evaluation=EvalSpec(
                    objective=objective,
                    estimator=EstimatorSpec(backend="monte-carlo", simulations=400),
                ),
            )
            return run_experiment(spec, graph=graph).seeds

        assert seeds("ic", "greedy", "spread") == ["C"]
        assert seeds("oi-ic", "osim", "effective-opinion") == ["A"]


# ------------------------------------------------------------ public exports


class TestPublicExports:
    def test_all_exports_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert not missing
        for name in ("ExperimentSpec", "GraphSpec", "ModelSpec",
                     "AlgorithmSpec", "EstimatorSpec", "EvalSpec",
                     "run_experiment", "RunResult", "SpreadEstimator",
                     "build_estimator", "load_experiment_spec", "SpecError"):
            assert name in repro.__all__, name


# ------------------------------------------------------------------------- CLI


class TestUnifiedCLI:
    def test_run_command_executes_spec_file(self, tmp_path, capsys):
        path = _small_spec(
            evaluation=EvalSpec(
                seed_counts=[0, 5],
                estimator=EstimatorSpec(backend="sketch", theta=2000),
            )
        ).save(tmp_path / "spec.json")
        assert cli_main(["run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == RESULT_SCHEMA
        assert len(payload["seeds"]) == 5
        assert set(payload["curve"]) == {"0", "5"}
        assert payload["provenance"]["spec"]["name"] == "test"

    def test_run_validate_only(self, tmp_path, capsys):
        path = _small_spec().save(tmp_path / "spec.json")
        assert cli_main(["run", str(path), "--validate-only"]) == 0
        assert "is valid" in capsys.readouterr().out

    def test_run_rejects_invalid_spec_with_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"graph": {"dataset": "nethept",
                                             "scale": -2},
                                   "algorithm": "easyim", "budget": 2}))
        with pytest.raises(SpecError, match=r"graph\.scale"):
            cli_main(["run", str(bad)])
        with pytest.raises(SpecError, match="does not exist"):
            cli_main(["run", str(tmp_path / "missing.json")])

    def test_select_and_evaluate_share_the_schema(self, capsys):
        assert cli_main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "easyim", "--budget", "3", "--simulations", "50",
            "--json",
        ]) == 0
        select_payload = json.loads(capsys.readouterr().out)
        assert cli_main([
            "evaluate", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "ic", "--seeds", "0,1,2", "--simulations", "50", "--json",
        ]) == 0
        evaluate_payload = json.loads(capsys.readouterr().out)
        for payload in (select_payload, evaluate_payload):
            assert payload["schema"] == RESULT_SCHEMA
            assert payload["backend"] == "monte-carlo"
            assert "graph_fingerprint" in payload["provenance"]
            assert "spread" in payload
        assert select_payload["query"] == "select"
        assert evaluate_payload["query"] == "evaluate"
        # The spec that produced the run ships inside the payload, so any
        # emitted result is replayable with `repro run`.
        replay = ExperimentSpec.from_dict(select_payload["provenance"]["spec"])
        assert replay.algorithm.name == "easyim"

    def test_index_query_emits_the_schema(self, tmp_path, capsys):
        artifact = tmp_path / "idx.npz"
        assert cli_main([
            "index", "build", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--model", "wc", "--theta", "1000",
            "--output", str(artifact), "--json",
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact), "-k", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["query"] == "select"
        assert payload["backend"] == "sketch"
        assert payload["theta"] == 1000
        assert payload["memory_mapped"] is True
        assert payload["estimated_spread"] > 0

    def test_select_table_output_still_works(self, capsys):
        assert cli_main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "high-degree", "--budget", "2",
            "--simulations", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "Select result" in out and "high-degree" in out
