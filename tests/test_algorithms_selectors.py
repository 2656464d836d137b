"""Unit tests for the seed-selection algorithms (selection behaviour)."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    CELFPlusPlusSelector,
    CELFSelector,
    DegreeDiscountSelector,
    EaSyIMSelector,
    GreedySelector,
    HighDegreeSelector,
    IMMSelector,
    IRIESelector,
    ModifiedGreedySelector,
    OSIMSelector,
    PageRankSelector,
    PathUnionSelector,
    RandomSelector,
    SimPathSelector,
    SingleDiscountSelector,
    TIMPlusSelector,
    algorithm_info,
    available_algorithms,
    get_algorithm,
)
from repro.algorithms.base import SeedSelectionResult, top_k_by_score
from repro.algorithms.pagerank import pagerank_scores
from repro.diffusion import MonteCarloEngine
from repro.exceptions import BudgetError, ConfigurationError
from repro.graphs import DiGraph, figure1_example_graph, star_graph
from repro.graphs.generators import barabasi_albert_graph
from repro.opinion.annotate import annotate_graph

#: Cheap configurations used when checking that every algorithm runs end to end.
FAST_SELECTORS = [
    ("random", lambda: RandomSelector(seed=0)),
    ("high-degree", HighDegreeSelector),
    ("single-discount", SingleDiscountSelector),
    ("degree-discount", DegreeDiscountSelector),
    ("pagerank", PageRankSelector),
    ("easyim", lambda: EaSyIMSelector(max_path_length=2, seed=0)),
    ("osim", lambda: OSIMSelector(max_path_length=2, seed=0)),
    ("irie", lambda: IRIESelector(iterations=5)),
    ("simpath", lambda: SimPathSelector(eta=1e-2, max_path_length=3)),
    ("tim+", lambda: TIMPlusSelector(epsilon=0.3, max_rr_sets=3000, seed=0)),
    ("imm", lambda: IMMSelector(epsilon=0.3, max_rr_sets=3000, seed=0)),
    ("greedy", lambda: GreedySelector(simulations=20, seed=0)),
    ("celf", lambda: CELFSelector(simulations=20, seed=0)),
    ("celf++", lambda: CELFPlusPlusSelector(simulations=20, seed=0)),
    ("path-union", lambda: PathUnionSelector(max_path_length=2, seed=0)),
]


class TestSelectorContract:
    @pytest.mark.parametrize("name,factory", FAST_SELECTORS, ids=[n for n, _ in FAST_SELECTORS])
    def test_selects_requested_number_of_distinct_seeds(self, small_ic_graph, name, factory):
        selector = factory()
        result = selector.select(small_ic_graph, 4)
        assert isinstance(result, SeedSelectionResult)
        assert len(result.seeds) == 4
        assert len(set(result.seeds)) == 4
        assert all(small_ic_graph.has_node(s) for s in result.seeds)
        assert result.runtime_seconds >= 0.0

    def test_budget_larger_than_graph_rejected(self):
        graph = star_graph(3)
        with pytest.raises(BudgetError):
            HighDegreeSelector().select(graph, 100)

    def test_budget_zero_rejected(self, small_ic_graph):
        with pytest.raises(ConfigurationError):
            HighDegreeSelector().select(small_ic_graph, 0)

    def test_prefix_accessor(self, small_ic_graph):
        result = HighDegreeSelector().select(small_ic_graph, 5)
        assert result.prefix(3) == result.seeds[:3]
        with pytest.raises(ValueError):
            result.prefix(10)

    def test_top_k_by_score_tie_breaking(self):
        assert top_k_by_score([1.0, 3.0, 3.0, 0.5], 2) == [1, 2]
        assert top_k_by_score([1.0, 3.0, 3.0, 0.5], 2, excluded={1}) == [2, 0]


@pytest.fixture(scope="module")
def twelve_node_graph():
    """A 12-node annotated graph every registered selector runs on."""
    graph = barabasi_albert_graph(12, 2, seed=3, probability=0.3)
    annotate_graph(graph, seed=4)
    return graph.compile()


def cheap_selector(name, seed=0):
    """The registered selector ``name``, made cheap through its capabilities."""
    info = algorithm_info(name)
    options = {}
    if info.seedable:
        options["seed"] = seed
    if info.simulation_aware:
        options["simulations"] = 10
    if info.rr_set_aware:
        options["max_rr_sets"] = 2000
    return get_algorithm(name, **options)


@pytest.mark.parametrize("name", available_algorithms())
class TestRegistryContract:
    """The budget and reproducibility contract of every registered selector."""

    def test_zero_budget_is_a_configuration_error(self, twelve_node_graph, name):
        with pytest.raises(ConfigurationError) as raised:
            cheap_selector(name).select(twelve_node_graph, 0)
        assert not isinstance(raised.value, BudgetError)

    def test_budget_above_n_is_a_budget_error(self, twelve_node_graph, name):
        with pytest.raises(BudgetError):
            cheap_selector(name).select(twelve_node_graph, 13)

    def test_budget_n_selects_every_node(self, twelve_node_graph, name):
        result = cheap_selector(name).select(twelve_node_graph, 12)
        assert sorted(result.seeds) == sorted(twelve_node_graph.labels)

    def test_fixed_seed_reproduces_the_selection(self, twelve_node_graph, name):
        first = cheap_selector(name, seed=5).select(twelve_node_graph, 4)
        second = cheap_selector(name, seed=5).select(twelve_node_graph, 4)
        assert first.seeds == second.seeds


class TestStructuralBaselines:
    def test_high_degree_picks_hub(self):
        graph = star_graph(10)
        result = HighDegreeSelector().select(graph, 1)
        assert result.seeds == [0]

    def test_single_discount_spreads_out(self):
        # Two stars: hub 0 over 1..5, hub 6 over 7..11; second pick must be
        # the other hub rather than a neighbour of the first.
        graph = DiGraph()
        for leaf in range(1, 6):
            graph.add_edge(0, leaf)
        for leaf in range(7, 12):
            graph.add_edge(6, leaf)
        result = SingleDiscountSelector().select(graph, 2)
        assert set(result.seeds) == {0, 6}

    def test_degree_discount_picks_hubs(self):
        graph = DiGraph()
        for leaf in range(1, 6):
            graph.add_edge(0, leaf)
        for leaf in range(7, 12):
            graph.add_edge(6, leaf)
        result = DegreeDiscountSelector(probability=0.1).select(graph, 2)
        assert set(result.seeds) == {0, 6}

    def test_pagerank_scores_sum_to_one(self, small_ic_graph):
        scores = pagerank_scores(small_ic_graph.compile())
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_pagerank_invalid_damping(self, small_ic_graph):
        with pytest.raises(ConfigurationError):
            pagerank_scores(small_ic_graph.compile(), damping=1.5)

    def test_random_selector_reproducible(self, small_ic_graph):
        first = RandomSelector(seed=3).select(small_ic_graph, 5)
        second = RandomSelector(seed=3).select(small_ic_graph, 5)
        assert first.seeds == second.seeds


class TestGreedyFamily:
    def test_greedy_objective_validation(self):
        with pytest.raises(ConfigurationError):
            GreedySelector(objective="bogus")

    def test_greedy_picks_best_single_seed_on_figure1(self, figure1):
        result = GreedySelector(model="ic", simulations=400, seed=0).select(figure1, 1)
        assert result.seeds == ["C"]

    def test_modified_greedy_picks_a_on_figure1(self, figure1):
        result = ModifiedGreedySelector(model="oi-ic", simulations=600, seed=0).select(
            figure1, 1
        )
        assert result.seeds == ["A"]

    def test_celf_matches_greedy_on_small_graph(self, figure1):
        greedy = GreedySelector(model="ic", simulations=300, seed=1).select(figure1, 2)
        celf = CELFSelector(model="ic", simulations=300, seed=1).select(figure1, 2)
        assert set(greedy.seeds) == set(celf.seeds)

    def test_celf_uses_fewer_evaluations_than_greedy(self, small_ic_graph):
        greedy = GreedySelector(model="ic", simulations=5, seed=1).select(small_ic_graph, 3)
        celf = CELFSelector(model="ic", simulations=5, seed=1).select(small_ic_graph, 3)
        assert (
            celf.metadata["spread_evaluations"] < greedy.metadata["spread_evaluations"]
        )

    def test_celfpp_runs_and_reports_metadata(self, figure1):
        result = CELFPlusPlusSelector(model="ic", simulations=200, seed=0).select(figure1, 2)
        assert "spread_evaluations" in result.metadata
        assert result.metadata["objective_value"] >= 0.0


class TestPaperAlgorithms:
    def test_easyim_close_to_greedy_quality(self, small_ic_graph):
        """The paper's quality claim: EaSyIM stays close to the greedy spread."""
        budget = 5
        easyim = EaSyIMSelector(max_path_length=3, seed=0).select(small_ic_graph, budget)
        celf = CELFSelector(model="ic", simulations=60, seed=0).select(small_ic_graph, budget)
        engine = MonteCarloEngine(small_ic_graph, "ic", simulations=400, seed=2)
        easyim_spread = engine.expected_spread(easyim.seeds)
        celf_spread = engine.expected_spread(celf.seeds)
        assert easyim_spread >= 0.8 * celf_spread

    def test_easyim_update_strategies(self, small_ic_graph):
        for strategy in ("none", "single", "majority"):
            result = EaSyIMSelector(
                max_path_length=2, update_strategy=strategy, seed=0
            ).select(small_ic_graph, 3)
            assert len(result.seeds) == 3

    def test_easyim_invalid_update_strategy(self):
        with pytest.raises(ConfigurationError):
            EaSyIMSelector(update_strategy="sometimes")

    def test_easyim_weighting_inferred_from_model(self):
        assert EaSyIMSelector(model="wc").weighting == "wc"
        assert EaSyIMSelector(model="lt").weighting == "lt"
        assert EaSyIMSelector(model="ic").weighting == "ic"

    @pytest.mark.parametrize("selector", [EaSyIMSelector, OSIMSelector])
    @pytest.mark.parametrize("model", ["oc", "lt-live-edge", "oi-lt"])
    def test_lt_family_models_score_under_lt(self, selector, model):
        # OC and the live-edge sampler both activate under LT.
        assert selector(model=model).weighting == "lt"

    @pytest.mark.parametrize("incremental", [True, False])
    def test_osim_under_oc_ignores_annotated_interactions(self, incremental):
        # A (opinion +1) reaches X over an edge annotated phi = 0; B (+0.2)
        # reaches Y over phi = 1.  OC is OI with phi = 1 everywhere, so A's
        # edge carries +1 and A wins; reading the annotated phi = 0 would
        # flip A's contribution negative and pick B instead.
        graph = DiGraph(name="phi-flip")
        for node, opinion in (("A", 1.0), ("B", 0.2), ("X", 0.0), ("Y", 0.0)):
            graph.add_node(node, opinion=opinion)
        graph.add_edge("A", "X", probability=1.0, interaction=0.0)
        graph.add_edge("B", "Y", probability=1.0, interaction=1.0)

        def pick(model: str) -> list:
            return OSIMSelector(
                max_path_length=1, model=model, incremental=incremental, seed=0
            ).select(graph, 1).seeds

        assert pick("oc") == ["A"]
        assert pick("oi-lt") == ["B"]
        engine = MonteCarloEngine(graph, "oc", simulations=200, seed=0)
        assert engine.expected_opinion_spread(["A"]) > engine.expected_opinion_spread(["B"])

    def test_osim_prefers_positive_opinion_seed(self, figure1):
        result = OSIMSelector(max_path_length=3, seed=0).select(figure1, 1)
        assert result.seeds == ["A"]

    def test_osim_scores_attached_to_result(self, figure1):
        result = OSIMSelector(max_path_length=3, seed=0).select(figure1, 2)
        assert result.scores is not None
        assert all(label in ["A", "B", "C", "D"] for label in result.scores)

    def test_osim_quality_close_to_modified_greedy(self, annotated_small_graph):
        budget = 4
        osim = OSIMSelector(max_path_length=3, seed=0).select(annotated_small_graph, budget)
        greedy = ModifiedGreedySelector(model="oi-ic", simulations=40, seed=0).select(
            annotated_small_graph, budget
        )
        engine = MonteCarloEngine(annotated_small_graph, "oi-ic", simulations=300, seed=3)
        osim_value = engine.expected_effective_opinion_spread(osim.seeds)
        greedy_value = engine.expected_effective_opinion_spread(greedy.seeds)
        # OSIM is a heuristic: allow slack but require the same order of magnitude.
        assert osim_value >= 0.5 * greedy_value - 0.5


class TestSketchAlgorithms:
    def test_tim_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            TIMPlusSelector(model="bogus")
        with pytest.raises(ConfigurationError):
            TIMPlusSelector(epsilon=2.0)
        with pytest.raises(ConfigurationError):
            TIMPlusSelector(ell=0.0)

    def test_tim_metadata(self, small_ic_graph):
        result = TIMPlusSelector(epsilon=0.3, max_rr_sets=2000, seed=0).select(
            small_ic_graph, 3
        )
        assert result.metadata["rr_sets"] >= 1
        assert result.metadata["kpt"] >= 1.0

    def test_tim_agrees_with_high_degree_on_star(self):
        graph = star_graph(20)
        result = TIMPlusSelector(epsilon=0.5, max_rr_sets=2000, seed=0).select(graph, 1)
        assert result.seeds == [0]

    def test_tim_lt_model_runs(self, small_ic_graph):
        small_ic_graph.set_linear_threshold_weights()
        result = TIMPlusSelector(model="lt", epsilon=0.4, max_rr_sets=1500, seed=0).select(
            small_ic_graph, 3
        )
        assert len(result.seeds) == 3

    def test_imm_runs_and_reports_bound(self, small_ic_graph):
        result = IMMSelector(epsilon=0.4, max_rr_sets=2000, seed=0).select(small_ic_graph, 3)
        assert result.metadata["lower_bound"] >= 1.0

    def test_tim_quality_close_to_celf(self, small_ic_graph):
        budget = 5
        tim = TIMPlusSelector(epsilon=0.2, max_rr_sets=20000, seed=0).select(
            small_ic_graph, budget
        )
        celf = CELFSelector(model="ic", simulations=60, seed=0).select(small_ic_graph, budget)
        engine = MonteCarloEngine(small_ic_graph, "ic", simulations=400, seed=1)
        assert engine.expected_spread(tim.seeds) >= 0.8 * engine.expected_spread(celf.seeds)


class TestHeuristicCompetitors:
    def test_irie_validation(self):
        with pytest.raises(ConfigurationError):
            IRIESelector(alpha=0.0)
        with pytest.raises(ConfigurationError):
            IRIESelector(iterations=0)

    def test_irie_picks_hub_on_star(self):
        graph = star_graph(15)
        result = IRIESelector().select(graph, 1)
        assert result.seeds == [0]

    def test_simpath_validation(self):
        with pytest.raises(ConfigurationError):
            SimPathSelector(eta=0.0)
        with pytest.raises(ConfigurationError):
            SimPathSelector(max_path_length=0)

    def test_simpath_picks_hub_on_star(self):
        graph = star_graph(15)
        graph.set_linear_threshold_weights()
        result = SimPathSelector().select(graph, 1)
        assert result.seeds == [0]


class TestRegistry:
    def test_available_algorithms_contains_paper_methods(self):
        names = available_algorithms()
        for expected in ("easyim", "osim", "celf++", "tim+", "irie", "simpath",
                         "modified-greedy", "greedy"):
            assert expected in names

    def test_get_algorithm_with_options(self):
        selector = get_algorithm("easyim", max_path_length=5)
        assert isinstance(selector, EaSyIMSelector)
        assert selector.max_path_length == 5

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            get_algorithm("quantum-greedy")

    def test_selector_passthrough(self):
        selector = HighDegreeSelector()
        assert get_algorithm(selector) is selector


@pytest.fixture
def figure1():
    return figure1_example_graph()
