"""Named synthetic stand-ins for the paper's benchmark graphs (Table 2).

The paper evaluates on SNAP/arXiv graphs ranging from NetHEPT (15K nodes,
62K edges) to Friendster (65.6M nodes, 3.6B edges).  Those corpora are not
redistributable and billion-edge graphs are out of reach for a pure-Python
laptop run, so every dataset is replaced by a *synthetic stand-in* generated
to match the original's qualitative shape — directedness, relative size
ordering, density (average degree) and small effective diameter — at a
configurable scale.  ``scale=1.0`` produces graphs that run every benchmark in
minutes; larger scales grow the node count proportionally and keep the target
average degree.

The ``paper_*`` fields record the original statistics so the Table 2 bench can
print paper-vs-synthetic side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.datasets.synthetic import (
    make_citation_like_graph,
    make_community_social_graph,
    make_directed_social_graph,
)
from repro.exceptions import DatasetError
from repro.graphs.digraph import DEFAULT_INFLUENCE_PROBABILITY, DiGraph
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one named dataset and its synthetic stand-in."""

    name: str
    paper_nodes: int
    paper_edges: int
    paper_type: str
    paper_avg_degree: float
    paper_diameter: float
    base_nodes: int
    target_avg_degree: float
    family: str  # "citation", "community" or "directed-social"
    size_class: str  # "medium" or "large" (matches the paper's grouping)

    def nodes_at_scale(self, scale: float) -> int:
        return max(16, int(round(self.base_nodes * scale)))


_SPECS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("nethept", 15_000, 62_000, "undirected", 4.1, 8.8,
                    base_nodes=600, target_avg_degree=4.1, family="citation",
                    size_class="medium"),
        DatasetSpec("hepph", 12_000, 237_000, "undirected", 19.75, 5.8,
                    base_nodes=500, target_avg_degree=19.75, family="citation",
                    size_class="medium"),
        DatasetSpec("dblp", 317_000, 2_100_000, "undirected", 6.63, 8.0,
                    base_nodes=1_500, target_avg_degree=6.63, family="citation",
                    size_class="medium"),
        DatasetSpec("youtube", 1_130_000, 5_980_000, "undirected", 5.29, 6.5,
                    base_nodes=2_500, target_avg_degree=5.29, family="community",
                    size_class="medium"),
        DatasetSpec("soclive", 4_850_000, 69_000_000, "directed", 14.23, 6.5,
                    base_nodes=3_500, target_avg_degree=14.23, family="directed-social",
                    size_class="large"),
        DatasetSpec("orkut", 3_070_000, 234_200_000, "undirected", 76.29, 4.8,
                    base_nodes=1_200, target_avg_degree=40.0, family="community",
                    size_class="large"),
        DatasetSpec("twitter", 41_600_000, 1_500_000_000, "directed", 36.06, 5.1,
                    base_nodes=4_000, target_avg_degree=24.0, family="directed-social",
                    size_class="large"),
        DatasetSpec("friendster", 65_600_000, 3_600_000_000, "undirected", 54.88, 5.8,
                    base_nodes=5_000, target_avg_degree=30.0, family="community",
                    size_class="large"),
    )
}

_ALIASES = {
    "nethept-small": "nethept",
    "hepph-small": "hepph",
    "net-hept": "nethept",
    "hep-ph": "hepph",
    "soc-livejournal": "soclive",
    "livejournal": "soclive",
}


def available_datasets() -> list[str]:
    """Sorted list of registered dataset names."""
    return sorted(_SPECS)


def dataset_spec(name: str) -> DatasetSpec:
    """Look up the :class:`DatasetSpec` for ``name`` (aliases accepted)."""
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    if key not in _SPECS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(available_datasets())}"
        )
    return _SPECS[key]


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: RandomState = 0,
    probability: Optional[float] = None,
) -> DiGraph:
    """Generate the synthetic stand-in for the named dataset.

    Parameters
    ----------
    name:
        Dataset name (see :func:`available_datasets`).
    scale:
        Multiplier on the node count of the stand-in (1.0 = the laptop-sized
        default recorded in the spec).
    seed:
        Seed controlling the generator (the same seed reproduces the same
        graph exactly).
    probability:
        Optional uniform IC probability every edge is created with; defaults
        to the paper's ``p = 0.1``.
    """
    spec = dataset_spec(name)
    if scale <= 0:
        raise DatasetError(f"scale must be > 0, got {scale}")
    if probability is None:
        probability = DEFAULT_INFLUENCE_PROBABILITY
    elif not 0.0 <= probability <= 1.0:
        raise DatasetError(f"probability must lie in [0, 1], got {probability}")
    rng = ensure_rng(seed)
    nodes = spec.nodes_at_scale(scale)
    if spec.family == "citation":
        builder = make_citation_like_graph
    elif spec.family == "community":
        builder = make_community_social_graph
    elif spec.family == "directed-social":
        builder = make_directed_social_graph
    else:  # pragma: no cover - specs are defined in this module
        raise DatasetError(f"unknown dataset family {spec.family!r}")
    graph = builder(nodes, spec.target_avg_degree, rng, probability=probability)
    graph.name = spec.name
    return graph
