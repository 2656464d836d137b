"""Directed graph data structures used throughout the library.

Two representations are provided:

* :class:`DiGraph` — a mutable adjacency-map graph with per-node attributes
  (opinion ``o``, activation threshold ``theta``) and per-edge attributes
  (influence probability ``p``, LT weight ``w``, interaction probability
  ``phi``).  This is the structure users build, annotate and pass to the
  public API.
* :class:`CompiledGraph` — an immutable CSR (compressed sparse row) snapshot
  with numpy arrays for both out- and in-adjacency.  The Monte-Carlo
  simulation engine and the score-assignment algorithms operate on this view,
  which keeps the per-node overhead at a few machine words and matches the
  paper's "linear space" requirement.

The attribute names mirror the paper's notation (Table 1): ``p`` for the IC
influence probability, ``w`` for the LT edge weight, ``phi`` for the
interaction probability, ``opinion`` for :math:`o_v` and ``threshold`` for
:math:`\\theta_v`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError

Node = Hashable

#: Default IC influence probability used by the paper (Sec. 4, "Parameters").
DEFAULT_INFLUENCE_PROBABILITY = 0.1

#: Default interaction probability when a graph has not been annotated.
DEFAULT_INTERACTION_PROBABILITY = 1.0


@dataclass(slots=True)
class EdgeData:
    """Attributes attached to a directed edge ``u -> v``.

    Attributes
    ----------
    probability:
        IC influence probability :math:`p_{(u,v)} \\in [0, 1]`.
    weight:
        LT edge weight :math:`w_{(u,v)} \\in [0, 1]`.
    interaction:
        Interaction probability :math:`\\varphi_{(u,v)} \\in [0, 1]` — the
        fraction of times ``v`` adopts information from ``u`` with the same
        orientation as ``u`` (Def. 5 in the paper).
    """

    probability: float = DEFAULT_INFLUENCE_PROBABILITY
    weight: float = 0.0
    interaction: float = DEFAULT_INTERACTION_PROBABILITY

    def copy(self) -> "EdgeData":
        return EdgeData(self.probability, self.weight, self.interaction)


@dataclass(slots=True)
class NodeData:
    """Attributes attached to a node.

    Attributes
    ----------
    opinion:
        Personal opinion :math:`o_v \\in [-1, 1]` towards the content being
        diffused (Def. 4).  ``None`` until the graph has been annotated.
    threshold:
        LT activation threshold :math:`\\theta_v \\in [0, 1]`.  ``None`` means
        "draw uniformly at random per simulation", which is the conventional
        randomised-threshold LT model used in the paper.
    """

    opinion: Optional[float] = None
    threshold: Optional[float] = None

    def copy(self) -> "NodeData":
        return NodeData(self.opinion, self.threshold)


class DiGraph:
    """A mutable directed graph with IM-specific node and edge attributes.

    Nodes may be any hashable objects; most of the library uses consecutive
    integers.  Self-loops are rejected because none of the diffusion models
    give them meaning.  Parallel edges are not supported; adding an existing
    edge overwrites its attributes.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._succ: Dict[Node, Dict[Node, EdgeData]] = {}
        self._pred: Dict[Node, Dict[Node, EdgeData]] = {}
        self._node_data: Dict[Node, NodeData] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node, opinion: Optional[float] = None,
                 threshold: Optional[float] = None) -> Node:
        """Add ``node`` (idempotent) and optionally set its attributes.

        Atomic: invalid attributes raise before the graph is touched.
        """
        if opinion is not None:
            opinion = _validate_opinion(opinion)
        if threshold is not None:
            threshold = _validate_unit(threshold, "threshold")
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._node_data[node] = NodeData()
        data = self._node_data[node]
        if opinion is not None:
            data.opinion = opinion
        if threshold is not None:
            data.threshold = threshold
        return node

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        self._require_node(node)
        for target in list(self._succ[node]):
            self.remove_edge(node, target)
        for source in list(self._pred[node]):
            self.remove_edge(source, node)
        del self._succ[node]
        del self._pred[node]
        del self._node_data[node]

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def nodes(self) -> Iterator[Node]:
        """Iterate over the nodes in insertion order."""
        return iter(self._succ)

    def node_data(self, node: Node) -> NodeData:
        self._require_node(node)
        return self._node_data[node]

    # ----------------------------------------------------------------- edges

    def add_edge(self, source: Node, target: Node,
                 probability: float = DEFAULT_INFLUENCE_PROBABILITY,
                 weight: float = 0.0,
                 interaction: float = DEFAULT_INTERACTION_PROBABILITY) -> None:
        """Add the directed edge ``source -> target`` (endpoints auto-added).

        Atomic: every argument is validated before the graph is touched, so
        a rejected edge adds neither endpoint.
        """
        data = EdgeData(
            probability=_validate_unit(probability, "probability"),
            weight=_validate_unit(weight, "weight"),
            interaction=_validate_unit(interaction, "interaction"),
        )
        if source == target:
            raise GraphError(f"self-loops are not supported (node {source!r})")
        self._insert_edge(source, target, data)

    def add_edges_from(
        self,
        edges: Iterable[Tuple[Node, Node]],
        probability: float = DEFAULT_INFLUENCE_PROBABILITY,
        weight: float = 0.0,
        interaction: float = DEFAULT_INTERACTION_PROBABILITY,
    ) -> None:
        """Add every ``(source, target)`` pair with the same attributes.

        The attributes are validated once per call.  Each edge is added
        atomically, in order; a self-loop raises after the edges before it
        have been added.
        """
        probability = _validate_unit(probability, "probability")
        weight = _validate_unit(weight, "weight")
        interaction = _validate_unit(interaction, "interaction")
        for source, target in edges:
            if source == target:
                raise GraphError(f"self-loops are not supported (node {source!r})")
            self._insert_edge(source, target, EdgeData(probability, weight, interaction))

    def remove_edge(self, source: Node, target: Node) -> None:
        self._require_edge(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        self._edge_count -= 1

    def has_edge(self, source: Node, target: Node) -> bool:
        return source in self._succ and target in self._succ[source]

    def edge_data(self, source: Node, target: Node) -> EdgeData:
        self._require_edge(source, target)
        return self._succ[source][target]

    def edges(self) -> Iterator[Tuple[Node, Node, EdgeData]]:
        """Iterate over ``(source, target, EdgeData)`` triples."""
        for source, targets in self._succ.items():
            for target, data in targets.items():
                yield source, target, data

    # ----------------------------------------------------------- neighbours

    def successors(self, node: Node) -> Iterator[Node]:
        """Out-neighbours of ``node`` (``Out(u)`` in the paper)."""
        self._require_node(node)
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        """In-neighbours of ``node`` (``In(v)`` in the paper)."""
        self._require_node(node)
        return iter(self._pred[node])

    def out_edges(self, node: Node) -> Iterator[Tuple[Node, EdgeData]]:
        self._require_node(node)
        return iter(self._succ[node].items())

    def in_edges(self, node: Node) -> Iterator[Tuple[Node, EdgeData]]:
        self._require_node(node)
        return iter(self._pred[node].items())

    def out_degree(self, node: Node) -> int:
        self._require_node(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        self._require_node(node)
        return len(self._pred[node])

    # ------------------------------------------------------------ attributes

    def set_opinion(self, node: Node, opinion: float) -> None:
        """Set the personal opinion :math:`o_v \\in [-1, 1]` of ``node``."""
        self._require_node(node)
        self._node_data[node].opinion = _validate_opinion(opinion)

    def opinion(self, node: Node) -> Optional[float]:
        self._require_node(node)
        return self._node_data[node].opinion

    def set_threshold(self, node: Node, threshold: float) -> None:
        self._require_node(node)
        self._node_data[node].threshold = _validate_unit(threshold, "threshold")

    def threshold(self, node: Node) -> Optional[float]:
        self._require_node(node)
        return self._node_data[node].threshold

    def set_interaction(self, source: Node, target: Node, interaction: float) -> None:
        """Set the interaction probability :math:`\\varphi_{(u,v)}`."""
        self.edge_data(source, target).interaction = _validate_unit(
            interaction, "interaction"
        )

    def set_probability(self, source: Node, target: Node, probability: float) -> None:
        self.edge_data(source, target).probability = _validate_unit(
            probability, "probability"
        )

    def set_weight(self, source: Node, target: Node, weight: float) -> None:
        self.edge_data(source, target).weight = _validate_unit(weight, "weight")

    def has_opinions(self) -> bool:
        """True when every node carries an opinion annotation."""
        return all(data.opinion is not None for data in self._node_data.values())

    # -------------------------------------------------- bulk parameterisation

    def set_uniform_probabilities(self, probability: float) -> None:
        """Assign the same IC probability ``p`` to every edge (paper: p=0.1)."""
        probability = _validate_unit(probability, "probability")
        for _, _, data in self.edges():
            data.probability = probability

    def set_weighted_cascade_probabilities(self) -> None:
        """Assign ``p_(u,v) = 1 / in_degree(v)`` (the WC model, Sec. 3.3)."""
        for _, target, data in self.edges():
            data.probability = 1.0 / self.in_degree(target)

    def set_linear_threshold_weights(self) -> None:
        """Assign ``w_(u,v) = 1 / in_degree(v)`` (conventional LT weights)."""
        for _, target, data in self.edges():
            data.weight = 1.0 / self.in_degree(target)

    # --------------------------------------------------------------- queries

    @property
    def number_of_nodes(self) -> int:
        return len(self._succ)

    @property
    def number_of_edges(self) -> int:
        return self._edge_count

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<DiGraph{label} with {self.number_of_nodes} nodes and "
            f"{self.number_of_edges} edges>"
        )

    # ----------------------------------------------------------------- copy

    def copy(self) -> "DiGraph":
        """Return a deep copy (attributes included)."""
        clone = DiGraph(name=self.name)
        for node in self.nodes():
            data = self._node_data[node]
            clone.add_node(node)
            clone._node_data[node] = data.copy()
        for source, target, data in self.edges():
            clone._insert_edge(source, target, data.copy())
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the subgraph induced on ``nodes`` (attributes copied)."""
        ordered = list(nodes)
        keep = set(ordered)
        # Report the first missing node in *input* order; iterating the set
        # would pick one by hash-table layout, varying run to run.
        missing = [node for node in ordered if node not in self]
        if missing:
            raise NodeNotFoundError(missing[0])
        sub = DiGraph(name=self.name)
        for node in self.nodes():
            if node in keep:
                sub.add_node(node)
                sub._node_data[node] = self._node_data[node].copy()
        for source, target, data in self.edges():
            if source in keep and target in keep:
                sub._insert_edge(source, target, data.copy())
        return sub

    def reverse(self) -> "DiGraph":
        """Return a copy with every edge direction flipped."""
        rev = DiGraph(name=self.name)
        for node in self.nodes():
            rev.add_node(node)
            rev._node_data[node] = self._node_data[node].copy()
        for source, target, data in self.edges():
            rev._insert_edge(target, source, data.copy())
        return rev

    # ------------------------------------------------------------- compile

    def compile(self) -> "CompiledGraph":
        """Freeze the graph into a :class:`CompiledGraph` CSR snapshot."""
        return CompiledGraph.from_digraph(self)

    # ------------------------------------------------------------- private

    def _insert_edge(self, source: Node, target: Node, data: EdgeData) -> None:
        """Store a validated edge record, adding missing endpoints."""
        if source not in self._succ:
            self.add_node(source)
        if target not in self._succ:
            self.add_node(target)
        targets = self._succ[source]
        if target not in targets:
            self._edge_count += 1
        targets[target] = data
        self._pred[target][source] = data

    def _require_node(self, node: Node) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)

    def _require_edge(self, source: Node, target: Node) -> None:
        if source not in self._succ or target not in self._succ[source]:
            raise EdgeNotFoundError(source, target)


class CompiledGraph:
    """Immutable CSR snapshot of a :class:`DiGraph`.

    Nodes are re-indexed to ``0..n-1`` (the original labels are kept in
    :attr:`labels`).  Both forward (out-edges) and reverse (in-edges) CSR
    structures are materialised because the diffusion models walk out-edges
    while the RIS-based algorithms (TIM+/IMM) and LT simulation walk in-edges.
    """

    __slots__ = (
        "labels",
        "index_of",
        "out_indptr",
        "out_indices",
        "out_probability",
        "out_interaction",
        "out_weight",
        "in_indptr",
        "in_indices",
        "in_probability",
        "in_interaction",
        "in_weight",
        "opinions",
        "thresholds",
        "_fingerprint",
        "_edge_sources",
        "_resolved_probabilities",
        "_out_psi",
        "_out_to_in_position",
    )

    def __init__(
        self,
        labels: Sequence[Node],
        index_of: Mapping[Node, int],
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_probability: np.ndarray,
        out_interaction: np.ndarray,
        out_weight: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_probability: np.ndarray,
        in_interaction: np.ndarray,
        in_weight: np.ndarray,
        opinions: np.ndarray,
        thresholds: np.ndarray,
    ) -> None:
        self.labels = list(labels)
        self.index_of = dict(index_of)
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.out_probability = out_probability
        self.out_interaction = out_interaction
        self.out_weight = out_weight
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self.in_probability = in_probability
        self.in_interaction = in_interaction
        self.in_weight = in_weight
        self.opinions = opinions
        self.thresholds = thresholds
        # Content-fingerprint cache; compiled graphs are immutable, so the
        # digest is computed at most once (see repro.graphs.fingerprint).
        self._fingerprint: Optional[str] = None
        # Graph-static derived arrays, each materialised at most once (the
        # score engines and diffusion kernels share them).
        self._edge_sources: Optional[np.ndarray] = None
        self._resolved_probabilities: Dict[str, np.ndarray] = {}
        self._out_psi: Optional[np.ndarray] = None
        self._out_to_in_position: Optional[np.ndarray] = None

    # ------------------------------------------------------------ factory

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "CompiledGraph":
        """Compile ``graph`` in bulk.

        One gather pass over the successor maps yields the out-CSR directly:
        nodes in insertion order, each node's edges in insertion order.  The
        in-CSR is the same edge list permuted by a stable argsort of the
        targets, so each target's in-edges keep ascending out-position
        order (the invariant :attr:`out_to_in_position` relies on).  Edge
        fields are gathered one at a time to bound peak memory.
        """
        succ = graph._succ
        labels = list(succ)
        index_of = {label: i for i, label in enumerate(labels)}
        n = len(labels)

        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, succ.values()), dtype=np.int64, count=n),
                  out=out_indptr[1:])
        m = int(out_indptr[-1])
        out_indices = np.fromiter(
            map(index_of.__getitem__, chain.from_iterable(succ.values())),
            dtype=np.int64, count=m,
        )
        records = list(chain.from_iterable(map(dict.values, succ.values())))

        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_indices, minlength=n), out=in_indptr[1:])
        permutation = np.argsort(out_indices, kind="stable")
        in_indices = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(out_indptr)
        )[permutation]

        def gather(field: str) -> Tuple[np.ndarray, np.ndarray]:
            values = np.fromiter(map(attrgetter(field), records), dtype=np.float64, count=m)
            return values, values[permutation]

        out_probability, in_probability = gather("probability")
        out_interaction, in_interaction = gather("interaction")
        out_weight, in_weight = gather("weight")
        del records, permutation

        node_records = [graph._node_data[label] for label in labels]
        opinions = np.fromiter(
            (0.0 if data.opinion is None else data.opinion for data in node_records),
            dtype=np.float64, count=n,
        )
        thresholds = np.fromiter(
            (np.nan if data.threshold is None else data.threshold for data in node_records),
            dtype=np.float64, count=n,
        )

        return cls(
            labels=labels,
            index_of=index_of,
            out_indptr=out_indptr,
            out_indices=out_indices,
            out_probability=out_probability,
            out_interaction=out_interaction,
            out_weight=out_weight,
            in_indptr=in_indptr,
            in_indices=in_indices,
            in_probability=in_probability,
            in_interaction=in_interaction,
            in_weight=in_weight,
            opinions=opinions,
            thresholds=thresholds,
        )

    # ------------------------------------------------------------ queries

    @property
    def number_of_nodes(self) -> int:
        return len(self.labels)

    @property
    def number_of_edges(self) -> int:
        return int(self.out_indptr[-1])

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[node]:self.out_indptr[node + 1]]

    def out_probabilities(self, node: int) -> np.ndarray:
        return self.out_probability[self.out_indptr[node]:self.out_indptr[node + 1]]

    def out_interactions(self, node: int) -> np.ndarray:
        return self.out_interaction[self.out_indptr[node]:self.out_indptr[node + 1]]

    def out_weights(self, node: int) -> np.ndarray:
        return self.out_weight[self.out_indptr[node]:self.out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[node]:self.in_indptr[node + 1]]

    def in_probabilities(self, node: int) -> np.ndarray:
        return self.in_probability[self.in_indptr[node]:self.in_indptr[node + 1]]

    def in_interactions(self, node: int) -> np.ndarray:
        return self.in_interaction[self.in_indptr[node]:self.in_indptr[node + 1]]

    def in_weights(self, node: int) -> np.ndarray:
        return self.in_weight[self.in_indptr[node]:self.in_indptr[node + 1]]

    def out_degree(self, node: int) -> int:
        return int(self.out_indptr[node + 1] - self.out_indptr[node])

    def in_degree(self, node: int) -> int:
        return int(self.in_indptr[node + 1] - self.in_indptr[node])

    # ------------------------------------------------- cached derived arrays
    #
    # CompiledGraph is immutable, so each of these is computed at most once
    # per graph and shared by every consumer (score engines, IRIE, the
    # diffusion kernels).  They are deliberately *lazy*: compiling a graph pays
    # nothing until an algorithm actually needs the array.

    @property
    def edge_sources(self) -> np.ndarray:
        """Source node index of every out-edge, aligned with ``out_indices``."""
        if self._edge_sources is None:
            self._edge_sources = np.repeat(
                np.arange(self.number_of_nodes, dtype=np.int64),
                np.diff(self.out_indptr),
            )
        return self._edge_sources

    def resolved_edge_probabilities(self, weighting: str) -> np.ndarray:
        """Per-out-edge walk probabilities for a model weighting (cached).

        * ``"ic"`` — the annotated influence probabilities ``p``.
        * ``"wc"`` — ``1 / in_degree(target)``.
        * ``"lt"`` — the annotated LT weights when present, else
          ``1 / in_degree`` (the live-edge probabilities, Sec. 3.3).
        """
        from repro.exceptions import ConfigurationError

        cached = self._resolved_probabilities.get(weighting)
        if cached is not None:
            return cached
        if weighting == "ic":
            resolved = self.out_probability
        elif weighting == "lt" and np.any(self.out_weight > 0):
            resolved = self.out_weight
        elif weighting in ("wc", "lt"):
            in_degrees = np.diff(self.in_indptr).astype(np.float64)
            safe = np.where(in_degrees > 0, in_degrees, 1.0)
            resolved = 1.0 / safe[self.out_indices]
        else:
            raise ConfigurationError(
                f"weighting must be one of ('ic', 'wc', 'lt'), got {weighting!r}"
            )
        self._resolved_probabilities[weighting] = resolved
        return resolved

    @property
    def out_psi(self) -> np.ndarray:
        """OSIM's ``psi = (2 phi - 1) / 2`` per out-edge (cached).

        The expected signed retention of the upstream opinion across one
        interaction: agreement contributes ``+o``, disagreement ``-o``.
        """
        if self._out_psi is None:
            self._out_psi = (2.0 * self.out_interaction - 1.0) / 2.0
        return self._out_psi

    @property
    def out_to_in_position(self) -> np.ndarray:
        """Map each out-CSR edge position to the same edge's in-CSR position.

        Fast path: :meth:`from_digraph` lays out the in-CSR by a stable
        argsort of the out targets, so within a target's in-slice the edges
        appear in ascending out-position order and the same argsort here
        reproduces the in-CSR layout.  The result is verified with one gather
        (sources must line up); CSR layouts built elsewhere that violate the
        invariant fall back to two lexsorts on the unique (target, source)
        edge keys.
        """
        if self._out_to_in_position is None:
            order = np.argsort(self.out_indices, kind="stable")
            mapping = np.empty(order.size, dtype=np.int64)
            mapping[order] = np.arange(order.size, dtype=np.int64)
            if not np.array_equal(self.in_indices[mapping], self.edge_sources):
                in_targets = np.repeat(
                    np.arange(self.number_of_nodes, dtype=np.int64),
                    np.diff(self.in_indptr),
                )
                order_out = np.lexsort((self.edge_sources, self.out_indices))
                order_in = np.lexsort((self.in_indices, in_targets))
                mapping = np.empty(order_out.size, dtype=np.int64)
                mapping[order_out] = order_in
            self._out_to_in_position = mapping
        return self._out_to_in_position

    def indices_for(self, labels: Iterable[Node]) -> list[int]:
        """Map original node labels to compiled indices."""
        return [self.index_of[label] for label in labels]

    def labels_for(self, indices: Iterable[int]) -> list[Node]:
        """Map compiled indices back to the original node labels."""
        return [self.labels[i] for i in indices]

    def __repr__(self) -> str:
        return (
            f"<CompiledGraph with {self.number_of_nodes} nodes and "
            f"{self.number_of_edges} edges>"
        )


# --------------------------------------------------------------------------
# validation helpers


def _validate_opinion(value: float) -> float:
    value = float(value)
    if not -1.0 <= value <= 1.0:
        raise GraphError(f"opinion must lie in [-1, 1], got {value}")
    return value


def _validate_unit(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise GraphError(f"{name} must lie in [0, 1], got {value}")
    return value
