"""Diffusion-model interface and the outcomes of simulated cascades.

A :class:`DiffusionModel` implements one method, :meth:`~DiffusionModel.simulate_batch`,
which runs ``count`` independent stochastic cascades on a
:class:`~repro.graphs.digraph.CompiledGraph` from a set of seed node indices
and returns a :class:`BatchOutcome`: a dense ``(count, n)`` activation matrix
plus a log of the non-seed activations and their final opinions, in
activation order.  Spread, opinion spread and effective opinion spread
(Defs. 3, 6 and 7 in the paper) are three ``bincount``s over the log, so a
single batch serves every objective.

:meth:`DiffusionModel.simulate` is the one-cascade view of the same kernel:
``simulate_batch(graph, seeds, rng, 1).outcome(0)``, a
:class:`DiffusionOutcome`.  Every model therefore has exactly one cascade
implementation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph


@dataclass
class DiffusionOutcome:
    """Result of a single simulated cascade.

    Attributes
    ----------
    seeds:
        The seed node indices the cascade started from.
    activated:
        Every activated node index, seeds included, in activation order.
    final_opinions:
        Mapping from activated node index to its final opinion ``o'``.
        Opinion-oblivious models report the node's initial opinion (or ``0``
        when the graph carries no annotation), which makes the opinion-spread
        of an IC/LT cascade well defined — that is exactly how the paper
        evaluates "IC" curves in Figs. 2 and 5.
    rounds:
        Number of synchronous diffusion rounds until quiescence.
    """

    seeds: tuple[int, ...]
    activated: list[int] = field(default_factory=list)
    final_opinions: Dict[int, float] = field(default_factory=dict)
    rounds: int = 0

    @property
    def seed_set(self) -> frozenset[int]:
        return frozenset(self.seeds)

    def spread(self) -> float:
        """Number of activated nodes excluding the seeds (Def. 3)."""
        return float(len(self.activated) - len(self.seed_set & set(self.activated)))

    def opinion_spread(self) -> float:
        """Sum of final opinions of activated non-seed nodes (Def. 6)."""
        seed_set = self.seed_set
        return float(
            sum(o for node, o in self.final_opinions.items() if node not in seed_set)
        )

    def effective_opinion_spread(self, penalty: float = 1.0) -> float:
        """Positive opinion mass minus ``penalty`` times negative mass (Def. 7)."""
        seed_set = self.seed_set
        positive = 0.0
        negative = 0.0
        for node, opinion in self.final_opinions.items():
            if node in seed_set:
                continue
            if opinion > 0:
                positive += opinion
            elif opinion < 0:
                negative += -opinion
        return positive - penalty * negative


@dataclass
class BatchOutcome:
    """Result of ``count`` simulated cascades advanced as one batch.

    A cascade typically reaches a small fraction of the graph, so final
    opinions are kept as an activation log rather than a dense matrix: the
    seeds' opinions plus one ``(cascade, node, opinion)`` entry per non-seed
    activation.  The objectives reduce the log with three ``bincount``s.

    Attributes
    ----------
    seeds:
        The (validated, de-duplicated) seed node indices shared by every
        cascade in the batch.
    active:
        ``(count, n)`` boolean matrix; ``active[i, v]`` is True when cascade
        ``i`` activated node ``v`` (seeds included).
    rounds:
        ``(count,)`` number of synchronous diffusion rounds per cascade.
    seed_opinions:
        ``(count, len(seeds))`` final opinions ``o'`` of the seeds.
    log_cascades, log_nodes, log_opinions:
        The non-seed activation log: entry ``j`` says cascade
        ``log_cascades[j]`` activated node ``log_nodes[j]`` with final
        opinion ``log_opinions[j]``.  Each activated non-seed
        ``(cascade, node)`` pair appears exactly once.
    """

    seeds: tuple[int, ...]
    active: np.ndarray
    rounds: np.ndarray
    seed_opinions: np.ndarray
    log_cascades: np.ndarray
    log_nodes: np.ndarray
    log_opinions: np.ndarray

    @property
    def count(self) -> int:
        return int(self.active.shape[0])

    @property
    def number_of_nodes(self) -> int:
        return int(self.active.shape[1])

    @cached_property
    def opinions(self) -> np.ndarray:
        """Dense ``(count, n)`` final opinions, zero where inactive.

        Built from the log on first access; the Monte-Carlo path never
        touches it.
        """
        dense = np.zeros(self.active.shape, dtype=np.float64)
        if self.seeds:
            dense[:, list(self.seeds)] = self.seed_opinions
        dense[self.log_cascades, self.log_nodes] = self.log_opinions
        return dense

    def spreads(self) -> np.ndarray:
        """Per-cascade spread — activated nodes excluding seeds (Def. 3)."""
        return self.objectives()[0]

    def opinion_spreads(self) -> np.ndarray:
        """Per-cascade sum of final opinions of non-seed activations (Def. 6)."""
        return self.objectives()[1]

    def effective_opinion_spreads(self, penalty: float = 1.0) -> np.ndarray:
        """Per-cascade positive mass minus ``penalty`` times negative (Def. 7)."""
        return self.objectives(penalty)[2]

    def objectives(self, penalty: float = 1.0) -> np.ndarray:
        """All three objectives as one ``(3, count)`` array.

        Row order matches the Monte-Carlo engine: spread, opinion spread,
        effective opinion spread.  Seeds are not in the log, so each row is
        one ``bincount`` of the log by cascade.
        """
        count = self.count
        spreads = np.bincount(self.log_cascades, minlength=count).astype(np.float64)
        totals = np.bincount(
            self.log_cascades, weights=self.log_opinions, minlength=count
        )
        positive = np.bincount(
            self.log_cascades,
            weights=np.maximum(self.log_opinions, 0.0),
            minlength=count,
        )
        negative = positive - totals
        return np.stack([spreads, totals, positive - penalty * negative])

    def outcome(self, index: int) -> DiffusionOutcome:
        """Materialise cascade ``index`` as a scalar :class:`DiffusionOutcome`.

        ``activated`` lists the seeds first and then the cascade's log
        entries in log order, which every kernel writes in activation order.
        """
        index = range(self.count)[index]  # negative indices; IndexError past the end
        entries = np.flatnonzero(self.log_cascades == index)
        nodes = self.log_nodes[entries].tolist()
        final_opinions = dict(zip(self.seeds, self.seed_opinions[index].tolist()))
        final_opinions.update(zip(nodes, self.log_opinions[entries].tolist()))
        return DiffusionOutcome(
            seeds=self.seeds,
            activated=list(self.seeds) + nodes,
            final_opinions=final_opinions,
            rounds=int(self.rounds[index]),
        )


class DiffusionModel(abc.ABC):
    """Base class for every diffusion model.

    Subclasses implement :meth:`simulate_batch`, which must be a pure
    function of ``(graph, seeds, rng, count)`` — all randomness flows through
    the supplied generator so Monte-Carlo estimation stays reproducible.
    """

    #: Short identifier used by the model registry and the CLI.
    name: str = "base"

    #: Whether the model produces opinion-aware final opinions.
    opinion_aware: bool = False

    @abc.abstractmethod
    def simulate_batch(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
        count: int,
    ) -> BatchOutcome:
        """Run ``count`` independent cascades and return their joint outcome.

        The registered models advance every cascade per diffusion round in
        bulk numpy operations (see :mod:`repro.diffusion.batch`).
        """

    def simulate(
        self,
        graph: CompiledGraph,
        seeds: Sequence[int],
        rng: np.random.Generator,
    ) -> DiffusionOutcome:
        """Run one cascade from ``seeds``: a batch of one."""
        return self.simulate_batch(graph, seeds, rng, 1).outcome(0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def validate_seed_indices(graph: CompiledGraph, seeds: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalise seed indices for a compiled graph."""
    n = graph.number_of_nodes
    unique: list[int] = []
    seen: set[int] = set()
    for seed in seeds:
        index = int(seed)
        if not 0 <= index < n:
            raise ConfigurationError(f"seed index {index} is outside 0..{n - 1}")
        if index not in seen:
            seen.add(index)
            unique.append(index)
    return tuple(unique)
