"""Edge-list persistence.

The SNAP benchmark graphs used in the paper ship as whitespace-separated edge
lists with ``#`` comment lines; the readers below understand that format plus
an extended variant carrying per-edge probability and interaction columns and
per-node opinion lines, so annotated graphs can be round-tripped to disk.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, TextIO, Union

from repro.exceptions import DatasetError, GraphError
from repro.graphs.digraph import (
    DEFAULT_INFLUENCE_PROBABILITY,
    DEFAULT_INTERACTION_PROBABILITY,
    DiGraph,
)

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str) -> TextIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def read_edge_list(
    path: PathLike,
    directed: bool = True,
    probability: float = DEFAULT_INFLUENCE_PROBABILITY,
    interaction: float = DEFAULT_INTERACTION_PROBABILITY,
    name: str = "",
) -> DiGraph:
    """Read a (possibly gzipped) edge list into a :class:`DiGraph`.

    Accepted line formats (``#`` starts a comment):

    * ``u v``                     — edge with default attributes
    * ``u v p``                   — edge with influence probability ``p``
    * ``u v p phi``               — edge with probability and interaction
    * ``N u opinion``             — node-opinion record (written by
      :func:`write_edge_list` when opinions are present)

    Node identifiers are parsed as integers when possible, otherwise kept as
    strings.
    """
    graph = DiGraph(name=name or Path(path).stem)
    opinions: list[tuple[int, object, str]] = []
    with _open_text(path, "r") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "N":
                if len(parts) != 3:
                    raise DatasetError(
                        f"{path}:{lineno}: node-opinion lines must be 'N node opinion'"
                    )
                opinions.append((lineno, _parse_node(parts[1]), parts[2]))
                continue
            if len(parts) < 2 or len(parts) > 4:
                raise DatasetError(
                    f"{path}:{lineno}: expected 2-4 whitespace-separated fields, "
                    f"got {len(parts)}"
                )
            source = _parse_node(parts[0])
            target = _parse_node(parts[1])
            try:
                p = float(parts[2]) if len(parts) >= 3 else probability
                phi = float(parts[3]) if len(parts) == 4 else interaction
                graph.add_edge(source, target, probability=p, interaction=phi)
                if not directed:
                    graph.add_edge(target, source, probability=p, interaction=phi)
            except (GraphError, ValueError) as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    for lineno, node, opinion in opinions:
        try:
            graph.add_node(node, opinion=float(opinion))
        except (GraphError, ValueError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    return graph


def write_edge_list(
    graph: DiGraph,
    path: PathLike,
    include_attributes: bool = True,
    include_opinions: bool = True,
) -> None:
    """Write ``graph`` as an edge list understood by :func:`read_edge_list`."""
    with _open_text(path, "w") as handle:
        handle.write(f"# repro edge list: {graph.name or 'unnamed'}\n")
        handle.write(
            f"# nodes={graph.number_of_nodes} edges={graph.number_of_edges}\n"
        )
        if include_opinions and graph.has_opinions():
            for node in graph.nodes():
                handle.write(f"N {node} {graph.opinion(node):.6f}\n")
        for source, target, data in graph.edges():
            if include_attributes:
                handle.write(
                    f"{source} {target} {data.probability:.6f} {data.interaction:.6f}\n"
                )
            else:
                handle.write(f"{source} {target}\n")


def iter_edge_tuples(graph: DiGraph) -> Iterable[tuple]:
    """Yield plain ``(source, target, probability, interaction)`` tuples."""
    for source, target, data in graph.edges():
        yield source, target, data.probability, data.interaction


def _parse_node(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        return token
