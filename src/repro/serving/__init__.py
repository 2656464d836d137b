"""Persistent influence index + concurrent serving layer.

Every CLI call used to re-sample RR sketches or re-run Monte-Carlo blocks
from scratch.  This package persists the expensive part — the RR-sketch
collection — and serves many queries over the materialized artifact:

* :mod:`repro.serving.artifact` — single-file ``.npz`` artifact store with
  provenance metadata (model, engine seed, theta, graph content
  fingerprint, library version, payload sha256) and memory-mapped reload;
  a corrupt payload fails its checksum on load.
* :class:`~repro.serving.index.InfluenceIndex` — warm ``select(k)``,
  k-sweep spread curves and seed-set spread estimates over a stored
  collection, plus bit-for-bit deterministic incremental theta growth.
* :class:`~repro.serving.service.InfluenceService` — a thread-safe
  front-end over attached indexes, keyed by ``(graph fingerprint, model)``,
  with LRU eviction and coalescing of concurrent evaluate requests.
"""

from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    IndexArtifact,
    build_metadata,
    load_index_artifact,
    payload_checksum,
    save_index_artifact,
)
from repro.serving.index import IndexSelection, InfluenceIndex
from repro.serving.service import EvaluateOutcome, InfluenceService

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "EvaluateOutcome",
    "IndexArtifact",
    "IndexSelection",
    "InfluenceIndex",
    "InfluenceService",
    "build_metadata",
    "load_index_artifact",
    "payload_checksum",
    "save_index_artifact",
]
