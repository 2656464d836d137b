"""Golden payloads for the checked-in experiment specs.

Every document under ``examples/specs/`` must keep producing the same
``repro/run-result@1`` payload: seeds, values, curves, selection metadata
and provenance.  ``golden/spec_payloads.json`` records them without the
fields that vary between runs or releases (``timings``,
``runtime_seconds``, ``provenance.telemetry`` and
``provenance.library_version``).  Re-record a payload only in a change that
means to move its numbers, and say which numbers moved and why.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "examples" / "specs").glob("*.json"))
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "spec_payloads.json").read_text()
)


def _stable_payload(spec_path: pathlib.Path) -> dict:
    result = repro.run_experiment(repro.load_experiment_spec(spec_path))
    payload = json.loads(result.to_json())
    del payload["timings"], payload["runtime_seconds"]
    del payload["provenance"]["telemetry"], payload["provenance"]["library_version"]
    return payload


def test_every_spec_has_a_golden_payload():
    assert sorted(GOLDEN) == [path.name for path in SPECS]


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda path: path.name)
def test_spec_payload_matches_golden(spec_path):
    assert _stable_payload(spec_path) == GOLDEN[spec_path.name]
