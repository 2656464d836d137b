"""Golden payloads for the checked-in experiment specs.

Every document under ``examples/specs/`` must keep producing the same
``repro/run-result@1`` payload: seeds, values, curves, selection metadata
and provenance.  ``golden/spec_payloads.json`` records them without the
fields that vary between runs or releases (``timings``,
``runtime_seconds``, ``provenance.telemetry`` and
``provenance.library_version``).  Re-record a payload only in a change that
means to move its numbers, and say which numbers moved and why.

The payloads are also the determinism check: they must not move with the
estimator's worker count, nor with the interpreter's string-hash seed.
Each pytest process draws a random ``PYTHONHASHSEED``, so a value that
depends on hash order would fail the golden test only now and then; the
pinned seeds below make such a defect fail every run.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPECS = sorted((ROOT / "examples" / "specs").glob("*.json"))
GOLDEN = json.loads((HERE / "golden" / "spec_payloads.json").read_text())


def _stable_payload(spec_path: pathlib.Path, workers: int | None = None) -> dict:
    spec = repro.load_experiment_spec(spec_path)
    if workers is not None:
        spec.evaluation.estimator.workers = workers
    result = repro.run_experiment(spec)
    payload = json.loads(result.to_json())
    del payload["timings"], payload["runtime_seconds"]
    del payload["provenance"]["telemetry"], payload["provenance"]["library_version"]
    return payload


def test_every_spec_has_a_golden_payload():
    assert sorted(GOLDEN) == [path.name for path in SPECS]


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda path: path.name)
def test_spec_payload_matches_golden(spec_path):
    assert _stable_payload(spec_path) == GOLDEN[spec_path.name]


#: Only the Monte-Carlo backend spreads work across worker processes.
MONTE_CARLO_SPECS = [p for p in SPECS if GOLDEN[p.name]["backend"] == "monte-carlo"]
SERIAL_SPECS = [p for p in SPECS if GOLDEN[p.name]["backend"] != "monte-carlo"]


@pytest.mark.parametrize("spec_path", MONTE_CARLO_SPECS, ids=lambda path: path.name)
def test_spec_payload_is_independent_of_worker_count(spec_path):
    golden = GOLDEN[spec_path.name]
    payload = _stable_payload(spec_path, workers=2)
    # The spec is echoed into the provenance; only that echo may differ.
    echoed = payload["provenance"]["spec"]["evaluation"]["estimator"]
    assert echoed["workers"] == 2
    echoed["workers"] = golden["provenance"]["spec"]["evaluation"]["estimator"]["workers"]
    assert payload == golden


@pytest.mark.parametrize("spec_path", SERIAL_SPECS, ids=lambda path: path.name)
def test_serial_backend_refuses_workers(spec_path):
    with pytest.raises(repro.ConfigurationError, match="'monte-carlo'"):
        _stable_payload(spec_path, workers=2)


_RUN_EVERY_SPEC = (
    "import json, sys\n"
    "from test_spec_payloads import SPECS, _stable_payload\n"
    "json.dump({path.name: _stable_payload(path) for path in SPECS}, sys.stdout)\n"
)


@pytest.mark.parametrize("hash_seed", [0, 4242])
def test_spec_payloads_are_independent_of_hash_seed(hash_seed):
    """One interpreter per pinned hash seed runs every spec."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_SPEC],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    payloads = json.loads(completed.stdout)
    assert sorted(payloads) == sorted(GOLDEN)
    moved = sorted(name for name in GOLDEN if payloads[name] != GOLDEN[name])
    assert not moved, f"payloads moved under PYTHONHASHSEED={hash_seed}: {moved}"
