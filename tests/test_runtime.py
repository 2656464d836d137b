"""Tests for the supervised execution runtime.

Covers the SupervisedPool contract (block order, stop, task failures,
in-parent replay after a worker death), the bit-for-bit determinism of
parallel index growth and Monte-Carlo estimates after a worker death,
checkpoint/resume identity for builds and experiment runs, cooperative
interrupts, and the CLI's kill-then-resume contract (exercised
cross-process with real signals).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ExecutionInterrupted,
    TaskFailedError,
)
from repro.diffusion.simulation import MonteCarloEngine, _simulate_batch_pooled
from repro.graphs.generators import erdos_renyi_graph
from repro.runtime import (
    BuildCheckpoint,
    InterruptGuard,
    RunCheckpoint,
    SupervisedPool,
)
from repro.runtime.interrupt import raise_on_sigterm
from repro.serving import InfluenceIndex, payload_checksum
from repro.sketches.sampler import sampler_worker_run
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


# Module-level task functions: picklable on spawn-start platforms.


def _square(payload):
    return payload * payload


def _fail_on_three(payload):
    if payload == 3:
        raise ValueError("three is right out")
    return payload


# Worker-fault doubles.  The pool forks on Linux, so a module attribute
# monkeypatched in the parent reaches every worker it starts.

#: A path only the first faulting worker can create, or ``None`` to make
#: every worker fault on its first block.
_FAULT_MARKER = None


def _fault_here() -> bool:
    """Whether this process should fault now; never in the parent itself,
    which is where crash replay runs blocks."""
    if multiprocessing.parent_process() is None:
        return False
    if _FAULT_MARKER is None:
        return True
    try:
        os.close(os.open(_FAULT_MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _square_or_exit(payload):
    if _fault_here():
        os._exit(137)  # dies the way an OOM kill would
    return payload * payload


def _sample_or_exit(tokens):
    if _fault_here():
        os._exit(137)
    return sampler_worker_run(tokens)


def _simulate_or_exit(payload):
    if _fault_here():
        os._exit(137)
    return _simulate_batch_pooled(payload)


def _fault_once(monkeypatch, tmp_path):
    monkeypatch.setattr(
        sys.modules[__name__], "_FAULT_MARKER", str(tmp_path / "faulted")
    )


@pytest.fixture(scope="module")
def wc_graph():
    graph = erdos_renyi_graph(150, 0.04, seed=7)
    graph.set_weighted_cascade_probabilities()
    return graph


@pytest.fixture(scope="module")
def serial_index(wc_graph):
    """The uninterrupted single-process reference build."""
    return InfluenceIndex.build(
        wc_graph, "ic", 1200, engine_seed=3, block_size=64
    )


# ------------------------------------------------------------ SupervisedPool


class TestSupervisedPool:
    def test_results_come_back_in_payload_order(self):
        with SupervisedPool(_square, workers=2) as pool:
            assert pool.run(list(range(12))) == [i * i for i in range(12)]

    def test_empty_payloads_is_a_noop(self):
        with SupervisedPool(_square, workers=1) as pool:
            assert pool.run([]) == []

    def test_streaming_emits_strictly_in_index_order(self):
        seen = []
        with SupervisedPool(_square, workers=3) as pool:
            returned = pool.run(
                list(range(20)), on_result=lambda i, r: seen.append((i, r))
            )
        assert returned is None
        assert seen == [(i, i * i) for i in range(20)]

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SupervisedPool(_square, workers=0)

    def test_closed_pool_rejects_run(self):
        pool = SupervisedPool(_square, workers=1)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.run([1])

    def test_stop_predicate_raises_execution_interrupted(self):
        with SupervisedPool(_square, workers=1) as pool:
            with pytest.raises(ExecutionInterrupted, match="--resume"):
                pool.run([1, 2, 3], stop=lambda: True, stage="sample")

    def test_task_failure_is_reported_not_retried_and_pool_survives(self):
        with SupervisedPool(_fail_on_three, workers=2) as pool:
            with pytest.raises(TaskFailedError, match="ValueError"):
                pool.run(list(range(8)))
            # The pool stays usable: the next run spawns fresh workers.
            assert pool.run([0, 1, 2]) == [0, 1, 2]

    def test_worker_death_is_replayed_in_the_parent(self, monkeypatch, tmp_path):
        _fault_once(monkeypatch, tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            with SupervisedPool(_square_or_exit, workers=2) as pool:
                assert pool.run(list(range(10))) == [i * i for i in range(10)]
                # The next run starts a fresh executor.
                assert pool.run([4, 5]) == [16, 25]
            replayed = registry.get("repro_runtime_blocks_replayed_total")
        assert (tmp_path / "faulted").exists()  # a worker really died
        assert replayed is not None and replayed.value >= 1


_ORPHAN_SCRIPT = """
import json, os, sys, time
from repro.runtime import SupervisedPool

def worker_pid(_):
    time.sleep(0.2)
    return os.getpid()

if __name__ == "__main__":
    pool = SupervisedPool(worker_pid, workers=2)
    print(json.dumps(sorted(set(pool.run(range(6))))), flush=True)
    time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_sigkilled(tmp_path):
    script = tmp_path / "hold_pool.py"
    script.write_text(_ORPHAN_SCRIPT)
    process = subprocess.Popen(
        [sys.executable, str(script)],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    pids = []
    try:
        pids = json.loads(process.stdout.readline())
        assert len(pids) == 2 and process.pid not in pids
        process.kill()
        process.wait()
        assert _wait_for(lambda: not any(map(_running, pids)), timeout=5.0), [
            pid for pid in pids if _running(pid)
        ]
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _run_python(source: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", source],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_worker_init_runs_init_fn_beside_a_daemon_watcher():
    result = _run_python(
        "import os, threading\n"
        "from repro.runtime.pool import _worker_init\n"
        "_worker_init(os.getppid(), print, ('ready', 7))\n"
        "print([t.daemon for t in threading.enumerate()])\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["ready 7", "[False, True]"]


def test_worker_exits_once_its_parent_pid_changes():
    # A parent pid that is not the real parent reads as "the parent died
    # and this process was re-parented"; the watcher ends the process.
    started = time.monotonic()
    result = _run_python(
        "import os, time\n"
        "from repro.runtime.pool import _worker_init\n"
        "_worker_init(os.getppid() + 1, None, ())\n"
        "time.sleep(20)\n"
    )
    assert result.returncode == 1, result.stderr
    assert time.monotonic() - started < 15.0


# ------------------------------------------------- parallel grow determinism


class TestParallelGrowDeterminism:
    def test_parallel_build_is_bit_identical_to_serial(
        self, wc_graph, serial_index
    ):
        parallel = InfluenceIndex.build(
            wc_graph, "ic", 1200, engine_seed=3, block_size=64, workers=2
        )
        assert parallel.collection == serial_index.collection
        assert parallel.select(5).seeds == serial_index.select(5).seeds

    def test_parallel_build_after_a_worker_death_is_bit_identical(
        self, wc_graph, serial_index, monkeypatch, tmp_path
    ):
        import repro.sketches.sampler as sampler_mod

        _fault_once(monkeypatch, tmp_path)
        monkeypatch.setattr(sampler_mod, "sampler_worker_run", _sample_or_exit)
        rebuilt = InfluenceIndex.build(
            wc_graph, "ic", 1200, engine_seed=3, block_size=64, workers=2
        )
        assert (tmp_path / "faulted").exists()  # a worker really died
        assert rebuilt.collection == serial_index.collection
        assert rebuilt.select(5).seeds == serial_index.select(5).seeds


class TestParallelMonteCarloReplay:
    def test_estimate_after_a_worker_death_equals_serial(
        self, wc_graph, monkeypatch, tmp_path
    ):
        import repro.diffusion.simulation as simulation_mod

        seeds = [0, 5, 17]
        serial = MonteCarloEngine(wc_graph, "ic", simulations=600, seed=11)
        expected = serial.estimate(seeds)
        _fault_once(monkeypatch, tmp_path)
        monkeypatch.setattr(
            simulation_mod, "_simulate_batch_pooled", _simulate_or_exit
        )
        engine = MonteCarloEngine(
            wc_graph, "ic", simulations=600, seed=11, workers=2
        )
        try:
            estimate = engine.estimate(seeds)
        finally:
            engine.close()
        assert (tmp_path / "faulted").exists()  # a worker really died
        assert estimate == expected


# ------------------------------------------------------------ BuildCheckpoint


class _StopAfter:
    """A stop predicate that fires once ``threshold`` blocks completed."""

    def __init__(self, threshold: int, index: InfluenceIndex) -> None:
        self.threshold = threshold
        self.index = index

    def __call__(self) -> bool:
        return self.index.collection.num_sets >= self.threshold


class TestBuildCheckpoint:
    def test_interrupted_build_resumes_bit_identical(
        self, tmp_path, wc_graph, serial_index
    ):
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output, every=2)
        compiled = wc_graph.compile()
        index = InfluenceIndex.build(
            wc_graph, "ic", 0, engine_seed=3, block_size=64
        )
        with pytest.raises(ExecutionInterrupted):
            index.grow(
                1200, checkpoint=checkpoint, stop=_StopAfter(320, index)
            )
        assert checkpoint.exists()
        partial = checkpoint.resume(
            compiled, model="ic", engine_seed=3, block_size=64
        )
        assert partial is not None
        assert 0 < partial.theta < 1200
        partial.grow(1200)
        assert partial.collection == serial_index.collection
        assert partial.select(5).seeds == serial_index.select(5).seeds

    def test_stop_mid_parallel_grow_resumes_exact_token_stream(
        self, tmp_path, wc_graph, serial_index
    ):
        """A stop while worker *processes* are sampling leaves a checkpoint
        whose resume replays the token stream exactly."""
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output, every=2)
        index = InfluenceIndex.build(
            wc_graph, "ic", 0, engine_seed=3, block_size=64
        )
        with pytest.raises(ExecutionInterrupted):
            index.grow(
                1200, workers=2, checkpoint=checkpoint,
                stop=_StopAfter(320, index),
            )
        partial = checkpoint.resume(
            wc_graph.compile(), model="ic", engine_seed=3, block_size=64
        )
        assert partial is not None
        assert 0 < partial.theta < 1200
        partial.grow(1200, workers=2)
        assert partial.collection == serial_index.collection
        assert partial.select(5).seeds == serial_index.select(5).seeds

    def test_resume_refuses_a_different_build(self, tmp_path, wc_graph):
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output, every=1)
        index = InfluenceIndex.build(
            wc_graph, "ic", 128, engine_seed=3, block_size=64
        )
        checkpoint.save(index, 256)
        with pytest.raises(CheckpointError, match="engine_seed"):
            checkpoint.resume(
                wc_graph.compile(), model="ic", engine_seed=4, block_size=64
            )

    def test_unreadable_manifest_means_fresh_build(self, tmp_path, wc_graph):
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output)
        checkpoint.manifest_path.write_bytes(b'{"format": "repro-build-ch')
        assert (
            checkpoint.resume(
                wc_graph.compile(), model="ic", engine_seed=3, block_size=64
            )
            is None
        )

    def test_corrupt_partial_artifact_means_fresh_build(
        self, tmp_path, wc_graph
    ):
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output, every=1)
        index = InfluenceIndex.build(
            wc_graph, "ic", 128, engine_seed=3, block_size=64
        )
        checkpoint.save(index, 256)
        payload = checkpoint.artifact_path.read_bytes()
        checkpoint.artifact_path.write_bytes(payload[: len(payload) // 2])
        assert (
            checkpoint.resume(
                wc_graph.compile(), model="ic", engine_seed=3, block_size=64
            )
            is None
        )

    def test_torn_manifest_after_a_save_means_fresh_build(
        self, tmp_path, wc_graph
    ):
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output, every=1)
        index = InfluenceIndex.build(
            wc_graph, "ic", 128, engine_seed=3, block_size=64
        )
        checkpoint.save(index, 256)
        manifest = checkpoint.manifest_path.read_bytes()
        checkpoint.manifest_path.write_bytes(
            manifest[: len(manifest) // 2] + b"\x00garbage"
        )
        # The torn manifest is discarded, not trusted and not fatal.
        assert (
            checkpoint.resume(
                wc_graph.compile(), model="ic", engine_seed=3, block_size=64
            )
            is None
        )

    def test_clear_removes_both_files(self, tmp_path, wc_graph):
        output = tmp_path / "index.npz"
        checkpoint = BuildCheckpoint(output, every=1)
        index = InfluenceIndex.build(
            wc_graph, "ic", 64, engine_seed=3, block_size=64
        )
        checkpoint.save(index, 64)
        assert checkpoint.exists()
        checkpoint.clear()
        assert not checkpoint.exists()
        assert not checkpoint.artifact_path.exists()

    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="cadence"):
            BuildCheckpoint(tmp_path / "x.npz", every=0)


# -------------------------------------------------------------- RunCheckpoint


def _small_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="runtime-ckpt",
        graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
        model=ModelSpec(name="wc"),
        algorithm=AlgorithmSpec(name="easyim", options={"max_path_length": 3}),
        budget=5,
        seed=0,
        evaluation=EvalSpec(
            estimator=EstimatorSpec(backend="sketch", theta=2000)
        ),
    )


class TestRunCheckpoint:
    def test_resume_skips_selection_and_reproduces_seeds(self, tmp_path):
        from repro.api import run_experiment

        spec = _small_spec()
        path = tmp_path / "run.ckpt.json"
        first = run_experiment(spec, checkpoint=path)
        assert path.exists()
        second = run_experiment(spec, checkpoint=path, resume=True)
        assert second.extras.get("resumed_selection") is True
        assert second.seeds == first.seeds
        assert "resumed_selection" not in first.extras

    def test_foreign_spec_digest_is_refused(self, tmp_path):
        spec = _small_spec()
        digest = RunCheckpoint.spec_digest(spec)
        checkpoint = RunCheckpoint(tmp_path / "run.ckpt.json")
        from repro.algorithms.base import SeedSelectionResult

        checkpoint.save_selection(
            digest,
            SeedSelectionResult(
                seeds=[1, 2, 3], algorithm="easyim", budget=3
            ),
        )
        assert checkpoint.load_selection(digest) is not None
        with pytest.raises(CheckpointError, match="different spec"):
            checkpoint.load_selection("0" * 64)

    def test_missing_checkpoint_resumes_nothing(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "absent.ckpt.json")
        assert checkpoint.load_selection("0" * 64) is None


# ------------------------------------------------------------------ interrupts


def _wait_for(predicate, timeout: float = 2.0) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestInterrupts:
    def test_first_signal_defers_second_raises(self):
        with InterruptGuard() as guard:
            assert guard.active
            assert not guard.stop_requested()
            os.kill(os.getpid(), signal.SIGTERM)
            assert _wait_for(guard.stop_requested)
            assert guard.signal_name == "SIGTERM"
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
                _wait_for(lambda: False, timeout=2.0)

    def test_handlers_are_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with InterruptGuard():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_raise_on_sigterm_maps_to_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with raise_on_sigterm():
                os.kill(os.getpid(), signal.SIGTERM)
                _wait_for(lambda: False, timeout=2.0)


# ------------------------------------------------------------------ CLI chaos


def _build_command(output: str, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "index",
        "build",
        "--dataset",
        "soclive",
        "--scale",
        "0.2",
        "--seed",
        "1",
        "--model",
        "ic",
        "--theta",
        "60000",
        "--block-size",
        "512",
        "--engine-seed",
        "5",
        "--output",
        output,
        *extra,
    ]


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_and_wait_for_checkpoint(cwd, output: str):
    process = subprocess.Popen(
        _build_command(output, "--checkpoint", "--checkpoint-every", "4"),
        cwd=cwd,
        env=_cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    manifest = cwd / f"{output}.ckpt.json"
    while not manifest.exists():
        if process.poll() is not None:
            pytest.skip("build finished before a checkpoint could be observed")
        time.sleep(0.02)
    return process


class TestCliCrashRecovery:
    def test_sigkill_then_resume_matches_uninterrupted_build(self, tmp_path):
        process = _start_and_wait_for_checkpoint(tmp_path, "killed.npz")
        process.kill()
        process.wait()

        resumed = subprocess.run(
            _build_command("killed.npz", "--resume", "--json"),
            cwd=tmp_path,
            env=_cli_env(),
            capture_output=True,
            text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["resumed_from_theta"] > 0

        clean = subprocess.run(
            _build_command("clean.npz"),
            cwd=tmp_path,
            env=_cli_env(),
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stderr

        from repro.serving.artifact import load_index_artifact

        killed = load_index_artifact(tmp_path / "killed.npz", mmap=False)
        reference = load_index_artifact(tmp_path / "clean.npz", mmap=False)
        digest = payload_checksum(
            {"members": killed.members, "indptr": killed.indptr}
        )
        expected = payload_checksum(
            {"members": reference.members, "indptr": reference.indptr}
        )
        assert digest == expected
        # Success clears the checkpoint files.
        assert not (tmp_path / "killed.npz.ckpt.json").exists()

    def test_sigterm_exits_130_with_a_resume_hint(self, tmp_path):
        process = _start_and_wait_for_checkpoint(tmp_path, "term.npz")
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 130
        assert "interrupted by SIGTERM" in stderr
        assert "--resume" in stderr
        assert (tmp_path / "term.npz.ckpt.json").exists()
