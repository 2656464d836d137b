"""Chaos suite for the fault-tolerant serving layer.

Every test here is deterministic: fault schedules come from
:class:`repro.serving.faults.FaultPlan` (counter-based, seeded — the CI
smoke step pins ``REPRO_FAULT_SEED``), clocks are injected fakes where
timing matters, and assertions check the degraded-answer contract — the
service sheds or degrades, never hangs, and never returns a
silently-wrong non-degraded answer.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exceptions import (
    ArtifactCorruptError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceeded,
    IndexArtifactError,
    ServiceOverloadedError,
)
from repro.graphs.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.serving import (
    CircuitBreaker,
    Deadline,
    EvaluateOutcome,
    FaultPlan,
    FaultRule,
    InfluenceIndex,
    InfluenceService,
    MutableGraphWarning,
    RetryPolicy,
    SweepOutcome,
    fault_injection,
    load_index_artifact,
    payload_checksum,
)
from repro.serving import faults
from repro.serving.resilience import deterministic_jitter

#: CI pins this so the chaos smoke is replayable across runs; locally any
#: seed must pass — determinism is per-seed, not seed-specific.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


class FakeClock:
    """A manually-advanced monotonic clock for breaker/deadline tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TickingClock:
    """A clock that jumps ``step`` seconds on every read.

    Guarantees any deadline smaller than ``step`` is expired by its first
    check — which makes "the budget is too tight for this stage" tests
    deterministic instead of racing the real build time.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0) -> None:
        self.now = start
        self.step = step
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self.now += self.step
            return self.now


@pytest.fixture(scope="module")
def compiled():
    return erdos_renyi_graph(150, 0.04, seed=9).compile()


@pytest.fixture(scope="module")
def other_compiled():
    return erdos_renyi_graph(60, 0.08, seed=11).compile()


def make_service(**kwargs):
    kwargs.setdefault("default_theta", 400)
    kwargs.setdefault("retry_policy", RetryPolicy(base_delay=0.001))
    return InfluenceService(**kwargs)


class TestDeadline:
    def test_check_raises_with_stage_and_overrun(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(100, clock=clock)
        deadline.check("early")  # inside budget: no raise
        clock.advance(0.25)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("sample")
        assert excinfo.value.stage == "sample"
        assert excinfo.value.budget_seconds == pytest.approx(0.1)
        assert excinfo.value.overrun_seconds == pytest.approx(0.15)

    def test_require_refuses_too_tight_budget(self):
        clock = FakeClock()
        deadline = Deadline.after_seconds(1.0, clock=clock)
        deadline.require(0.5, "build")  # plenty left
        with pytest.raises(DeadlineExceeded):
            deadline.require(2.0, "build")

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after_ms(0)

    def test_expired_select_degrades_or_raises(self, compiled):
        service = make_service(clock=TickingClock(step=1.0))
        with pytest.raises(DeadlineExceeded):
            service.select(compiled, "ic", 3, deadline_ms=500)
        assert service.stats()["deadline_misses"] == 1
        selection = service.select(
            compiled, "ic", 3, deadline_ms=500, degraded_ok=True
        )
        assert selection.extras["degraded"] is True
        assert selection.extras["degraded_reason"].startswith("deadline:")
        assert len(selection.seeds) == 3
        assert service.stats()["degraded_answers"] == 1

    def test_deadline_propagates_into_sampling(self, compiled):
        # A clock ticking 1s per read expires the budget after a bounded
        # number of sampler blocks; the partially-grown index stays usable.
        clock = TickingClock(step=1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            InfluenceIndex.build(
                compiled,
                "ic",
                50_000,
                block_size=64,
                deadline=Deadline.after_seconds(3.0, clock=clock),
            )
        assert excinfo.value.stage == "sample"

    def test_degraded_evaluate_uses_degree_bound(self, compiled):
        service = make_service(clock=TickingClock(step=1.0))
        outcome = service.evaluate(
            compiled, "ic", [0, 1], deadline_ms=500, degraded_ok=True
        )
        assert isinstance(outcome, EvaluateOutcome)
        assert outcome.degraded is True
        assert "degree-bound" in outcome.reason
        degrees = np.diff(compiled.out_indptr)
        assert float(outcome) == pytest.approx(
            min(compiled.number_of_nodes, 2 + int(degrees[[0, 1]].sum()))
        )

    def test_degraded_sweep_is_marked(self, compiled):
        service = make_service(clock=TickingClock(step=1.0))
        curve = service.sweep(
            compiled, "ic", [1, 3], deadline_ms=500, degraded_ok=True
        )
        assert isinstance(curve, SweepOutcome)
        assert curve.degraded is True
        assert set(curve) == {1, 3}


class TestRetryPolicy:
    def test_backoff_is_deterministic_per_seed(self):
        first = RetryPolicy(seed=FAULT_SEED)
        second = RetryPolicy(seed=FAULT_SEED)
        assert [first.delay(i) for i in range(5)] == [
            second.delay(i) for i in range(5)
        ]
        other = RetryPolicy(seed=FAULT_SEED + 1)
        assert [first.delay(i) for i in range(5)] != [
            other.delay(i) for i in range(5)
        ]

    def test_delay_respects_cap_and_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=10.0, max_delay=0.5)
        for attempt in range(6):
            delay = policy.delay(attempt)
            assert 0.0 < delay <= 0.5

    def test_call_retries_transient_then_succeeds(self):
        failures = [OSError("disk hiccup"), OSError("disk hiccup")]
        pauses = []

        def flaky():
            if failures:
                raise failures.pop(0)
            return 7

        policy = RetryPolicy(attempts=3, base_delay=0.01, seed=FAULT_SEED)
        result = policy.call(flaky, sleep=pauses.append)
        assert result == 7
        assert pauses == [policy.delay(0), policy.delay(1)]

    def test_call_exhausts_attempts_and_propagates_unwrapped(self):
        policy = RetryPolicy(attempts=2, base_delay=0.001)
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")))

    def test_non_retryable_error_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5).call(broken)
        assert len(calls) == 1

    def test_backoff_never_outlives_deadline(self):
        clock = FakeClock()
        deadline = Deadline.after_seconds(0.5, clock=clock)
        policy = RetryPolicy(attempts=5, base_delay=10.0, jitter=0.0)
        slept = []
        with pytest.raises(OSError, match="transient"):
            policy.call(
                lambda: (_ for _ in ()).throw(OSError("transient")),
                deadline=deadline,
                sleep=slept.append,
            )
        assert slept == []  # surfaced the error instead of sleeping to expiry


class TestCircuitBreaker:
    def test_lifecycle_closed_open_halfopen_closed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, 10.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # second caller: probe already in flight
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_for_full_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # probe admitted
        breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(2, 5.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_guard_raises_circuit_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError, match="retry in"):
            breaker.guard("index deadbeef/ic")


class TestFaultPlan:
    def test_unknown_site_or_action_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("nonsense.site", "raise")
        with pytest.raises(ConfigurationError):
            FaultRule(faults.SITE_BUILD, "explode")

    def test_after_and_times_window(self):
        plan = FaultPlan(
            [FaultRule(faults.SITE_BUILD, "raise", after=2, times=2)],
            seed=FAULT_SEED,
        )
        outcomes = []
        for _ in range(6):
            try:
                plan.trigger(faults.SITE_BUILD)
                outcomes.append("ok")
            except faults.InjectedFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]
        assert plan.fired == [
            (faults.SITE_BUILD, 2, "raise"),
            (faults.SITE_BUILD, 3, "raise"),
        ]

    def test_probabilistic_schedule_replays_bit_for_bit(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(faults.SITE_ARTIFACT_READ, "raise", probability=0.4)],
                seed=seed,
            )
            fired = []
            for i in range(40):
                try:
                    plan.trigger(faults.SITE_ARTIFACT_READ)
                except faults.InjectedFault:
                    fired.append(i)
            return fired

        assert run(FAULT_SEED) == run(FAULT_SEED)
        assert run(FAULT_SEED) != run(FAULT_SEED + 1)
        fired = run(FAULT_SEED)
        assert 0 < len(fired) < 40  # the coin actually discriminates

    def test_sites_count_independently(self):
        plan = FaultPlan(
            [FaultRule(faults.SITE_BUILD, "raise", times=1)], seed=FAULT_SEED
        )
        plan.trigger(faults.SITE_LEADER)  # other site: no effect on counter
        with pytest.raises(faults.InjectedFault):
            plan.trigger(faults.SITE_BUILD)

    def test_sleep_rule_uses_injected_sleep(self):
        naps = []
        plan = FaultPlan(
            [FaultRule(faults.SITE_ARTIFACT_READ, "sleep", delay=0.25, times=1)],
            sleep=naps.append,
        )
        assert plan.trigger(faults.SITE_ARTIFACT_READ) is None
        assert naps == [0.25]

    def test_uninstalled_hook_is_noop(self):
        faults.uninstall()
        assert faults.trigger(faults.SITE_LEADER) is None

    def test_context_manager_scopes_plan(self):
        plan = FaultPlan([FaultRule(faults.SITE_BUILD, "raise", times=1)])
        with fault_injection(plan):
            assert faults.active_plan() is plan
        assert faults.active_plan() is None

    def test_jitter_is_pure(self):
        assert deterministic_jitter(3, 17) == deterministic_jitter(3, 17)
        assert deterministic_jitter(3, 17) != deterministic_jitter(4, 17)


class TestArtifactHardening:
    def _persist(self, tmp_path, compiled, theta=300):
        index = InfluenceIndex.build(compiled, "ic", theta, engine_seed=3)
        path = tmp_path / "index.npz"
        index.save(path)
        return index, path

    @staticmethod
    def _arrays_of(artifact):
        return {
            "members": artifact.members,
            "indptr": artifact.indptr,
            "node_indptr": artifact.node_indptr,
            "node_sets": artifact.node_sets,
        }

    def test_checksum_roundtrip_and_stability(self, tmp_path, compiled):
        _, path = self._persist(tmp_path, compiled)
        mapped = load_index_artifact(path, mmap=True)
        eager = load_index_artifact(path, mmap=False)
        # The canonical encoding makes the digest independent of whether the
        # arrays came back memory-mapped or eagerly loaded.
        assert mapped.metadata["payload_sha256"] == payload_checksum(
            self._arrays_of(mapped)
        )
        assert eager.metadata["payload_sha256"] == payload_checksum(
            self._arrays_of(eager)
        )

    def test_truncated_file_wrapped_with_remediation(self, tmp_path, compiled):
        _, path = self._persist(tmp_path, compiled)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IndexArtifactError, match="rebuild"):
            load_index_artifact(path)

    def test_garbage_file_wrapped(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(IndexArtifactError, match="rebuild"):
            load_index_artifact(path)

    def test_flipped_payload_byte_is_detected(self, tmp_path, compiled):
        # Real corruption, not injection: rewrite the artifact with one
        # array element changed but the original recorded checksum.
        _, path = self._persist(tmp_path, compiled)
        artifact = load_index_artifact(path, mmap=False)
        arrays = {
            k: np.array(v) for k, v in self._arrays_of(artifact).items()
        }
        arrays["members"][0] ^= 1
        meta_json = np.frombuffer(
            json.dumps(artifact.metadata, sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        with open(path, "wb") as handle:
            np.savez(handle, meta_json=meta_json, **arrays)
        with pytest.raises(ArtifactCorruptError) as excinfo:
            load_index_artifact(path)
        assert excinfo.value.metadata["model"] == "ic"
        assert "quarantine" in str(excinfo.value)

    def test_injected_corruption_detected_without_touching_file(
        self, tmp_path, compiled
    ):
        _, path = self._persist(tmp_path, compiled)
        plan = FaultPlan(
            [FaultRule(faults.SITE_ARTIFACT_PAYLOAD, "corrupt", times=1)],
            seed=FAULT_SEED,
        )
        with fault_injection(plan):
            with pytest.raises(ArtifactCorruptError):
                load_index_artifact(path)
        load_index_artifact(path)  # the file itself is intact

    def test_service_quarantines_and_rebuilds_corrupt_artifact(
        self, tmp_path, compiled
    ):
        original, path = self._persist(tmp_path, compiled)
        reference = original.select(4).seeds
        plan = FaultPlan(
            [FaultRule(faults.SITE_ARTIFACT_PAYLOAD, "corrupt", times=1)],
            seed=FAULT_SEED,
        )
        service = make_service()
        with fault_injection(plan):
            rebuilt = service.load_artifact(path, compiled)
        assert (tmp_path / "index.npz.corrupt").exists()
        assert path.exists()  # re-persisted at the original location
        stats = service.stats()
        assert stats["artifacts_quarantined"] == 1
        assert stats["artifacts_rebuilt"] == 1
        # Rebuilt from the artifact's own provenance: identical answers.
        assert rebuilt.theta == original.theta
        assert rebuilt.select(4).seeds == reference
        assert load_index_artifact(path)  # the new file verifies cleanly

    def test_transient_read_errors_are_retried(self, tmp_path, compiled):
        _, path = self._persist(tmp_path, compiled)
        plan = FaultPlan(
            [FaultRule(faults.SITE_ARTIFACT_READ, "raise", times=2)],
            seed=FAULT_SEED,
        )
        service = make_service()
        with fault_injection(plan):
            index = service.load_artifact(path, compiled)
        assert index.theta == 300
        assert service.stats()["io_retries"] == 2

    def test_exhausted_retries_feed_the_breaker(self, tmp_path, compiled):
        _, path = self._persist(tmp_path, compiled)
        clock = FakeClock()
        service = make_service(
            retry_policy=RetryPolicy(attempts=1),
            breaker_threshold=2,
            breaker_reset_seconds=30.0,
            clock=clock,
        )
        plan = FaultPlan([FaultRule(faults.SITE_ARTIFACT_READ, "raise")])
        with fault_injection(plan):
            for _ in range(2):
                with pytest.raises(OSError):
                    service.load_artifact(path, compiled)
            with pytest.raises(CircuitOpenError):
                service.load_artifact(path, compiled)
        # Cooldown elapses, the probe is admitted, and the now-healthy
        # artifact closes the breaker.
        clock.advance(31.0)
        assert service.load_artifact(path, compiled).theta == 300
        assert service.stats()["breakers"]["open"] == 0

    def test_hot_swap_serves_new_artifact_without_dropping_old(
        self, tmp_path, compiled
    ):
        original, path = self._persist(tmp_path, compiled, theta=300)
        service = make_service()
        service.load_artifact(path, compiled)
        resident = service.get_index(compiled, "ic")
        before = resident.estimate_spread([0, 1])
        bigger = InfluenceIndex.build(compiled, "ic", 600, engine_seed=3)
        bigger.save(path)
        swapped = service.hot_swap(path, compiled)
        assert swapped.theta == 600
        assert service.get_index(compiled, "ic") is swapped
        # The old object keeps answering for requests already holding it.
        assert resident.estimate_spread([0, 1]) == before
        assert service.stats()["hot_swaps"] == 1


class TestServiceResilience:
    def test_build_failures_trip_breaker_then_recover(self, compiled):
        clock = FakeClock()
        service = make_service(
            breaker_threshold=2, breaker_reset_seconds=20.0, clock=clock
        )
        plan = FaultPlan(
            [FaultRule(faults.SITE_BUILD, "raise", times=2)], seed=FAULT_SEED
        )
        with fault_injection(plan):
            for _ in range(2):
                with pytest.raises(OSError):
                    service.select(compiled, "ic", 3)
            with pytest.raises(CircuitOpenError):
                service.select(compiled, "ic", 3)
            assert service.stats()["breakers"]["open"] == 1
            # While open, a degraded-tolerant caller still gets an answer.
            selection = service.select(compiled, "ic", 3, degraded_ok=True)
            assert selection.extras["degraded_reason"] == "breaker-open"
            clock.advance(21.0)
            healthy = service.select(compiled, "ic", 3)  # half-open probe
        assert not healthy.extras.get("degraded")
        assert service.stats()["breakers"]["open"] == 0

    def test_degraded_select_uses_degree_heuristic(self, compiled):
        service = make_service(breaker_threshold=1, clock=FakeClock())
        service._breaker((service._key(compiled, "ic")[0])).record_failure()
        selection = service.select(compiled, "ic", 5, degraded_ok=True)
        assert selection.extras["fallback"] == "degree-heuristic"
        degrees = np.diff(compiled.out_indptr)
        order = np.argsort(-degrees, kind="stable")
        assert selection.seeds == compiled.labels_for(order[:5].tolist())

    def test_degraded_evaluate_prefers_cached_spread(self, compiled):
        service = make_service(breaker_threshold=1, clock=FakeClock())
        healthy = service.evaluate(compiled, "ic", [3, 4])
        assert not healthy.degraded
        key = service._key(compiled, "ic")[0]
        with service._lock:
            service._indexes.clear()  # force the rebuild path
        service._breaker(key).record_failure()
        cached = service.evaluate(compiled, "ic", [3, 4], degraded_ok=True)
        assert cached.degraded and "cached-spread" in cached.reason
        assert float(cached) == float(healthy)
        fresh = service.evaluate(compiled, "ic", [9], degraded_ok=True)
        assert "degree-bound" in fresh.reason

    def test_shedding_past_max_queue(self, compiled):
        service = make_service(max_queue=2)
        service.get_index(compiled, "ic")
        service._admit()
        service._admit()
        try:
            with pytest.raises(ServiceOverloadedError):
                service.evaluate(compiled, "ic", [0])
            # Shed means shed: degraded_ok must not turn overload into work.
            with pytest.raises(ServiceOverloadedError):
                service.evaluate(compiled, "ic", [0], degraded_ok=True)
        finally:
            service._release()
            service._release()
        assert service.stats()["requests_shed"] == 2
        assert service.stats()["degraded_answers"] == 0
        assert service.evaluate(compiled, "ic", [0]) > 0

    def test_leader_death_reaches_every_parked_waiter_exactly_once(
        self, compiled
    ):
        service = make_service()
        service.get_index(compiled, "ic")
        stalled = threading.Event()
        release = threading.Event()

        def stall(_delay):
            stalled.set()
            assert release.wait(timeout=10.0)

        plan = FaultPlan(
            [
                FaultRule(faults.SITE_LEADER, "sleep", times=1),
                FaultRule(faults.SITE_LEADER, "raise", after=1, times=1),
            ],
            seed=FAULT_SEED,
            sleep=stall,
        )
        with fault_injection(plan), ThreadPoolExecutor(max_workers=4) as pool:
            leader = pool.submit(service.evaluate, compiled, "ic", [0])
            assert stalled.wait(timeout=10.0)
            followers = [
                pool.submit(service.evaluate, compiled, "ic", [i + 1])
                for i in range(3)
            ]
            # All three must be parked behind the stalled leader before it
            # is released, so they form one batch under the next leader.
            deadline = threading.Event()
            for _ in range(2000):
                with service._lock:
                    queued = sum(len(v) for v in service._pending.values())
                if queued == 3:
                    break
                deadline.wait(0.005)
            assert queued == 3
            release.set()
            assert leader.result(timeout=10.0) > 0  # first batch unharmed
            errors = []
            for future in followers:
                with pytest.raises(faults.InjectedFault) as excinfo:
                    future.result(timeout=10.0)
                errors.append(excinfo.value)
        # One injected fault, delivered to every parked waiter exactly once.
        assert len({id(e) for e in errors}) == 1
        assert plan.fired[-1] == (faults.SITE_LEADER, 1, "raise")
        # The failure is not sticky: leadership was released cleanly.
        assert service.evaluate(compiled, "ic", [0]) > 0

    def test_mixed_load_under_faults_answers_or_sheds_every_request(
        self, tmp_path
    ):
        """The degraded-answer contract under closed-loop mixed traffic.

        16 client threads fire 60 evaluates, selects and hot swaps at a
        bounded admission queue while the coalescing leader crashes on ~15%
        of its batches and artifact reads stall.  With ``degraded_ok`` every
        request is answered (possibly degraded) or shed after its retry
        budget; none fails and none hangs.
        """
        graph = barabasi_albert_graph(500, 3, seed=1)
        graph.set_weighted_cascade_probabilities()
        compiled = graph.compile()
        artifact = tmp_path / "index.npz"
        InfluenceIndex.build(compiled, "ic", 2_000, engine_seed=0).save(artifact)
        service = make_service(
            default_theta=2_000,
            engine_seed=0,
            max_queue=12,
            retry_policy=RetryPolicy(base_delay=0.001, seed=FAULT_SEED),
        )
        service.load_artifact(artifact, compiled)

        rng = np.random.default_rng(7)
        requests = []
        for i in range(60):
            if i % 50 == 25:
                requests.append("swap")
            elif i % 10 == 0:
                requests.append("select")
            else:
                requests.append(rng.choice(500, size=8, replace=False).tolist())

        outcomes = {"answered": 0, "shed": 0, "failed": 0}
        lock = threading.Lock()

        def client(request):
            # A shed request backs off and retries, as the overload error
            # instructs; it counts as shed only once its retries run out.
            for _ in range(50):
                try:
                    if request == "swap":
                        service.hot_swap(artifact, compiled)
                    elif request == "select":
                        service.select(
                            compiled, "ic", 8,
                            deadline_ms=2_000.0, degraded_ok=True,
                        )
                    else:
                        service.evaluate(
                            compiled, "ic", request,
                            deadline_ms=2_000.0, degraded_ok=True,
                        )
                except ServiceOverloadedError:
                    threading.Event().wait(0.002)
                    continue
                except Exception:  # noqa: BLE001 — counted and asserted on
                    outcome = "failed"
                else:
                    outcome = "answered"
                break
            else:
                outcome = "shed"
            with lock:
                outcomes[outcome] += 1

        plan = FaultPlan(
            [
                FaultRule(faults.SITE_LEADER, "raise", probability=0.15),
                FaultRule(
                    faults.SITE_ARTIFACT_READ, "sleep", delay=0.02,
                    probability=0.5,
                ),
            ],
            seed=FAULT_SEED,
        )
        with fault_injection(plan), ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(client, requests))
        assert plan.fired, "no fault fired: the contract went untested"
        assert sum(outcomes.values()) == len(requests)
        assert outcomes["failed"] == 0, outcomes

    def test_concurrent_eviction_with_inflight_evaluates(
        self, compiled, other_compiled
    ):
        service = make_service(capacity=1, default_theta=200)
        reference = float(service.evaluate(compiled, "ic", [0, 1]))
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                try:
                    value = float(service.evaluate(compiled, "ic", [0, 1]))
                    if value != reference:
                        failures.append(("wrong", value))
                except Exception as error:  # noqa: BLE001
                    failures.append(("error", error))

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                # Each get_index for the other graph evicts the first one
                # (capacity=1) while evaluates for it are in flight.
                service.get_index(other_compiled, "ic")
                service.get_index(compiled, "ic")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not failures
        assert service.stats()["index_evictions"] >= 10

    def test_mutable_graph_warns_exactly_once_per_service(self, compiled):
        mutable = erdos_renyi_graph(30, 0.1, seed=2)
        service = make_service(default_theta=100)
        with pytest.warns(MutableGraphWarning):
            service.get_index(mutable, "ic")
        with warnings.catch_warnings():
            warnings.simplefilter("error", MutableGraphWarning)
            service.get_index(mutable, "ic")  # second call: silent
        with pytest.warns(MutableGraphWarning):
            make_service(default_theta=100).get_index(mutable, "ic")

    def test_outcome_types_are_wire_compatible(self, compiled):
        service = make_service(default_theta=200)
        outcome = service.evaluate(compiled, "ic", [0])
        assert isinstance(outcome, float)
        assert outcome + 0.0 == float(outcome)
        assert json.loads(json.dumps({"spread": outcome}))["spread"] == float(
            outcome
        )
        curve = service.sweep(compiled, "ic", [1, 2])
        assert isinstance(curve, dict) and set(curve) == {1, 2}

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            make_service(max_queue=0)
        with pytest.raises(ConfigurationError):
            make_service(default_deadline_ms=0)
        with pytest.raises(ConfigurationError):
            make_service(eval_cache_size=0)


class TestServeCLIFaultFlags:
    def _run(self, monkeypatch, capsys, requests, extra_args=()):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"),
        )
        code = cli_main([
            "serve", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "ic", "--theta", "500", *extra_args,
        ])
        assert code == 0
        return [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]

    def test_degraded_ok_flag_marks_responses(self, monkeypatch, capsys):
        lines = self._run(
            monkeypatch,
            capsys,
            [
                # 1 microsecond: expires before the on-demand build starts.
                {"op": "select", "k": 3, "deadline_ms": 0.001},
                {"op": "select", "k": 3},
                {"op": "evaluate", "seeds": [0], "deadline_ms": 0.001},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
            extra_args=["--degraded-ok", "--max-queue", "8"],
        )
        degraded_select, healthy_select, degraded_eval, stats = lines[:4]
        assert degraded_select["ok"] and degraded_select["degraded"]
        assert degraded_select["degraded_reason"].startswith("deadline:")
        assert len(degraded_select["seeds"]) == 3
        assert healthy_select["ok"] and not healthy_select["degraded"]
        assert degraded_eval["degraded"]
        assert stats["degraded_answers"] == 2
        assert stats["max_queue"] == 8

    def test_without_degraded_ok_deadline_miss_is_an_error(
        self, monkeypatch, capsys
    ):
        lines = self._run(
            monkeypatch,
            capsys,
            [
                {"op": "select", "k": 3, "deadline_ms": 0.001},
                {"op": "shutdown"},
            ],
        )
        assert lines[0]["ok"] is False
        assert "deadline" in lines[0]["error"]

    def test_reload_op_hot_swaps_artifact(self, monkeypatch, capsys, tmp_path):
        from repro.datasets.registry import load_dataset

        graph = load_dataset("nethept", scale=0.1, seed=1).compile()
        path = tmp_path / "served.npz"
        InfluenceIndex.build(graph, "ic", 500).save(path)
        lines = self._run(
            monkeypatch,
            capsys,
            [
                {"op": "select", "k": 3},
                {"op": "reload", "artifact": str(path)},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
        )
        assert lines[1]["ok"] and lines[1]["op"] == "reload"
        assert lines[1]["theta"] == 500
        assert lines[2]["hot_swaps"] == 1
