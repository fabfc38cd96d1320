"""Chaos suite: fault-injected failure paths of the serving stack.

Drives :mod:`repro.parallel.supervisor` and
:mod:`repro.parallel.faults` through the scenarios ``docs/robustness.md``
promises, all deterministic and single-core safe:

* SIGKILL mid-request (injected and external) → respawn against the
  already-published arena, re-dispatch, bit-identical answers;
* restart-budget exhaustion → degraded in-process serial fallback, still
  bit-identical, reported via ``health()``;
* post-respawn circuit breaker → fast ``ShardCircuitOpenError`` for
  requests whose deadline lands inside the backoff window;
* request deadlines → ``TimeoutError`` on a stalled shard without
  poisoning later requests;
* observe semantics under crashes — acknowledged observes replay on the
  fresh incarnation, an in-flight observe aborts (at-most-once);
* gateway admission control — load shedding with a retry hint, queued
  deadline expiry, and deadline propagation into a sharded engine.

Select with ``pytest -m chaos`` or ``make chaos``.
"""

from __future__ import annotations

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro.models import create_model
from repro.parallel import (
    FaultInjector,
    FaultPlan,
    RestartPolicy,
    ShardCircuitOpenError,
    ShardedScoringEngine,
    ShardFault,
    ShardSupervisor,
    shard_bounds,
)
from repro.parallel.shm import SHM_PREFIX
from repro.serving import GatewayOverloadedError, ScoringEngine, ServingGateway

from test_gateway import GateEngine, submit_and_hold

pytestmark = pytest.mark.chaos

NUM_USERS = 12
NUM_ITEMS = 40


def _shm_entries() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}


@pytest.fixture(autouse=True)
def shm_guard():
    """Every chaos scenario must leave /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    gc.collect()
    leaked = _shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _workload(seed: int = 0):
    """Small untrained model + histories (parity needs no training)."""
    rng = np.random.default_rng(seed)
    model = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(1),
                         embedding_dim=8, n_h=4, n_l=2)
    model.eval()
    histories = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(8, 14)).tolist()
        for _ in range(NUM_USERS)
    ]
    return model, histories


def _copies(histories):
    return [list(h) for h in histories]


def _sharded(model, histories, **kwargs):
    kwargs.setdefault("request_timeout_s", 60.0)
    return ShardedScoringEngine(model, _copies(histories), n_workers=2,
                                exclude_seen=True, **kwargs)


def _shard_users(n_workers: int = 2):
    """User ids of shard 0 and shard 1."""
    bounds = shard_bounds(NUM_USERS, n_workers)
    return np.arange(bounds[0], bounds[1]), np.arange(bounds[1], NUM_USERS)


def _kill_worker(engine, shard: int) -> None:
    """SIGKILL a live shard worker from outside and wait for the corpse."""
    worker = engine._workers[shard]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10.0)
    assert not worker.is_alive()


ALL_USERS = np.arange(NUM_USERS)

#: close() budget for the stall scenarios: a stalled worker never reads
#: its shutdown sentinel, so close() waits this long before it joins
#: and terminates the worker.
_STALL_SHUTDOWN_WAIT_S = 2.0


def _assert_stalled_worker_terminated(workers, stalled_shard: int,
                                      shm_before: set[str]) -> None:
    """close() terminated the stalled worker, let the healthy one exit by
    itself and left no shared-memory segment behind."""
    for shard, worker in enumerate(workers):
        assert not worker.is_alive()
        expected = -signal.SIGTERM if shard == stalled_shard else 0
        assert worker.exitcode == expected, (shard, worker.exitcode)
    assert _shm_entries() - shm_before == set()


# ---------------------------------------------------------------------- #
# Policy / supervisor / fault-plan units (no multiprocessing)
# ---------------------------------------------------------------------- #
def test_restart_policy_validation_and_backoff():
    with pytest.raises(ValueError):
        RestartPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_base_s=-0.1)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_factor=0.5)

    policy = RestartPolicy(max_restarts=3, backoff_base_s=0.1,
                           backoff_factor=2.0, backoff_max_s=0.3)
    assert policy.backoff_s(0) == 0.0  # first respawn is free
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.3)  # capped
    assert policy.backoff_s(9) == pytest.approx(0.3)


def test_supervisor_respawn_then_degrade_accounting():
    supervisor = ShardSupervisor(2, RestartPolicy(max_restarts=2))
    health = supervisor.health_of(0)
    assert health.alive and not health.degraded

    for expected_restarts in (1, 2):
        supervisor.record_death(0, exitcode=-9)
        assert not supervisor.health_of(0).alive
        assert supervisor.should_respawn(0)
        supervisor.record_respawn(0)
        assert supervisor.health_of(0).restarts == expected_restarts
        assert supervisor.health_of(0).incarnation == expected_restarts
        assert supervisor.health_of(0).alive

    supervisor.record_death(0, exitcode=-9)
    assert not supervisor.should_respawn(0)  # budget spent
    supervisor.record_degraded(0)
    assert supervisor.degraded_shards == [0]
    assert supervisor.health_of(0).alive  # degraded still serves
    assert supervisor.total_deaths == 3 and supervisor.total_restarts == 2

    supervisor.record_aborted(0, 2)
    snapshot = supervisor.snapshot()
    assert snapshot[0]["degraded"] and snapshot[0]["aborted_requests"] == 2
    assert snapshot[0]["last_exitcode"] == -9
    assert snapshot[1] == {"shard": 1, "alive": True, "degraded": False,
                           "restarts": 0, "deaths": 0, "incarnation": 0,
                           "breaker_open_s": 0.0, "last_exitcode": None,
                           "aborted_requests": 0}


def test_supervisor_breaker_gates_by_deadline():
    supervisor = ShardSupervisor(1, RestartPolicy(backoff_base_s=0.05))
    supervisor.record_death(0)
    supervisor.record_respawn(0)  # first respawn: breaker stays closed
    supervisor.wait_for_breaker(0, deadline=time.monotonic())  # no-op

    supervisor.record_death(0)
    supervisor.record_respawn(0)  # second respawn: breaker opens 0.05 s
    with pytest.raises(ShardCircuitOpenError) as info:
        supervisor.wait_for_breaker(0, deadline=time.monotonic() + 0.001)
    assert info.value.shard == 0
    assert 0.0 < info.value.retry_after_s <= 0.05

    start = time.monotonic()
    supervisor.wait_for_breaker(0, deadline=None)  # waits out the window
    assert supervisor.health_of(0).breaker_open_for() == 0.0
    assert time.monotonic() - start <= 1.0


def test_fault_plan_validation_and_injector():
    with pytest.raises(ValueError):
        FaultPlan(faults=(ShardFault(shard=0), ShardFault(shard=0)))

    plan = FaultPlan.kill_worker(shard=1, at_request=3)
    assert plan.for_shard(1).kill_at_request == 3
    assert plan.for_shard(0) is None
    assert FaultPlan.delay_shard(0, delay_s=0.1).for_shard(0).delay_response_s == 0.1
    assert FaultPlan.stall_worker(0, at_request=2).for_shard(0).stall_at_request == 2

    # Injector is inert for shards the plan does not name.
    assert not FaultInjector(plan, shard=0).active
    injector = FaultInjector(plan, shard=1)
    assert injector.active
    injector.before_reply()  # no delay configured: returns immediately

    # Terminal faults apply only to incarnation 0 unless every_incarnation.
    respawned = FaultInjector(plan, shard=1, incarnation=1)
    for _ in range(5):
        respawned.on_request()  # would SIGKILL us if it applied

    delayed = FaultInjector(FaultPlan.delay_shard(0, delay_s=0.05), shard=0)
    start = time.monotonic()
    delayed.before_reply()
    assert time.monotonic() - start >= 0.05


# ---------------------------------------------------------------------- #
# Crash recovery of the sharded engine
# ---------------------------------------------------------------------- #
def test_injected_kill_midstream_respawns_bit_identical():
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    reference = serial.top_k(ALL_USERS, 5)

    plan = FaultPlan.kill_worker(shard=0, at_request=1)
    with _sharded(model, histories, fault_plan=plan) as engine:
        # The very first request finds the worker dead mid-request: the
        # supervisor respawns it and re-dispatches the sub-request.
        ranked = engine.top_k(ALL_USERS, 5)
        assert np.array_equal(ranked, reference)

        health = engine.health()
        assert health["shards"][0]["restarts"] == 1
        assert health["shards"][0]["deaths"] == 1
        assert health["degraded_shards"] == []
        stats = engine.stats()
        assert stats["worker_deaths"] == 1 and stats["redispatched"] >= 1

        # Steady state afterwards: no further deaths, still identical.
        assert np.array_equal(engine.top_k(ALL_USERS, 5), reference)
        assert engine.stats()["worker_deaths"] == 1


def test_external_sigkill_between_requests():
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    reference = serial.top_k(ALL_USERS, 5)

    with _sharded(model, histories) as engine:
        assert np.array_equal(engine.top_k(ALL_USERS, 5), reference)
        _kill_worker(engine, shard=1)
        # The next dispatch notices the corpse before enqueueing.
        assert np.array_equal(engine.top_k(ALL_USERS, 5), reference)
        assert engine.health()["shards"][1]["restarts"] == 1
        assert engine.stats()["redispatched"] == 0  # died idle


def test_budget_exhaustion_degrades_to_serial_fallback():
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    policy = RestartPolicy(max_restarts=1, backoff_base_s=0.01,
                           backoff_max_s=0.02)
    plan = FaultPlan.kill_worker(shard=0, at_request=1, every_incarnation=True)
    with _sharded(model, histories, fault_plan=plan,
                  restart_policy=policy) as engine:
        ranked = engine.top_k(ALL_USERS, 5)
        assert np.array_equal(ranked, serial.top_k(ALL_USERS, 5))

        health = engine.health()
        assert health["degraded_shards"] == [0]
        assert health["shards"][0]["degraded"]
        assert health["shards"][0]["restarts"] == 1  # budget was 1
        assert engine.stats()["degraded_shards"] == 1

        # The degraded shard keeps serving observes in-process.
        engine.observe(0, 7)
        serial.observe(0, 7)
        assert np.array_equal(engine.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))


def test_circuit_breaker_fails_fast_inside_backoff_window():
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    reference = serial.top_k(ALL_USERS, 5)
    policy = RestartPolicy(max_restarts=3, backoff_base_s=0.5,
                           backoff_max_s=0.5)

    with _sharded(model, histories, restart_policy=policy) as engine:
        engine.top_k(ALL_USERS, 5)
        _kill_worker(engine, shard=0)
        engine.top_k(ALL_USERS, 5)  # respawn #1: breaker stays closed
        _kill_worker(engine, shard=0)
        # Respawn #2 opens the breaker for 0.5 s; a request that cannot
        # wait that long fails fast with the retry hint.
        with pytest.raises(ShardCircuitOpenError) as info:
            engine.top_k(ALL_USERS, 5, timeout=0.05)
        assert 0.0 < info.value.retry_after_s <= 0.5
        # A patient request waits out the window and serves identically.
        assert np.array_equal(engine.top_k(ALL_USERS, 5, timeout=30.0),
                              reference)
        assert engine.health()["shards"][0]["restarts"] == 2


def test_deadline_expiry_does_not_poison_later_requests(monkeypatch):
    monkeypatch.setattr("repro.parallel.sharded._SHUTDOWN_WAIT_S",
                        _STALL_SHUTDOWN_WAIT_S)
    shm_before = _shm_entries()
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    shard0_users, shard1_users = _shard_users()
    reference = serial.top_k(shard1_users, 5)

    plan = FaultPlan.stall_worker(shard=0, at_request=1)
    with _sharded(model, histories, fault_plan=plan) as engine:
        with pytest.raises(TimeoutError):
            engine.top_k(ALL_USERS, 5, timeout=0.4)
        assert engine.stats()["deadline_timeouts"] == 1
        # The stalled shard never answers, but other shards keep serving
        # and the engine stays open.
        assert np.array_equal(engine.top_k(shard1_users, 5, timeout=30.0),
                              reference)
        workers = list(engine._workers)
    _assert_stalled_worker_terminated(workers, 0, shm_before)


# ---------------------------------------------------------------------- #
# Observe semantics under crashes
# ---------------------------------------------------------------------- #
def test_acknowledged_observes_replay_on_respawn():
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    shard0_users, _ = _shard_users()
    user = int(shard0_users[0])

    with _sharded(model, histories) as engine:
        for item in (3, 11, 3):
            engine.observe(user, item)
            serial.observe(user, item)
        assert np.array_equal(engine.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))
        _kill_worker(engine, shard=0)
        # The fresh incarnation replays the acknowledged observes before
        # serving anything — otherwise user 0's row would be stale.
        assert np.array_equal(engine.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))
        assert engine.stats()["observed_interactions"] == 3


def test_inflight_observe_aborts_at_most_once():
    model, histories = _workload()
    serial = ScoringEngine(model, _copies(histories), exclude_seen=True)
    shard0_users, _ = _shard_users()
    user = int(shard0_users[0])

    # Request 1 is a warm top_k; request 2 — the observe — kills the
    # worker after dequeue but before execution.
    plan = FaultPlan.kill_worker(shard=0, at_request=2)
    with _sharded(model, histories, fault_plan=plan) as engine:
        engine.top_k(ALL_USERS, 5)
        with pytest.raises(RuntimeError, match="observe in flight"):
            engine.observe(user, 9)
        # The interaction was NOT recorded (at-most-once), and the shard
        # is already respawned and serving.
        assert engine.stats()["observed_interactions"] == 0
        assert engine.health()["shards"][0]["aborted_requests"] == 1
        assert np.array_equal(engine.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))
        # Retrying the observe on the fresh incarnation succeeds.
        engine.observe(user, 9)
        serial.observe(user, 9)
        assert np.array_equal(engine.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))


# ---------------------------------------------------------------------- #
# Gateway admission control
# ---------------------------------------------------------------------- #
def _gated_engine(model, histories) -> GateEngine:
    return GateEngine(ScoringEngine(model, _copies(histories),
                                    exclude_seen=True))


def test_gateway_sheds_load_at_high_watermark():
    engine = _gated_engine(*_workload())
    with ServingGateway(engine, max_batch=1, cache_size=0,
                        max_queue=2) as gateway:
        futures = [submit_and_hold(gateway, engine, 0)]
        shed = []
        for user in range(1, 8):
            try:
                futures.append(gateway.submit(user, 3))
            except GatewayOverloadedError as error:
                shed.append(error)
        # One in flight, max_queue=2 queued behind it, the rest refused.
        assert len(futures) == 3 and len(shed) == 5
        assert all(error.retry_after_s > 0 for error in shed)
        engine.release()
        for future in futures:
            assert len(future.result(timeout=30.0)) > 0  # admitted complete
        assert engine.calls == [[0], [1], [2]]
        assert gateway.stats().shed == 5
        assert gateway.health()["max_queue"] == 2


def test_gateway_serves_cache_hits_at_a_full_queue():
    """A hit adds no load: at the watermark it is served, a miss is shed."""
    engine = _gated_engine(*_workload())
    with ServingGateway(engine, max_batch=1, cache_size=8,
                        max_queue=1) as gateway:
        cached = gateway.top_k(5, 3)
        futures = [submit_and_hold(gateway, engine, 0), gateway.submit(1, 3)]
        with pytest.raises(GatewayOverloadedError):
            gateway.submit(2, 3)
        hit = gateway.submit(5, 3)
        assert hit.done() and np.array_equal(hit.result(timeout=0), cached)
        with pytest.raises(GatewayOverloadedError):
            gateway.submit(5, 4)  # wider than cached: a miss like any other
        engine.release()
        for future in futures:
            assert len(future.result(timeout=30.0)) > 0
        stats = gateway.stats()
        assert (stats.shed, stats.requests, stats.batches) == (2, 4, 3)
        assert engine.calls == [[5], [0], [1]]


def test_gateway_shed_retry_hint_is_usable_before_first_batch():
    """The shed hint is batch service time (EWMA) x backlog batches.

    Before any batch completes the EWMA is unseeded; the hint then
    stands on the cold-start constant instead of collapsing to ~0,
    which would tell well-behaved clients to hammer a gateway that is
    already saturated.  Once a batch has completed it follows the
    measurement, never under 1 ms.
    """
    from repro.serving.gateway import _COLD_START_RETRY_S

    def shed_hint(gateway, users):
        """Hold one call, fill max_queue=2 behind it, shed one more.

        Returns the hint and the service-time EWMA it was computed from
        (stable while the flusher is held inside the engine).
        """
        futures = [submit_and_hold(gateway, engine, users[0])]
        futures += [gateway.submit(user, 3) for user in users[1:3]]
        with pytest.raises(GatewayOverloadedError) as shed:
            gateway.submit(users[3], 3)
        ewma = gateway._service_ewma_s
        engine.release()
        for future in futures:
            future.result(timeout=30.0)
        return shed.value.retry_after_s, ewma

    engine = _gated_engine(*_workload())
    with ServingGateway(engine, max_batch=1, cache_size=0,
                        max_queue=2) as gateway:
        # Two queued requests are two batches of max_batch=1.
        assert shed_hint(gateway, [0, 1, 2, 3]) == (2 * _COLD_START_RETRY_S,
                                                    None)
        hint, ewma = shed_hint(gateway, [4, 5, 6, 7])
        assert ewma is not None and hint == max(2 * ewma, 1e-3)


def test_gateway_expires_queued_requests_at_their_deadline():
    engine = _gated_engine(*_workload())
    with ServingGateway(engine, max_batch=4, cache_size=0) as gateway:
        blocker = submit_and_hold(gateway, engine, 0)
        doomed = gateway.submit(1, 3, timeout=0.02)
        # The caller's own bounded wait runs out first (the flusher is
        # held, nobody can resolve the future), and by then the
        # request's deadline has passed behind the held call.
        with pytest.raises(TimeoutError, match="did not complete"):
            doomed.result(timeout=0.1)
        engine.release()
        with pytest.raises(TimeoutError, match="deadline expired"):
            doomed.result(timeout=30.0)
        assert len(blocker.result(timeout=30.0)) > 0
        # The expiry poisoned nothing: a later request serves fine.
        assert len(gateway.submit(2, 3).result(timeout=30.0)) > 0
        # The doomed request never reached the engine.
        assert engine.calls == [[0], [2]]
        stats = gateway.stats()
        assert stats.expired == 1
        assert (stats.batches, stats.flush_deadline) == (2, 0)


def test_gateway_propagates_deadline_into_sharded_engine(monkeypatch):
    monkeypatch.setattr("repro.parallel.sharded._SHUTDOWN_WAIT_S",
                        _STALL_SHUTDOWN_WAIT_S)
    shm_before = _shm_entries()
    model, histories = _workload()
    shard0_users, shard1_users = _shard_users()
    plan = FaultPlan.stall_worker(shard=0, at_request=1)
    engine = _sharded(model, histories, fault_plan=plan)
    try:
        assert engine.supports_deadlines
        with ServingGateway(engine, max_batch=4, cache_size=0,
                            request_timeout_s=0.5) as gateway:
            doomed = gateway.submit(int(shard0_users[0]), 3)
            with pytest.raises(TimeoutError):
                doomed.result()
            # Shard 1 is untouched by the stall: its users still serve.
            assert len(gateway.submit(int(shard1_users[0]), 3).result()) > 0
            assert gateway.stats().expired >= 1
            assert gateway.health()["engine"]["mode"] == "sharded"
    finally:
        workers = list(engine._workers)
        engine.close()
    _assert_stalled_worker_terminated(workers, 0, shm_before)
