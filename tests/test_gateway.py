"""Tests for the online serving gateway and its score-row cache.

Covers TTL expiry (with an injected fake clock), LRU eviction order,
invalidation on ``observe()``, the work-conserving flush policy (driven
through :class:`GateEngine`, no wall clock) and the tentpole contract —
gateway micro-batched results bit-identical to direct ``ScoringEngine``
calls.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.models import create_model
from repro.serving import ScoreRowCache, ScoringEngine, ServingGateway
from repro.training.bench import synthetic_training_histories

pytestmark = pytest.mark.fast

NUM_USERS = 24
NUM_ITEMS = 40


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def build_engine(**kwargs):
    model = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(0),
                         embedding_dim=8, n_h=4, n_l=2)
    histories = synthetic_training_histories(NUM_USERS, NUM_ITEMS, 12, seed=0)
    return ScoringEngine(model, histories, exclude_seen=True, precompute=True,
                         **kwargs)


class GateEngine:
    """A real engine whose scoring calls can be held at a gate.

    After :meth:`hold`, the next ``masked_scores`` / ``score_all`` call
    blocks inside the engine — and the gateway's flusher with it — until
    :meth:`release`; :meth:`wait_entered` returns once that call has
    arrived (see :func:`submit_and_hold`).  ``calls`` records every
    scoring call's user list in order, so a test reads off exactly which
    batches the gateway cut.  Shared with ``test_resilience.py`` and
    ``test_cluster.py``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls: list[list[int]] = []
        self._entered = threading.Event()
        self._open = threading.Event()
        self._open.set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def hold(self) -> None:
        self._entered.clear()
        self._open.clear()

    def release(self) -> None:
        self._open.set()

    def wait_entered(self) -> None:
        assert self._entered.wait(30.0), "no scoring call reached the gate"

    def _pass_gate(self, users) -> None:
        self.calls.append([int(user) for user in users])
        self._entered.set()
        assert self._open.wait(30.0), "gate was never released"

    def masked_scores(self, users, **kwargs):
        self._pass_gate(users)
        return self._inner.masked_scores(users, **kwargs)

    def score_all(self, users, **kwargs):
        self._pass_gate(users)
        return self._inner.score_all(users, **kwargs)


def submit_and_hold(gateway, engine: GateEngine, user: int, k: int = 3):
    """Submit one request to an idle gateway and hold its engine call.

    On return the flusher is inside the engine with ``[user]`` and the
    queue is empty again: whatever is submitted next queues up behind
    that call until ``engine.release()``.
    """
    engine.hold()
    future = gateway.submit(user, k)
    engine.wait_entered()
    return future


def flush_counters(gateway) -> tuple[int, int, int, int]:
    """``(batches, flush_full, flush_drain, flush_deadline)`` right now."""
    stats = gateway.stats()
    return (stats.batches, stats.flush_full, stats.flush_drain,
            stats.flush_deadline)


# ---------------------------------------------------------------------- #
# ScoreRowCache
# ---------------------------------------------------------------------- #
def test_cache_hit_miss_counters_and_hit_rate():
    cache = ScoreRowCache(capacity=4)
    row = np.arange(5.0)
    assert cache.get("a") is None
    cache.put("a", row)
    hit = cache.get("a")
    np.testing.assert_array_equal(hit, row)
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
    assert stats.requests == 2
    assert stats.hit_rate == 0.5
    assert stats.as_dict()["hit_rate"] == 0.5


def test_cache_stores_an_owned_copy():
    cache = ScoreRowCache(capacity=2)
    row = np.arange(4.0)
    cache.put("a", row)
    row[0] = 99.0
    assert cache.get("a")[0] == 0.0


def test_cache_lru_eviction_order():
    cache = ScoreRowCache(capacity=3)
    for key in ("a", "b", "c"):
        cache.put(key, np.zeros(2))
    cache.get("a")                 # refresh "a": LRU order is now b, c, a
    cache.put("d", np.zeros(2))    # evicts "b", the least recently used
    assert "b" not in cache
    assert "a" in cache and "c" in cache and "d" in cache
    assert cache.stats().evictions == 1
    cache.put("e", np.zeros(2))    # evicts "c"
    assert "c" not in cache
    assert cache.stats().evictions == 2
    assert len(cache) == 3


def test_cache_put_replace_refreshes_lru_position():
    cache = ScoreRowCache(capacity=2)
    cache.put("a", np.zeros(2))
    cache.put("b", np.zeros(2))
    cache.put("a", np.ones(2))     # replace refreshes "a"
    cache.put("c", np.zeros(2))    # so "b" is evicted, not "a"
    assert "a" in cache and "b" not in cache
    assert cache.get("a")[0] == 1.0


def test_cache_ttl_expiry_with_fake_clock():
    clock = FakeClock()
    cache = ScoreRowCache(capacity=4, ttl_s=10.0, clock=clock)
    cache.put("a", np.zeros(2))
    clock.advance(9.999)
    assert cache.get("a") is not None
    clock.advance(0.001)           # exactly at the deadline -> expired
    assert cache.get("a") is None
    stats = cache.stats()
    assert stats.expirations == 1
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.size == 0
    # Re-inserting restarts the TTL window.
    cache.put("a", np.zeros(2))
    clock.advance(5.0)
    assert cache.get("a") is not None


def test_cache_invalidate_user_drops_masked_and_raw_rows():
    cache = ScoreRowCache(capacity=8)
    cache.put((3, True), np.zeros(2))
    cache.put((3, False), np.zeros(2))
    cache.put((4, True), np.zeros(2))
    assert cache.invalidate_user(3) == 2
    assert (3, True) not in cache and (3, False) not in cache
    assert (4, True) in cache
    assert cache.stats().invalidations == 2
    assert cache.invalidate_user(3) == 0


def test_cache_clear_counts_invalidations():
    cache = ScoreRowCache(capacity=4)
    cache.put("a", np.zeros(2))
    cache.put("b", np.zeros(2))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().invalidations == 2


def test_cache_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ScoreRowCache(capacity=0)
    with pytest.raises(ValueError):
        ScoreRowCache(capacity=4, ttl_s=0.0)


# ---------------------------------------------------------------------- #
# Gateway batching semantics
# ---------------------------------------------------------------------- #
def test_gateway_results_bit_identical_to_engine():
    engine = build_engine()
    users = np.arange(NUM_USERS, dtype=np.int64)
    direct = engine.top_k(users, 7)
    with ServingGateway(engine, max_batch=6,
                        cache_size=NUM_USERS) as gateway:
        futures = [gateway.submit(int(user), 7) for user in users]
        batched = np.stack([future.result(timeout=30.0) for future in futures])
        # Repeat requests are served from the row cache, still identical.
        repeat = np.stack([gateway.top_k(int(user), 7) for user in users[:8]])
        stats = gateway.stats()
    np.testing.assert_array_equal(direct, batched)
    np.testing.assert_array_equal(direct[:8], repeat)
    assert stats.requests == NUM_USERS + 8
    assert stats.cache is not None and stats.cache.hits > 0


def test_gateway_unmasked_and_mixed_k_requests_match_engine():
    engine = build_engine()
    with ServingGateway(engine, max_batch=8,
                        cache_size=8) as gateway:
        masked = gateway.submit(1, 5)
        raw = gateway.submit(1, 5, exclude_seen=False)
        wide = gateway.submit(2, 11)
        np.testing.assert_array_equal(
            masked.result(timeout=30.0),
            engine.top_k(np.asarray([1]), 5)[0])
        np.testing.assert_array_equal(
            raw.result(timeout=30.0),
            engine.top_k(np.asarray([1]), 5, exclude_seen=False)[0])
        np.testing.assert_array_equal(
            wide.result(timeout=30.0),
            engine.top_k(np.asarray([2]), 11)[0])


def test_gateway_recommend_matches_engine_recommendations():
    engine = build_engine()
    direct = engine.recommend(5, k=6)
    with ServingGateway(engine, max_batch=4) as gateway:
        via_gateway = gateway.recommend(5, k=6)
    assert via_gateway == direct


def test_gateway_idle_request_is_served_at_once_as_a_batch_of_one():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=64, cache_size=0) as gateway:
        # Nothing else is coming and nothing times out: the only way
        # this resolves is the flusher taking the lone request as is.
        ranked = gateway.submit(5, 3).result(timeout=30.0)
        assert engine.calls == [[5]]
        assert flush_counters(gateway) == (1, 0, 0, 0)
        assert gateway.stats().max_batch_observed == 1
    np.testing.assert_array_equal(ranked, engine.top_k(np.asarray([5]), 3)[0])


def test_gateway_coalesces_behind_a_held_call_fifo_up_to_max_batch():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=4, cache_size=0) as gateway:
        first = submit_and_hold(gateway, engine, 0)
        queued = [gateway.submit(user, 3) for user in range(1, 10)]
        assert gateway.health()["queue_depth"] == 9
        engine.release()
        for future in [first, *queued]:
            future.result(timeout=30.0)
        # Nine requests queued behind the call: two batches cut at
        # max_batch, then the remainder — in submission order.
        assert engine.calls == [[0], [1, 2, 3, 4], [5, 6, 7, 8], [9]]
        assert flush_counters(gateway) == (4, 2, 0, 0)
        assert gateway.stats().max_batch_observed == 4


def test_gateway_close_drains_pending_requests():
    engine = GateEngine(build_engine())
    gateway = ServingGateway(engine, max_batch=2, cache_size=0)
    first = submit_and_hold(gateway, engine, 0)
    queued = [gateway.submit(user, 3) for user in range(1, 4)]
    with pytest.raises(RuntimeError, match="did not drain"):
        gateway.close(timeout=0.01)  # the flusher is held at the gate
    with pytest.raises(RuntimeError, match="closed"):
        gateway.submit(0, 3)
    engine.release()
    # The queued requests were resolved by the drain, not stranded.
    for future in [first, *queued]:
        assert future.result(timeout=30.0).shape == (3,)
    assert engine.calls == [[0], [1, 2], [3]]
    assert flush_counters(gateway) == (3, 0, 2, 0)


def test_gateway_concurrent_submitters_lose_no_request():
    """More submitter threads than cores, a shortened switch interval:
    a lost wake-up strands a future, a lost update breaks the counts."""
    engine = build_engine()
    expected = engine.top_k(np.arange(NUM_USERS, dtype=np.int64), 5)
    submitters, per_thread = 8, 150
    mismatches: list[tuple[int, int]] = []

    def submit_and_check(offset: int, gateway) -> None:
        for step in range(per_thread):
            user = (offset + step) % NUM_USERS
            ranked = gateway.submit(user, 5).result(timeout=30.0)
            if not np.array_equal(ranked, expected[user]):
                mismatches.append((offset, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
            threads = [threading.Thread(target=submit_and_check,
                                        args=(offset, gateway))
                       for offset in range(submitters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            stats = gateway.stats()
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches
    assert stats.requests == submitters * per_thread
    # Every request left in exactly one batch, none larger than the cap.
    assert round(stats.mean_batch_size * stats.batches) == stats.requests
    assert 1 <= stats.max_batch_observed <= 4
    assert stats.flush_deadline == 0 and stats.expired == 0


def test_gateway_validates_requests_at_submit():
    engine = build_engine()
    with ServingGateway(engine, max_batch=4) as gateway:
        with pytest.raises(ValueError):
            gateway.submit(NUM_USERS, 3)
        with pytest.raises(ValueError):
            gateway.submit(0, 0)
    with pytest.raises(ValueError):
        ServingGateway(engine, max_batch=0)
    with pytest.raises(ValueError):
        ServingGateway(engine, cache_ttl_s=0.0)


# ---------------------------------------------------------------------- #
# observe() integration
# ---------------------------------------------------------------------- #
def test_gateway_observe_invalidates_only_that_users_rows():
    engine = build_engine()
    with ServingGateway(engine, max_batch=4,
                        cache_size=32) as gateway:
        before_3 = gateway.top_k(3, 5)
        gateway.top_k(7, 5)
        invalidations_before = gateway.stats().cache.invalidations

        new_item = int(before_3[0])  # recommend -> user interacts with it
        gateway.observe(3, new_item)

        stats = gateway.stats()
        assert stats.cache.invalidations > invalidations_before
        after_3 = gateway.top_k(3, 5)
        # The observed item is now part of user 3's history, so the
        # masked ranking must exclude it.
        assert new_item not in after_3
        np.testing.assert_array_equal(
            after_3, engine.top_k(np.asarray([3]), 5)[0])
        # User 7's cached row survived: serving it is still a cache hit.
        hits_before = gateway.stats().cache.hits
        gateway.top_k(7, 5)
        assert gateway.stats().cache.hits == hits_before + 1


def test_gateway_refresh_clears_cache_on_serial_engines_only():
    from repro.parallel import ShardedScoringEngine

    engine = build_engine()
    with ServingGateway(engine, max_batch=4,
                        cache_size=8) as gateway:
        gateway.top_k(0, 5)
        assert gateway.stats().cache.size == 1
        gateway.refresh()
        assert gateway.stats().cache.size == 0

    sharded = ShardedScoringEngine(engine.model,
                                   [engine.history(user)
                                    for user in range(NUM_USERS)],
                                   n_workers=1)
    try:
        with ServingGateway(sharded, max_batch=4) as gateway:
            with pytest.raises(NotImplementedError):
                gateway.refresh()
    finally:
        sharded.close()


def test_gateway_ttl_expiry_forces_rescore():
    engine = build_engine()
    with ServingGateway(engine, max_batch=4,
                        cache_size=8, cache_ttl_s=60.0) as gateway:
        clock = FakeClock()
        gateway.cache._clock = clock  # rewire to the deterministic clock
        gateway.top_k(2, 5)
        misses_before = gateway.stats().cache.misses
        clock.advance(61.0)
        row = gateway.top_k(2, 5)
        stats = gateway.stats()
    assert stats.cache.expirations == 1
    assert stats.cache.misses == misses_before + 1
    np.testing.assert_array_equal(row, engine.top_k(np.asarray([2]), 5)[0])
