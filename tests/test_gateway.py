"""Tests for the online serving gateway and its top-k answer cache.

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
from repro.serving import ScoringEngine, ServingGateway, TopKCache
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

    After :meth:`hold`, the next ``top_k_scored`` call blocks inside the
    engine — and the gateway's flusher with it — until :meth:`release`;
    :meth:`wait_entered` returns once that call has arrived (see
    :func:`submit_and_hold`).  ``calls`` records every scoring call's
    user list in order, so a test reads off exactly which batches the
    gateway cut.  Shared with ``test_resilience.py`` and
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

    def top_k_scored(self, users, k, **kwargs):
        self.calls.append([int(user) for user in users])
        self._entered.set()
        assert self._open.wait(30.0), "gate was never released"
        return self._inner.top_k_scored(users, k, **kwargs)


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
# TopKCache
# ---------------------------------------------------------------------- #
def answer(width: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A ``width``-wide ``(ids, scores)`` answer starting at id ``first``."""
    ids = np.arange(first, first + width, dtype=np.int64)
    return ids, -ids.astype(np.float64)


def test_cache_hit_miss_counters_and_hit_rate():
    cache = TopKCache(capacity=4)
    ids, scores = answer(5)
    assert cache.get("a", 5) is None
    cache.put("a", ids, scores)
    hit_ids, hit_scores = cache.get("a", 5)
    np.testing.assert_array_equal(hit_ids, ids)
    np.testing.assert_array_equal(hit_scores, scores)
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
    assert stats.requests == 2
    assert stats.hit_rate == 0.5
    assert stats.as_dict()["hit_rate"] == 0.5


def test_cache_stores_an_owned_copy():
    cache = TopKCache(capacity=2)
    ids, scores = answer(4)
    stored = cache.put("a", ids, scores)
    ids[0] = 99
    scores[0] = 99.0
    hit = cache.get("a", 4)
    # Full-width hit: the very arrays put() stored, no per-hit allocation.
    assert hit[0] is stored[0] and hit[1] is stored[1]
    assert hit[0][0] == 0 and hit[1][0] == 0.0
    assert hit[0].dtype == np.int64 and hit[1].dtype == np.float64
    for array in hit:
        with pytest.raises(ValueError):
            array[0] = 1


def test_cache_serves_prefixes_and_misses_on_wider_k():
    cache = TopKCache(capacity=2)
    ids, scores = answer(6)
    cache.put("a", ids, scores)
    narrow = cache.get("a", 2)          # k <= served k: a prefix, a hit
    np.testing.assert_array_equal(narrow[0], ids[:2])
    np.testing.assert_array_equal(narrow[1], scores[:2])
    assert cache.get("a", 7) is None    # wider than served: a miss
    assert "a" in cache                 # ... that leaves the entry alone
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 1)
    cache.put("a", *answer(7))          # the wider answer replaces it
    assert cache.get("a", 7)[0].shape == (7,)
    assert len(cache) == 1


def test_cache_lru_eviction_order():
    cache = TopKCache(capacity=3)
    for key in ("a", "b", "c"):
        cache.put(key, *answer(2))
    cache.get("a", 2)              # refresh "a": LRU order is now b, c, a
    cache.put("d", *answer(2))     # evicts "b", the least recently used
    assert "b" not in cache
    assert "a" in cache and "c" in cache and "d" in cache
    assert cache.stats().evictions == 1
    cache.put("e", *answer(2))     # evicts "c"
    assert "c" not in cache
    assert cache.stats().evictions == 2
    assert len(cache) == 3


def test_cache_put_replace_refreshes_lru_position():
    cache = TopKCache(capacity=2)
    cache.put("a", *answer(2))
    cache.put("b", *answer(2))
    cache.put("a", *answer(2, first=1))  # replace refreshes "a"
    cache.put("c", *answer(2))           # so "b" is evicted, not "a"
    assert "a" in cache and "b" not in cache
    assert cache.get("a", 2)[0][0] == 1


def test_cache_ttl_expiry_with_fake_clock():
    clock = FakeClock()
    cache = TopKCache(capacity=4, ttl_s=10.0, clock=clock)
    cache.put("a", *answer(2))
    clock.advance(9.999)
    assert cache.get("a", 2) is not None
    clock.advance(0.001)           # exactly at the deadline -> expired
    assert cache.get("a", 2) is None
    stats = cache.stats()
    assert stats.expirations == 1
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.size == 0
    # Re-inserting restarts the TTL window.
    cache.put("a", *answer(2))
    clock.advance(5.0)
    assert cache.get("a", 2) is not None


def test_cache_invalidate_user_drops_masked_and_raw_rows():
    cache = TopKCache(capacity=8)
    cache.put((3, True), *answer(2))
    cache.put((3, False), *answer(2))
    cache.put((4, True), *answer(2))
    assert cache.invalidate_user(3) == 2
    assert (3, True) not in cache and (3, False) not in cache
    assert (4, True) in cache
    assert cache.stats().invalidations == 2
    assert cache.invalidate_user(3) == 0


def test_cache_clear_counts_invalidations():
    cache = TopKCache(capacity=4)
    cache.put("a", *answer(2))
    cache.put("b", *answer(2))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().invalidations == 2


def test_cache_rejects_bad_configuration():
    with pytest.raises(ValueError):
        TopKCache(capacity=0)
    with pytest.raises(ValueError):
        TopKCache(capacity=4, ttl_s=0.0)


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
        # Repeat requests are served from the answer cache, still identical.
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
    # Every request was a cache hit answered in submit() or left in
    # exactly one batch, none larger than the cap.
    assert (round(stats.mean_batch_size * stats.batches)
            == stats.requests - stats.cache.hits)
    assert stats.cache.requests == stats.requests
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


def test_gateway_over_sharded_engine_matches_serial():
    """Worker-side top-k: only ids and scores cross the process boundary."""
    from repro.parallel import ShardedScoringEngine

    serial = build_engine()
    histories = [serial.history(user) for user in range(NUM_USERS)]
    users = np.arange(NUM_USERS, dtype=np.int64)
    with ShardedScoringEngine(serial.model, histories, n_workers=2) as sharded:
        with ServingGateway(sharded, max_batch=5, cache_size=4) as gateway:
            futures = [gateway.submit(int(user), 1 + int(user) % 9)
                       for user in users]
            replies = [future.result(timeout=60.0) for future in futures]
            for user, reply in zip(users.tolist(), replies):
                np.testing.assert_array_equal(
                    reply, serial.top_k(np.asarray([user]), 1 + user % 9)[0])
            raw = gateway.top_k(3, 6, exclude_seen=False, timeout=60.0)
            np.testing.assert_array_equal(
                raw, serial.top_k(np.asarray([3]), 6, exclude_seen=False)[0])
            item = int(gateway.top_k(3, 1, timeout=60.0)[0])
            gateway.observe(3, item)
            serial.observe(3, item)
            np.testing.assert_array_equal(
                gateway.top_k(3, 6, timeout=60.0),
                serial.top_k(np.asarray([3]), 6)[0])


# ---------------------------------------------------------------------- #
# Cache hits are answered inside submit()
# ---------------------------------------------------------------------- #
def test_gateway_cache_hit_is_resolved_in_submit_without_the_flusher():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
        first = gateway.top_k(3, 5)
        held = submit_and_hold(gateway, engine, 4)
        # The flusher is stuck inside the engine: only the submitting
        # thread itself can have resolved these.
        same = gateway.submit(3, 5)
        narrower = gateway.submit(3, 2)
        assert same.done() and narrower.done()
        np.testing.assert_array_equal(same.result(timeout=0), first)
        np.testing.assert_array_equal(narrower.result(timeout=0), first[:2])
        assert not held.done()
        stats = gateway.stats()
        # Hits count as requests but ride in no batch.
        assert (stats.requests, stats.batches, stats.mean_batch_size) == (4, 2, 1.0)
        assert (stats.cache.hits, stats.cache.misses) == (2, 2)
        engine.release()
        held.result(timeout=30.0)
    assert engine.calls == [[3], [4]]


def test_gateway_stats_and_health_do_not_wait_for_the_engine():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
        held = submit_and_hold(gateway, engine, 0)
        seen = {}

        def monitor() -> None:
            seen["stats"] = gateway.stats()
            seen["health"] = gateway.health()

        thread = threading.Thread(target=monitor)
        thread.start()
        thread.join(timeout=10.0)
        try:
            assert not thread.is_alive(), "stats()/health() waited on the engine"
            assert not held.done()
            assert seen["stats"].cache.misses == 1
            assert seen["health"]["flusher_alive"]
        finally:
            engine.release()
            thread.join(timeout=30.0)
        held.result(timeout=30.0)


def test_gateway_closed_raises_even_when_the_answer_is_cached():
    gateway = ServingGateway(build_engine(), max_batch=4, cache_size=8)
    gateway.top_k(3, 5)
    gateway.close()
    with pytest.raises(RuntimeError, match="closed"):
        gateway.submit(3, 5)
    assert gateway.stats().requests == 1


def test_gateway_wider_k_is_a_miss_that_replaces_the_entry():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
        gateway.top_k(3, 4)
        wide = gateway.top_k(3, 9)          # wider than served: re-scored
        assert engine.calls == [[3], [3]]
        np.testing.assert_array_equal(wide, engine.top_k(np.asarray([3]), 9)[0])
        for k in (9, 4, 1):                 # now all prefixes of one entry
            np.testing.assert_array_equal(
                gateway.top_k(3, k), engine.top_k(np.asarray([3]), k)[0])
        assert engine.calls == [[3], [3]]
        stats = gateway.stats().cache
        assert (stats.size, stats.hits, stats.misses) == (1, 3, 2)


def test_gateway_entry_spanning_the_catalogue_serves_every_k():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
        everything = gateway.top_k(3, NUM_ITEMS + 5)
        assert everything.shape == (NUM_ITEMS,)
        np.testing.assert_array_equal(
            everything, engine.top_k(np.asarray([3]), NUM_ITEMS + 5)[0])
        np.testing.assert_array_equal(gateway.top_k(3, 10 * NUM_ITEMS), everything)
        np.testing.assert_array_equal(gateway.top_k(3, 7), everything[:7])
        assert engine.calls == [[3]]


def test_gateway_caches_each_user_at_the_widest_k_asked_for_that_user():
    engine = GateEngine(build_engine())
    with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
        first = submit_and_hold(gateway, engine, 0)
        batch = [gateway.submit(1, 3), gateway.submit(2, NUM_ITEMS),
                 gateway.submit(1, 5)]
        engine.release()
        for future in [first, *batch]:
            future.result(timeout=30.0)
        assert engine.calls == [[0], [1, 2]]  # one call at k = NUM_ITEMS
        assert [future.result().shape[0] for future in batch] == [3, NUM_ITEMS, 5]
        assert gateway.cache.get((1, True), 5)[0].shape == (5,)
        assert gateway.cache.get((1, True), 6) is None
        assert gateway.cache.get((2, True), NUM_ITEMS) is not None


def test_gateway_recommendation_scores_are_the_engines_float64_scores():
    engine = build_engine()
    ranked, scores = engine.top_k_scored(np.asarray([5]), 6)
    with ServingGateway(engine, max_batch=4, cache_size=8) as gateway:
        for _ in range(2):  # computed, then served from the cache
            future = gateway.submit(5, 6)
            entries = future.recommendations(timeout=30.0)
            assert future._scores.dtype == np.float64
            assert [entry.item for entry in entries] == ranked[0].tolist()
            assert [entry.score for entry in entries] == scores[0].tolist()
            assert [entry.rank for entry in entries] == list(range(6))
        assert gateway.stats().cache.hits == 1
    with pytest.raises(ValueError):
        future.result()[0] = 0  # replies are read-only


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
                                   n_workers=2)
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
