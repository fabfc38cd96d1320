"""Model-based parity of the gateway against a serial ``ScoringEngine``.

First slice of ROADMAP 9b, gateway only.  A Hypothesis state machine
drives ``submit`` / ``observe`` / ``refresh`` in arbitrary order against
a gateway with a two-entry answer cache (so entries are evicted,
replaced by wider ones and invalidated all the time) and checks every
reply against a second, serial engine that sees the same observes — the
cache may never serve an answer the reference would not compute now.
The item table carries exact score ties (all-zero embedding rows score
exactly 0.0 in any BLAS kernel), so prefix nesting is exercised under
the score-descending / id-ascending rule, not just on distinct scores.

The threaded case adds what the state machine cannot: submitters racing
one observer, which must read its own writes and leave no stale entry
behind.

The reference engine is only ever used while the gateway's flusher is
idle: ``repro.autograd.no_grad`` is a process-wide flag, so two engines
computing representations on two threads at once can leave gradient
recording switched off for every test that runs afterwards.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.models import create_model
from repro.serving import ScoringEngine, ServingGateway
from repro.training.bench import synthetic_training_histories

pytestmark = pytest.mark.fast

NUM_USERS = 6
NUM_ITEMS = 12
TIED_ITEMS = [2, 5, 9]


def tied_model(dtype: str = "float32"):
    """A HAM whose ``TIED_ITEMS`` all score exactly 0.0 for every user."""
    model = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(3), embedding_dim=8,
                         n_h=4, n_l=2, dtype=dtype)
    model.candidate_item_embeddings().data[TIED_ITEMS] = 0.0
    return model


def engines(model) -> tuple[ScoringEngine, ScoringEngine]:
    """Two independent engines over one model: served and reference."""
    histories = synthetic_training_histories(NUM_USERS, NUM_ITEMS, 5, seed=1)
    return (ScoringEngine(model, histories, precompute=True),
            ScoringEngine(model, histories, precompute=True))


def assert_cache_is_fresh(gateway, reference, score_rtol: float = 0.0) -> None:
    """Every cached answer equals what the reference computes right now.

    Ids always exactly; scores exactly too unless the answers may have
    been computed in batches of another shape than the reference's one
    row (BLAS sums then differ in the last bit).
    """
    for (user, masked), (ids, scores, _) in list(gateway.cache._entries.items()):
        want_ids, want_scores = reference.top_k_scored(
            np.asarray([user]), ids.shape[0], exclude_seen=masked)
        np.testing.assert_array_equal(ids, want_ids[0])
        np.testing.assert_allclose(scores, want_scores[0], rtol=score_rtol, atol=0.0)


users = st.integers(0, NUM_USERS - 1)


class GatewayAgainstSerialEngine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.model = tied_model()
        served, self.reference = engines(self.model)
        self.gateway = ServingGateway(served, max_batch=4, cache_size=2)

    def teardown(self):
        self.gateway.close()

    @rule(user=users, k=st.integers(1, NUM_ITEMS + 3),
          exclude_seen=st.sampled_from([None, True, False]))
    def submit(self, user, k, exclude_seen):
        future = self.gateway.submit(user, k, exclude_seen=exclude_seen)
        reply = future.result(timeout=30.0)
        ids, scores = self.reference.top_k_scored(
            np.asarray([user]), k, exclude_seen=exclude_seen)
        np.testing.assert_array_equal(reply, ids[0])
        assert ([entry.score for entry in future.recommendations()]
                == scores[0].tolist())

    @rule(user=users, item=st.integers(0, NUM_ITEMS - 1))
    def observe(self, user, item):
        self.gateway.observe(user, item)
        self.reference.observe(user, item)

    @rule()
    def refresh(self):
        # "Further training": the table moves (the tied rows with it),
        # and only refresh() may make either engine see it.
        table = self.model.candidate_item_embeddings().data
        table[:NUM_ITEMS] = np.roll(table[:NUM_ITEMS], 1, axis=0)
        self.gateway.refresh()
        self.reference.refresh()

    @invariant()
    def no_stale_entry(self):
        assert len(self.gateway.cache) <= 2
        assert_cache_is_fresh(self.gateway, self.reference)


TestGatewayAgainstSerialEngine = GatewayAgainstSerialEngine.TestCase
TestGatewayAgainstSerialEngine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)


def test_tied_items_tie_exactly():
    """The fixture does what the module docstring says it does."""
    served, _ = engines(tied_model())
    scores = served.score_all(np.arange(NUM_USERS))
    assert np.all(scores[:, TIED_ITEMS] == 0.0)
    ranked = served.top_k(np.arange(NUM_USERS), NUM_ITEMS, exclude_seen=False)
    for row in ranked:
        tied = [int(item) for item in row if item in TIED_ITEMS]
        assert tied == TIED_ITEMS  # adjacent in score, ascending by id


def test_gateway_observer_reads_its_writes_under_concurrent_submitters():
    """Submitters race one observer; more threads than cores, a shortened
    switch interval.  A put landing after the invalidate it raced would
    leave a stale entry and fail the observer's read or the final sweep."""
    # float64: batch composition is timing-dependent here, and one-row
    # vs batched BLAS sums may differ in the last float32 bit.
    served, reference = engines(tied_model("float64"))
    submitters, observes = 4, 150
    stop = threading.Event()
    duplicates: list[str] = []
    # (user, item, k, what the observer's own submit saw right after)
    own_reads: list[tuple[int, int, int, np.ndarray]] = []

    def submit_loop(offset: int, gateway) -> None:
        step = 0
        while not stop.is_set():
            user = (offset + step) % NUM_USERS
            reply = gateway.submit(user, 1 + step % NUM_ITEMS).result(timeout=30.0)
            if len(set(reply.tolist())) != reply.size:
                duplicates.append(f"user {user}: {reply}")
            step += 1

    def observe_loop(gateway) -> None:
        rng = np.random.default_rng(7)
        try:
            for _ in range(observes):
                user = int(rng.integers(NUM_USERS))
                item = int(rng.integers(NUM_ITEMS))
                k = int(rng.integers(1, NUM_ITEMS + 1))
                gateway.observe(user, item)
                own_reads.append((user, item, k,
                                  gateway.submit(user, k).result(timeout=30.0)))
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServingGateway(served, max_batch=4, cache_size=4) as gateway:
            threads = [threading.Thread(target=submit_loop, args=(offset, gateway))
                       for offset in range(submitters)]
            threads.append(threading.Thread(target=observe_loop, args=(gateway,)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not duplicates, duplicates[:5]
            assert len(own_reads) == observes
            # The observer was the only writer, so the history each of
            # its reads had to reflect is known: replay it.
            for user, item, k, reply in own_reads:
                reference.observe(user, item)
                np.testing.assert_array_equal(
                    reply, reference.top_k(np.asarray([user]), k)[0],
                    err_msg=f"stale read for user {user}")
            stats = gateway.stats()
            assert stats.cache.hits > 0 and stats.cache.invalidations > 0
            assert_cache_is_fresh(gateway, reference, score_rtol=1e-12)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
