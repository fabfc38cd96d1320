"""Tests of the multi-process execution substrate (:mod:`repro.parallel`).

Covers the contracts the substrate is built on:

* shared-memory round-trips — arrays published by the parent attach
  bit-identically in a subprocess (``SeenIndex`` and ``FrozenScorer``
  included);
* sharded vs serial bit-equality of ``top_k_scored`` over the whole
  catalogue, masked and unmasked, and of the derived ``top_k`` (the
  ``n_workers=2`` smoke of the fast tier);
* the fused BPR forward matching two separate ``score_items`` passes;
* clean shutdown — no leaked ``/dev/shm`` segments, workers joined
  (guarded by the ``shm_guard`` fixture on every test in this module).
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.seen import SeenIndex
from repro.data.splits import split_setting
from repro.models import create_model
from repro.models.base import FrozenScorer
from repro.parallel import (
    RestartPolicy,
    SharedArena,
    ShardedScoringEngine,
    default_start_method,
    make_scoring_engine,
    shard_bounds,
)
from repro.parallel.shm import SHM_PREFIX
from repro.serving import ScoringEngine
from repro.training import Trainer, TrainingConfig

pytestmark = pytest.mark.fast

NUM_ITEMS = 30
REPO_ROOT = Path(__file__).resolve().parents[1]


def _shm_entries() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}


@pytest.fixture(autouse=True)
def shm_guard():
    """Every test must leave /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    gc.collect()
    leaked = _shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def tiny_split(num_users: int = 14, seed: int = 0):
    rng = np.random.default_rng(seed)
    sequences = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(12, 18)).tolist()
        for _ in range(num_users)
    ]
    dataset = InteractionDataset.from_sequences(sequences, num_items=NUM_ITEMS)
    return split_setting(dataset, "80-3-CUT")


def trained_model(split, name: str = "HAMs_m", epochs: int = 2):
    model = create_model(name, split.num_users, NUM_ITEMS,
                         rng=np.random.default_rng(0),
                         embedding_dim=8, n_h=4, n_l=2)
    Trainer(model, TrainingConfig(num_epochs=epochs, batch_size=64, seed=0)).fit(
        split.train_plus_valid())
    return model


# ---------------------------------------------------------------------- #
# Shared-memory round-trips
# ---------------------------------------------------------------------- #
def assert_full_rankings_equal(sharded, serial, users) -> None:
    """Every item's id and score, masked and unmasked, bit for bit."""
    for exclude in (False, True):
        ours = sharded.top_k_scored(users, NUM_ITEMS, exclude_seen=exclude)
        theirs = serial.top_k_scored(users, NUM_ITEMS, exclude_seen=exclude)
        assert np.array_equal(ours[0], theirs[0])
        assert np.array_equal(ours[1], theirs[1])


def _echo_arrays(layout, keys, queue):
    arena = SharedArena.attach(layout)
    try:
        queue.put({key: np.array(arena.array(key), copy=True) for key in keys})
    finally:
        arena.close()


def _score_in_subprocess(layout, options, queue):
    """Rebuild SeenIndex + FrozenScorer from shared views and use them."""
    arena = SharedArena.attach(layout)
    try:
        seen = SeenIndex(arena.array("indptr"), arena.array("items"),
                         options["num_items"])
        bias = arena.arrays().get("bias")
        frozen = FrozenScorer(num_items=options["num_items"],
                              candidate_embeddings=arena.array("table"),
                              item_bias=bias)
        queue.put({
            "per_user": [seen.user_items(u).tolist() for u in range(seen.num_users)],
            "contains": seen.contains(options["q_users"], options["q_items"]),
            "scores": frozen.scores_from_representation(arena.array("reps")),
        })
    finally:
        arena.close()


class TestSharedArena:
    def test_roundtrip_in_subprocess(self):
        rng = np.random.default_rng(0)
        arrays = {
            "f32": rng.standard_normal((7, 5)).astype(np.float32),
            "f64": rng.standard_normal((3, 4)),
            "i64": rng.integers(0, 100, size=(11,)),
            "empty": np.zeros(0, dtype=np.int64),
        }
        ctx = mp.get_context(default_start_method())
        queue = ctx.Queue()
        with SharedArena.publish(arrays) as arena:
            proc = ctx.Process(target=_echo_arrays,
                               args=(arena.layout, list(arrays), queue))
            proc.start()
            echoed = queue.get(timeout=30)
            proc.join(timeout=30)
        assert proc.exitcode == 0
        for key, value in arrays.items():
            assert echoed[key].dtype == value.dtype
            assert np.array_equal(echoed[key], value)

    def test_worker_views_are_read_only(self):
        with SharedArena.publish({"x": np.arange(4)}) as arena:
            attached = SharedArena.attach(arena.layout)
            with pytest.raises((ValueError, RuntimeError)):
                attached.array("x")[0] = 99
            attached.close()

    def test_closed_arena_rejects_access(self):
        arena = SharedArena.publish({"x": np.arange(4)})
        arena.close()
        with pytest.raises(RuntimeError):
            arena.array("x")
        arena.close()  # idempotent

    def test_seen_index_and_frozen_scorer_attach_parity(self):
        """The satellite contract: both structures survive shm bit-for-bit."""
        rng = np.random.default_rng(1)
        histories = [rng.integers(0, NUM_ITEMS, size=rng.integers(0, 20)).tolist()
                     for _ in range(9)]
        seen = SeenIndex.from_histories(histories, NUM_ITEMS)
        table = rng.standard_normal((NUM_ITEMS + 1, 6)).astype(np.float32)
        bias = rng.standard_normal(NUM_ITEMS + 1).astype(np.float32)
        reps = rng.standard_normal((5, 6)).astype(np.float32)
        frozen = FrozenScorer(NUM_ITEMS, table, bias)

        q_users = rng.integers(-1, 10, size=64)
        q_items = rng.integers(-1, NUM_ITEMS + 1, size=64)
        options = {"num_items": NUM_ITEMS, "q_users": q_users, "q_items": q_items}

        ctx = mp.get_context(default_start_method())
        queue = ctx.Queue()
        with SharedArena.publish({"indptr": seen.indptr, "items": seen.items,
                                  "table": table, "bias": bias,
                                  "reps": reps}) as arena:
            proc = ctx.Process(target=_score_in_subprocess,
                               args=(arena.layout, options, queue))
            proc.start()
            result = queue.get(timeout=30)
            proc.join(timeout=30)
        assert proc.exitcode == 0
        assert result["per_user"] == [seen.user_items(u).tolist()
                                      for u in range(seen.num_users)]
        assert np.array_equal(result["contains"], seen.contains(q_users, q_items))
        assert np.array_equal(result["scores"],
                              frozen.scores_from_representation(reps))


# ---------------------------------------------------------------------- #
# Sharded engine
# ---------------------------------------------------------------------- #
class TestShardedScoringEngine:
    def test_shard_bounds(self):
        assert shard_bounds(10, 3).tolist() == [0, 4, 7, 10]
        assert shard_bounds(2, 4).tolist() == [0, 1, 2, 2, 2]
        with pytest.raises(ValueError):
            shard_bounds(5, 0)

    def test_bit_identical_to_serial(self):
        """The fast-tier n_workers=2 smoke: sharding changes nothing."""
        split = tiny_split(seed=2)
        model = trained_model(split)
        histories = split.train_plus_valid()
        serial = ScoringEngine(model, histories)
        users = list(range(split.num_users))
        shuffled = np.random.default_rng(0).permutation(split.num_users).tolist()
        with ShardedScoringEngine(model, histories, n_workers=2,
                                  micro_batch_size=5) as sharded:
            assert_full_rankings_equal(sharded, serial, users)
            assert np.array_equal(sharded.top_k(users, 5), serial.top_k(users, 5))
            # Shuffled + repeated ids must scatter back to request order.
            request = shuffled + [1, 1, 0]
            assert np.array_equal(sharded.top_k(request, 4),
                                  serial.top_k(request, 4))
            assert np.array_equal(sharded.top_k(users, 5, exclude_seen=False),
                                  serial.top_k(users, 5, exclude_seen=False))
            ranked, scores = sharded.top_k_scored([], NUM_ITEMS)
            assert ranked.shape == scores.shape == (0, NUM_ITEMS)

    def test_shards_on_either_side_of_the_kernel_row_cut_off(self):
        """``top_k_items`` picks its kernel by block shape: the serial
        engine ranks one 17-row block, shard 0 a 12-row block (both
        threshold selection) and shard 1 five rows (``argpartition``).
        Ties are planted so that only one tie rule gives equal ids."""
        num_users, num_items = 24, 5000
        rng = np.random.default_rng(5)
        histories = [rng.integers(0, num_items, size=15).tolist()
                     for _ in range(num_users)]
        model = create_model("HAMm", num_users, num_items, rng=rng,
                             embedding_dim=8, n_h=4, n_l=2)
        table = model.candidate_item_embeddings().data
        table[:num_items] = table[rng.integers(0, num_items // 2, num_items)]
        serial = ScoringEngine(model, histories)
        request = list(range(12)) + list(range(19, 24))
        tied = np.sort(serial.top_k_scored(request, 10)[1], axis=1)
        assert (np.diff(tied, axis=1) == 0).any(axis=1).all()
        with ShardedScoringEngine(model, histories, n_workers=2) as sharded:
            assert shard_bounds(num_users, 2).tolist() == [0, 12, 24]
            for exclude in (True, False):
                assert np.array_equal(
                    sharded.top_k(request, 10, exclude_seen=exclude),
                    serial.top_k(request, 10, exclude_seen=exclude))

    def test_accepts_extra_histories_like_serial(self):
        """histories may cover more users than the model (serial contract)."""
        split = tiny_split(seed=13)
        model = trained_model(split)
        histories = split.train_plus_valid() + [[1, 2, 3], [4, 5]]
        serial = ScoringEngine(model, histories)
        users = list(range(split.num_users))
        with ShardedScoringEngine(model, histories, n_workers=2) as sharded:
            assert np.array_equal(sharded.top_k(users, 5), serial.top_k(users, 5))
            assert_full_rankings_equal(sharded, serial, users)

    def test_recommend_batch_matches_serial(self):
        split = tiny_split(seed=14)
        model = trained_model(split)
        histories = split.train_plus_valid()
        serial = ScoringEngine(model, histories)
        users = [3, 0, 2]
        with ShardedScoringEngine(model, histories, n_workers=2) as sharded:
            for ours, theirs in zip(sharded.recommend_batch(users, 4),
                                    serial.recommend_batch(users, 4)):
                assert [(e.item, e.rank) for e in ours] == \
                    [(e.item, e.rank) for e in theirs]
                assert [e.score for e in ours] == [e.score for e in theirs]
            assert sharded.recommend(1, 3) == serial.recommend(1, 3)

    def test_observe_routes_to_owning_shard(self):
        """Shard-aware observe(): no snapshot rebuild, serial bit-parity."""
        split = tiny_split(seed=15)
        model = trained_model(split)
        histories = split.train_plus_valid()
        serial = ScoringEngine(model, histories, precompute=True)
        users = list(range(split.num_users))
        with ShardedScoringEngine(model, histories, n_workers=2,
                                  precompute=True) as sharded:
            arena = sharded._arena  # the one snapshot: never republished
            # Interactions land in both shards, repeatedly for user 1.
            last = split.num_users - 1
            for user, item in [(1, 5), (1, 7), (0, 2), (last, 9), (last, 9)]:
                serial.observe(user, item)
                sharded.observe(user, item)
                assert sharded.history(user) == serial.history(user)
            assert sharded._arena is arena
            assert np.array_equal(sharded.top_k(users, 5),
                                  serial.top_k(users, 5))
            assert_full_rankings_equal(sharded, serial, users)
            with pytest.raises(ValueError):
                sharded.observe(split.num_users, 0)
            with pytest.raises(ValueError):
                sharded.observe(0, NUM_ITEMS)

    @pytest.mark.parametrize("consumer", ["worker", "degraded"])
    def test_arena_readers_match_serial_before_and_after_observes(self, consumer):
        """The shard workers and the degraded in-process fallback (a
        ``RestartPolicy`` without restarts) both read the arena through
        ``ScoringEngine.from_arrays``; each answers every item's id and
        score like the serial engine, before and after observes."""
        split = tiny_split(seed=17)
        model = trained_model(split)
        histories = split.train_plus_valid()
        serial = ScoringEngine(model, histories)
        users = list(range(split.num_users))
        last = split.num_users - 1
        with ShardedScoringEngine(model, histories, n_workers=2,
                                  restart_policy=RestartPolicy(max_restarts=0),
                                  ) as sharded:
            if consumer == "degraded":
                for worker in sharded._workers:
                    worker.kill()
                    worker.join(timeout=10.0)
            assert_full_rankings_equal(sharded, serial, users)
            for user, item in [(1, 5), (last, 9), (1, 7)]:
                serial.observe(user, item)
                sharded.observe(user, item)
            assert_full_rankings_equal(sharded, serial, users)
            expected = [0, 1] if consumer == "degraded" else []
            assert sharded.health()["degraded_shards"] == expected

    def test_count_based_fallback(self):
        from repro.models import Popularity

        split = tiny_split(seed=3)
        histories = split.train_plus_valid()
        pop = Popularity(split.num_users, NUM_ITEMS).fit_counts(histories)
        serial = ScoringEngine(pop, histories)
        users = list(range(split.num_users))
        with ShardedScoringEngine(pop, histories, n_workers=2) as sharded:
            assert np.array_equal(sharded.top_k(users, 5), serial.top_k(users, 5))

    def test_fewer_than_two_workers_is_refused(self):
        """The serial choice is the factory's: the sharded engine itself
        refuses ``n_workers < 2`` before it spawns or publishes anything."""
        split = tiny_split(seed=4)
        model = trained_model(split)
        histories = split.train_plus_valid()
        for n_workers in (0, 1):
            with pytest.raises(ValueError, match="make_scoring_engine"):
                ShardedScoringEngine(model, histories, n_workers=n_workers)
            engine = make_scoring_engine(model, histories, n_workers=n_workers)
            assert type(engine) is ScoringEngine
            assert np.array_equal(engine.top_k([0, 1], 3),
                                  ScoringEngine(model, histories).top_k([0, 1], 3))

    def test_validation_and_shutdown(self):
        split = tiny_split(seed=5)
        model = trained_model(split)
        histories = split.train_plus_valid()
        engine = ShardedScoringEngine(model, histories, n_workers=2)
        with pytest.raises(ValueError):
            engine.top_k([0], 0)
        with pytest.raises(ValueError):
            engine.top_k([split.num_users + 7], 3)
        workers = list(engine._workers)
        engine.close()
        assert all(not worker.is_alive() for worker in workers)
        with pytest.raises(RuntimeError):
            engine.top_k([0], 3)
        engine.close()  # idempotent

    def test_evaluators_match_serial(self):
        from repro.evaluation.coverage import beyond_accuracy_report
        from repro.evaluation.evaluator import RankingEvaluator

        split = tiny_split(seed=6)
        model = trained_model(split)
        serial = RankingEvaluator(split, ks=(5, 10)).evaluate(model)
        parallel = RankingEvaluator(split, ks=(5, 10), n_workers=2).evaluate(model)
        assert serial.metrics == parallel.metrics
        for name in serial.per_user:
            assert np.array_equal(serial.per_user[name], parallel.per_user[name])

        assert beyond_accuracy_report(model, split, k=5) == \
            beyond_accuracy_report(model, split, k=5, n_workers=2)


# ---------------------------------------------------------------------- #
# Fused BPR forward
# ---------------------------------------------------------------------- #
class TestFusedScoring:
    def test_matches_two_pass_forward_and_backward(self):
        model = create_model("HAMs_m", 6, NUM_ITEMS,
                             rng=np.random.default_rng(0),
                             embedding_dim=8, n_h=4, n_l=2)
        rng = np.random.default_rng(1)
        users = rng.integers(0, 6, size=5)
        inputs = rng.integers(0, NUM_ITEMS, size=(5, 4))
        positives = rng.integers(0, NUM_ITEMS, size=(5, 3))
        negatives = rng.integers(0, NUM_ITEMS, size=(5, 3))

        fused_pos, fused_neg = model.score_item_pairs(users, inputs,
                                                      positives, negatives)
        two_pos = model.score_items(users, inputs, positives)
        two_neg = model.score_items(users, inputs, negatives)
        assert np.allclose(fused_pos.data, two_pos.data, rtol=0, atol=1e-12)
        assert np.allclose(fused_neg.data, two_neg.data, rtol=0, atol=1e-12)

        (fused_pos - fused_neg).sum().backward()
        fused_grads = {name: np.array(param.grad, copy=True)
                       for name, param in model.named_parameters()
                       if param.grad is not None}
        model.zero_grad()
        (two_pos - two_neg).sum().backward()
        for name, param in model.named_parameters():
            if param.grad is None:
                assert name not in fused_grads
                continue
            assert np.allclose(fused_grads[name], param.grad,
                               rtol=1e-10, atol=1e-12), name


# ---------------------------------------------------------------------- #
# Checkpoint-to-engine serve path
# ---------------------------------------------------------------------- #
class TestCheckpointServing:
    def test_engine_from_checkpoint_matches_trained_model(self, tmp_path):
        from repro.serving import engine_from_checkpoint, model_from_checkpoint
        from repro.training.checkpoint import save_checkpoint

        split = tiny_split(seed=11)
        model = trained_model(split)
        histories = split.train_plus_valid()
        hyperparameters = dict(embedding_dim=8, n_h=4, n_l=2)
        path = save_checkpoint(model, tmp_path / "model.npz", metadata={
            "method": "HAMs_m",
            "model": {"num_users": split.num_users, "num_items": NUM_ITEMS},
            "hyperparameters": hyperparameters,
        })

        rebuilt, metadata = model_from_checkpoint(path)
        assert metadata["method"] == "HAMs_m"
        assert rebuilt.compute_dtype() == model.compute_dtype()

        reference = ScoringEngine(model, histories)
        users = list(range(split.num_users))
        engine = engine_from_checkpoint(path, histories)
        assert np.array_equal(engine.score_all(users), reference.score_all(users))

        with engine_from_checkpoint(path, histories, n_workers=2) as sharded:
            assert np.array_equal(sharded.top_k(users, 5),
                                  reference.top_k(users, 5))

    def test_missing_metadata_requires_overrides(self, tmp_path):
        from repro.serving import model_from_checkpoint
        from repro.training.checkpoint import save_checkpoint

        split = tiny_split(seed=12)
        model = trained_model(split)
        path = save_checkpoint(model, tmp_path / "bare.npz")
        with pytest.raises(ValueError):
            model_from_checkpoint(path)
        rebuilt, _ = model_from_checkpoint(
            path, method="HAMs_m", num_users=split.num_users,
            num_items=NUM_ITEMS,
            hyperparameters=dict(embedding_dim=8, n_h=4, n_l=2))
        users = np.arange(split.num_users, dtype=np.int64)
        inputs = np.full((split.num_users, model.input_length), model.pad_id,
                         dtype=np.int64)
        assert np.array_equal(rebuilt.score_all(users, inputs),
                              model.score_all(users, inputs))


# ---------------------------------------------------------------------- #
# Lifecycle hardening and request deadlines (fast tier)
# ---------------------------------------------------------------------- #
class TestLifecycleAndDeadlines:
    def test_request_timeout_is_constructor_configurable(self):
        from repro.parallel import DEFAULT_REQUEST_TIMEOUT_S

        assert DEFAULT_REQUEST_TIMEOUT_S == 120.0
        split = tiny_split(seed=21)
        model = trained_model(split, epochs=1)
        histories = split.train_plus_valid()
        with pytest.raises(ValueError):
            ShardedScoringEngine(model, histories, n_workers=2,
                                 request_timeout_s=0.0)
        with ShardedScoringEngine(model, histories, n_workers=2,
                                  request_timeout_s=5.0) as engine:
            assert engine.request_timeout_s == 5.0
            with pytest.raises(ValueError):
                engine.top_k([0], 3, timeout=-1.0)
            # None waits forever; a generous per-call timeout overrides.
            assert engine.top_k([0], 3, timeout=None).shape == (1, 3)
            assert engine.top_k([0], 3, timeout=30.0).shape == (1, 3)

    def test_stale_results_are_counted_in_stats(self):
        from repro.parallel import FaultPlan

        split = tiny_split(seed=22)
        model = trained_model(split, epochs=1)
        histories = split.train_plus_valid()
        serial = ScoringEngine(model, histories)
        users = list(range(split.num_users))
        # Every shard-0 reply is delayed past the first call's deadline;
        # the late answer then lands during the second call's collect,
        # where it must be dropped and counted — never merged.
        plan = FaultPlan.delay_shard(0, delay_s=0.6)
        with ShardedScoringEngine(model, histories, n_workers=2,
                                  fault_plan=plan) as engine:
            with pytest.raises(TimeoutError):
                engine.top_k(users, 3, timeout=0.15)
            assert engine.stats()["deadline_timeouts"] == 1
            time.sleep(0.8)  # let the orphaned reply reach the queue
            assert np.array_equal(engine.top_k(users, 3, timeout=30.0),
                                  serial.top_k(users, 3))
            stats = engine.stats()
            assert stats["stale_results_dropped"] >= 1
            assert stats["worker_deaths"] == 0  # slow, not dead

    def test_clean_close_waits_on_workers_not_on_the_clock(self, monkeypatch):
        """Healthy workers exit by themselves on their sentinel, and the
        parent notices through their process sentinels, not by napping."""

        class CountingTime:
            """The ``time`` module, with its ``sleep`` calls counted."""

            def __init__(self):
                self.sleeps = 0

            def sleep(self, seconds):
                self.sleeps += 1
                time.sleep(seconds)

            def __getattr__(self, name):
                return getattr(time, name)

        split = tiny_split(seed=23)
        model = trained_model(split, epochs=1)
        engine = ShardedScoringEngine(model, split.train_plus_valid(), n_workers=2)
        engine.top_k(list(range(split.num_users)), 3)
        workers = list(engine._workers)
        clock = CountingTime()
        monkeypatch.setattr("repro.parallel.sharded.time", clock)
        engine.close()
        assert [worker.exitcode for worker in workers] == [0, 0]
        assert clock.sleeps == 0

    def test_close_drains_a_late_reply_larger_than_a_pipe_buffer(self):
        """A timed-out request whose slow worker is still sending a large
        reply: close() must read it so the worker can exit by itself."""
        from repro.parallel import FaultPlan

        num_items, num_users = 3000, 14
        rng = np.random.default_rng(24)
        dataset = InteractionDataset.from_sequences(
            [rng.integers(0, num_items, size=12).tolist() for _ in range(num_users)],
            num_items=num_items)
        model = create_model("HAMs_m", num_users, num_items,
                             rng=np.random.default_rng(0), embedding_dim=8,
                             n_h=4, n_l=2)
        users = list(range(num_users))
        shard0_users = int(shard_bounds(num_users, 2)[1])
        # ids (int64) + scores (float64) of shard 0's full ranking.
        assert shard0_users * num_items * 16 > 1 << 16  # Linux pipe buffer
        engine = ShardedScoringEngine(model, dataset.sequences, n_workers=2,
                                      fault_plan=FaultPlan.delay_shard(0, delay_s=0.5))
        workers = list(engine._workers)
        try:
            with pytest.raises(TimeoutError):
                engine.top_k_scored(users, num_items, timeout=0.1)
        finally:
            engine.close()
        assert [worker.exitcode for worker in workers] == [0, 0]

    def test_owner_arena_unlinks_on_garbage_collection(self):
        arena = SharedArena.publish({"x": np.arange(8, dtype=np.float64)})
        segment = f"/dev/shm/{arena.layout.segment_name}"
        if not os.path.exists(segment):
            pytest.skip("platform does not expose /dev/shm segments")
        del arena
        gc.collect()
        assert not os.path.exists(segment)

    def test_owner_death_unlinks_segment_at_interpreter_exit(self):
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import numpy as np
            from repro.parallel.shm import SharedArena
            arena = SharedArena.publish({"x": np.arange(16.0)})
            print(arena.layout.segment_name)
            # exits WITHOUT close(): the owner finalizer must unlink
        """)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip()
        assert name.startswith(SHM_PREFIX)
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(f"/dev/shm/{name}")
        # No resource_tracker complaints about leaked segments either.
        assert "leaked" not in proc.stderr, proc.stderr
