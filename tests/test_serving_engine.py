"""Tests for the batched scoring engine, the canonical padding helper and
the batched HAM score explanations."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.seen import SeenIndex
from repro.data.splits import split_setting
from repro.data.windows import pad_histories, pad_id_for
from repro.evaluation.evaluator import RankingEvaluator
from repro.evaluation.ranking import top_k_items
from repro.models import HAM, HAMSynergy, Popularity, create_model
from repro.models.base import FrozenScorer
from repro.serving import ScoringEngine, explain_ham_score, explain_ham_scores
from repro.serving.engine import snapshot_arrays, threaded_top_k_scored
from repro.training import Trainer, TrainingConfig

pytestmark = pytest.mark.fast

NUM_ITEMS = 30


def tiny_split(num_users: int = 12, seed: int = 0):
    rng = np.random.default_rng(seed)
    sequences = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(12, 18)).tolist()
        for _ in range(num_users)
    ]
    dataset = InteractionDataset.from_sequences(sequences, num_items=NUM_ITEMS)
    return split_setting(dataset, "80-3-CUT")


def _uncached_recommend(model, histories, users, k):
    """The seed repo's per-request scoring path: pad, full forward, a
    Python ``set`` per user as the seen mask, rank.  Independent reference
    for ``ScoringEngine.top_k``."""
    pad = pad_id_for(model.num_items)
    inputs = np.full((len(users), model.input_length), pad, dtype=np.int64)
    for row, user in enumerate(users):
        history = histories[user][-model.input_length:]
        if history:
            inputs[row, -len(history):] = history
    scores = model.score_all(np.asarray(users, dtype=np.int64), inputs)
    excluded = [set(histories[user]) for user in users]
    return top_k_items(scores, k, excluded=excluded)


def trained_model(split, name: str = "HAMs_m", **kwargs):
    defaults = dict(embedding_dim=8, n_h=4, n_l=2) if name.startswith("HAM") else {}
    defaults.update(kwargs)
    model = create_model(name, split.num_users, NUM_ITEMS,
                         rng=np.random.default_rng(0), **defaults)
    Trainer(model, TrainingConfig(num_epochs=2, batch_size=64, seed=0)).fit(
        split.train_plus_valid())
    return model


class TestPadHistories:
    def test_left_pads_short_histories(self):
        out = pad_histories([[1, 2], [], [3]], length=4, pad_id=9)
        assert out.tolist() == [[9, 9, 1, 2], [9, 9, 9, 9], [9, 9, 9, 3]]
        assert out.dtype == np.int64

    def test_truncates_to_most_recent(self):
        out = pad_histories([[1, 2, 3, 4, 5]], length=3, pad_id=9)
        assert out.tolist() == [[3, 4, 5]]

    def test_user_selection(self):
        histories = [[1], [2, 2], [3]]
        out = pad_histories(histories, length=2, pad_id=9, users=[2, 0])
        assert out.tolist() == [[9, 3], [9, 1]]

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            pad_histories([[1]], length=0, pad_id=9)

    def test_matches_pad_id_for(self):
        assert pad_id_for(NUM_ITEMS) == NUM_ITEMS


class TestScoringEngineParity:
    @pytest.mark.parametrize("name,kwargs", [
        ("HAMs_m", {}),
        ("HAMm", {}),
        ("Fossil", {"embedding_dim": 8}),   # exercises the item-bias path
    ])
    def test_score_all_matches_model_bit_for_bit(self, name, kwargs):
        split = tiny_split()
        model = trained_model(split, name, **kwargs)
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories)
        users = list(range(split.num_users))
        inputs = pad_histories(histories, model.input_length,
                               pad_id_for(NUM_ITEMS), users=users)
        expected = model.score_all(np.asarray(users, dtype=np.int64), inputs)
        assert np.array_equal(engine.score_all(users), expected)

    def test_rankings_match_seed_recommender_path(self):
        """Acceptance: engine rankings == the seed repo's uncached path."""
        split = tiny_split(seed=1)
        model = trained_model(split)
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories, exclude_seen=True)
        users = np.asarray(list(range(split.num_users)), dtype=np.int64)
        assert np.array_equal(
            engine.top_k(users, 5), _uncached_recommend(model, histories, users, 5)
        )

    def test_view_weights_recommend_batch_matches_copied(self):
        """A ``copy_weights=False`` engine (the evaluators' view of the
        live parameters) ranks and scores like the copied snapshot."""
        split = tiny_split(seed=2)
        model = trained_model(split)
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories)
        view = ScoringEngine(model, histories, copy_weights=False)
        for engine_row, view_row in zip(engine.recommend_batch([0, 1, 2], 4),
                                        view.recommend_batch([0, 1, 2], 4)):
            assert [e.item for e in engine_row] == [f.item for f in view_row]
            assert [e.score for e in engine_row] == [f.score for f in view_row]

    def test_micro_batching_is_invisible(self):
        split = tiny_split(seed=3)
        model = trained_model(split)
        histories = split.train_plus_valid()
        whole = ScoringEngine(model, histories)
        chunked = ScoringEngine(model, histories, micro_batch_size=3)
        users = list(range(split.num_users))
        assert np.array_equal(whole.score_all(users), chunked.score_all(users))

    def test_count_based_fallback_matches_model(self):
        split = tiny_split(seed=4)
        histories = split.train_plus_valid()
        pop = Popularity(split.num_users, NUM_ITEMS).fit_counts(histories)
        engine = ScoringEngine(pop, histories, micro_batch_size=4)
        assert not engine.supports_cached_representations
        users = list(range(split.num_users))
        inputs = pad_histories(histories, pop.input_length,
                               pad_id_for(NUM_ITEMS), users=users)
        expected = pop.score_all(np.asarray(users, dtype=np.int64), inputs)
        assert np.array_equal(engine.score_all(users), expected)
        # Masking must not corrupt the model's internal count array.
        engine.masked_scores(users)
        assert np.array_equal(engine.score_all(users), expected)


def legacy_top_k_items(scores, k):
    """``top_k_items`` as it was before the two-stage threshold kernel."""
    k = min(k, scores.shape[1])
    partitioned = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    row_indices = np.arange(scores.shape[0])[:, None]
    order = np.argsort(-scores[row_indices, partitioned], axis=1, kind="stable")
    return partitioned[row_indices, order]


class TestTopKKernelParity:
    """``top_k`` ids and ``evaluate`` metrics before and after the kernel."""

    @staticmethod
    def before_and_after(monkeypatch, model, split, batch_size):
        def run():
            engine = ScoringEngine(model, split.train_plus_valid(),
                                   micro_batch_size=batch_size)
            ranked = engine.top_k(list(range(split.num_users)), 10)
            evaluator = RankingEvaluator(split, batch_size=batch_size)
            return ranked, evaluator.evaluate(model)

        after = run()
        monkeypatch.setattr("repro.serving.engine.top_k_items", legacy_top_k_items)
        return run(), after

    @pytest.mark.parametrize("name,kwargs", [
        ("HAMs_m", {}),
        ("Fossil", {"embedding_dim": 8}),   # the item-bias path: contiguous scores
    ])
    def test_tiny_fixture(self, monkeypatch, name, kwargs):
        split = tiny_split(seed=11)
        model = trained_model(split, name, **kwargs)
        before, after = self.before_and_after(monkeypatch, model, split, 5)
        assert np.array_equal(before[0], after[0])
        assert before[1].metrics == after[1].metrics

    def test_blocks_on_the_threshold_path(self, monkeypatch):
        """A catalogue and block size the two-stage kernel serves."""
        num_users, num_items = 40, 5000
        rng = np.random.default_rng(12)
        sequences = [rng.integers(0, num_items, size=rng.integers(12, 18)).tolist()
                     for _ in range(num_users)]
        split = split_setting(
            InteractionDataset.from_sequences(sequences, num_items=num_items),
            "80-3-CUT")
        model = create_model("HAMm", num_users, num_items, rng=rng,
                             embedding_dim=8, n_h=4, n_l=2)
        before, after = self.before_and_after(monkeypatch, model, split, 16)
        assert np.array_equal(before[0], after[0])
        assert before[1].metrics == after[1].metrics
        assert all(np.array_equal(before[1].per_user[name], values)
                   for name, values in after[1].per_user.items())


def row_major_scores(frozen: FrozenScorer, rep: np.ndarray) -> np.ndarray:
    """``scores_from_representation`` as it was before the column table."""
    scores = (rep @ frozen.candidate_embeddings.T)[:, : frozen.num_items]
    if frozen.item_bias is not None:
        scores = scores + frozen.item_bias[: frozen.num_items]
    return scores


KERNEL_ROWS = list(range(1, 71)) + [127, 256, 1000, 1024]
KERNEL_DIM = 48
#: OpenBLAS builds with small-matrix gemm kernels (the AVX-512 targets)
#: serve blocks with M * N * d at or below 100**3 from a kernel chosen by
#: operand layout, so there the column table and the row-major table may
#: round differently.  Larger blocks share one packed kernel.
SMALL_GEMM_MNK = 100 ** 3


class TestScoringKernel:
    """The column-table gemm against the row-major formula it replaced.

    Known last-bit exceptions, both rounding-order only:

    * one row is a gemv and two or more rows a gemm, so a user's scores
      can differ in the last bit between a batch of one and a larger
      batch (ids can then differ only between near-tied items);
    * blocks at or below ``SMALL_GEMM_MNK`` on OpenBLAS builds with
      small-matrix kernels.  Serving shapes (20 000 items, ``d = 48``,
      two or more rows) are far above it.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_items", [5_000, 20_001])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_column_table_matches_row_major_formula(self, dtype, num_items,
                                                    with_bias):
        rng = np.random.default_rng(num_items)
        table = rng.standard_normal((num_items + 1, KERNEL_DIM)).astype(dtype)
        bias = (rng.standard_normal(num_items + 1).astype(dtype)
                if with_bias else None)
        row_major = FrozenScorer(num_items, table, bias)
        columns = row_major.with_item_columns()
        assert columns.item_columns.shape == (KERNEL_DIM, num_items)
        assert columns.item_columns.flags.c_contiguous
        assert columns.with_item_columns() is columns
        reps = rng.standard_normal((max(KERNEL_ROWS), KERNEL_DIM)).astype(dtype)
        for rows in KERNEL_ROWS:
            rep = reps[:rows]
            expected = row_major_scores(row_major, rep)
            # A per-call freeze (no column table) scores exactly as
            # before; checked on the small blocks to bound memory.
            if rows <= 70:
                assert np.array_equal(
                    row_major.scores_from_representation(rep), expected)
            got = columns.scores_from_representation(rep)
            assert got.shape == (rows, num_items)
            assert got.dtype == expected.dtype
            assert got.flags.c_contiguous
            if rows == 1 or rows * num_items * KERNEL_DIM > SMALL_GEMM_MNK:
                assert np.array_equal(got, expected), rows
            else:
                magnitude = np.abs(rep) @ np.abs(table[:num_items]).T
                if bias is not None:
                    magnitude += np.abs(bias[:num_items])
                tolerance = 4 * KERNEL_DIM * np.finfo(dtype).eps * magnitude
                assert np.all(np.abs(got - expected) <= tolerance), rows
            del expected, got  # 160 MB each at 1 024 float64 rows

    def test_top_k_scored_row_is_identical_across_batch_shapes(self):
        num_users, num_items = 40, 20_000
        rng = np.random.default_rng(7)
        model = create_model("HAMm", num_users, num_items,
                             rng=np.random.default_rng(0),
                             embedding_dim=KERNEL_DIM, n_h=10, n_l=2,
                             dtype="float32")
        histories = [rng.integers(0, num_items, size=30).tolist()
                     for _ in range(num_users)]
        engine = ScoringEngine(model, histories, precompute=True)
        order = rng.permutation(num_users)
        first, last = [], []
        for size in (2, 5, 17, 33):
            # One tracked user opens every batch, the other closes it.
            batch = np.concatenate([order[:1], order[2:size], order[1:2]])
            ids, scores = engine.top_k_scored(batch, 10)
            first.append((ids[0], scores[0]))
            last.append((ids[-1], scores[-1]))
        for rows in (first, last):
            for ids, scores in rows[1:]:
                assert np.array_equal(ids, rows[0][0])
                assert np.array_equal(scores, rows[0][1])


def allocating_top_k_scored(engine, users, k, exclude):
    """The exact loop before the score buffer: ``top_k_items(masked_scores(block))``
    per ``micro_batch_size`` block, every block in fresh memory."""
    users = np.asarray(users, dtype=np.int64)
    ranked, scores = [], []
    for start in range(0, users.size, engine.micro_batch_size):
        chunk = users[start:start + engine.micro_batch_size]
        block = engine.masked_scores(chunk) if exclude else engine.score_all(chunk)
        ids = top_k_items(block, k)
        ranked.append(ids)
        scores.append(block[np.arange(ids.shape[0])[:, None], ids].astype(np.float64))
    return np.concatenate(ranked), np.concatenate(scores)


def assert_same_bytes(got, expected):
    for got_part, expected_part in zip(got, expected):
        assert got_part.dtype == expected_part.dtype
        assert got_part.shape == expected_part.shape
        assert got_part.tobytes() == expected_part.tobytes()


BUFFER_USERS, BUFFER_ITEMS, BUFFER_BLOCK = 40, 5_000, 8


def buffer_engine(name="HAMm", dtype="float32", copy_weights=True):
    """An engine whose blocks reach the threshold top-k kernel (>= 8 rows,
    >= 4 096 items); Fossil's head carries an item bias (drawn non-zero),
    HAMm's none."""
    rng = np.random.default_rng(21)
    model = create_model(name, BUFFER_USERS, BUFFER_ITEMS, rng=rng, embedding_dim=16,
                         dtype=dtype, **({"n_h": 4, "n_l": 2} if name == "HAMm" else {}))
    bias = model.item_bias()
    if bias is not None:
        bias.data[:] = rng.standard_normal(bias.data.shape)
    histories = [rng.integers(0, BUFFER_ITEMS, size=rng.integers(3, 30)).tolist()
                 for _ in range(BUFFER_USERS)]
    return ScoringEngine(model, histories, micro_batch_size=BUFFER_BLOCK,
                         copy_weights=copy_weights)


def spy_on_buffers(monkeypatch, barrier=None):
    """Record ``(thread, out)`` for every ``scores_from_representation`` call."""
    calls = []
    original = FrozenScorer.scores_from_representation

    def spy(self, representation, out=None):
        calls.append((threading.get_ident(), out))
        if barrier is not None and out is not None:
            barrier.wait(timeout=30)  # both calls are in flight at once
        return original(self, representation, out)

    monkeypatch.setattr(FrozenScorer, "scores_from_representation", spy)
    return calls


class TestScoreBuffer:
    """Each ``top_k_scored`` call scores its blocks into one buffer it owns."""

    @pytest.mark.parametrize("name", ["HAMm", "Fossil"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("copy_weights", [True, False])  # column / view head
    def test_bytes_match_the_allocating_loop(self, name, dtype, copy_weights):
        engine = buffer_engine(name, dtype, copy_weights)
        assert (engine._frozen.item_bias is not None) == (name == "Fossil")
        assert (engine._frozen.item_columns is not None) == copy_weights
        order = np.random.default_rng(3).permutation(BUFFER_USERS)
        # One row, exactly one block, and three blocks with a ragged tail.
        for users in (order[:1], order[:BUFFER_BLOCK], order[:2 * BUFFER_BLOCK + 5]):
            for exclude in (True, False):
                expected = allocating_top_k_scored(engine, users, 10, exclude)
                assert_same_bytes(engine.top_k_scored(users, 10, exclude_seen=exclude),
                                  expected)
        users = order[:2 * BUFFER_BLOCK + 5]
        expected = allocating_top_k_scored(engine, users, 10, True)
        for n_workers in (2, 3):
            assert_same_bytes(threaded_top_k_scored(engine, users, 10, n_workers), expected)

    def test_one_buffer_per_call(self, monkeypatch):
        engine = buffer_engine()
        attributes = set(vars(engine))
        calls = spy_on_buffers(monkeypatch)
        engine.top_k_scored(np.arange(2 * BUFFER_BLOCK + 5), 10)
        assert len(calls) == 3
        assert calls[0][1] is not None
        assert all(out is calls[0][1] for _thread, out in calls)
        # The ragged tail reuses the leading rows: the buffer holds one block.
        assert calls[0][1].size == BUFFER_BLOCK * (BUFFER_ITEMS + 1)
        assert set(vars(engine)) == attributes
        assert not any(isinstance(value, np.ndarray) and np.shares_memory(value, calls[0][1])
                       for value in vars(engine).values())

    def test_concurrent_calls_own_their_buffers(self, monkeypatch):
        engine = buffer_engine().materialize()
        calls = spy_on_buffers(monkeypatch, threading.Barrier(2))
        users = np.arange(BUFFER_USERS)
        results = {}

        def rank(part):
            results[part] = engine.top_k_scored(users[part::2], 10)

        threads = [threading.Thread(target=rank, args=(part,)) for part in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        by_thread = {}
        for thread, out in calls:
            by_thread.setdefault(thread, []).append(out)
        assert len(by_thread) == 2
        first, second = (outs for outs in by_thread.values())
        assert all(out is first[0] for out in first)
        assert all(out is second[0] for out in second)
        assert first[0] is not second[0]
        assert not np.shares_memory(first[0], second[0])
        for part in (0, 1):
            assert_same_bytes(results[part],
                              allocating_top_k_scored(engine, users[part::2], 10, True))

    @pytest.mark.parametrize("copy_weights", [True, False])
    def test_public_results_are_fresh(self, monkeypatch, copy_weights):
        engine = buffer_engine("Fossil", copy_weights=copy_weights)
        users = np.arange(BUFFER_BLOCK)
        raw = engine.score_all(users)
        masked = engine.masked_scores(users)
        kept = raw.copy(), masked.copy()
        assert not np.shares_memory(raw, masked)
        calls = spy_on_buffers(monkeypatch)
        engine.top_k_scored(users, 10)
        buffer = calls[0][1]
        assert buffer is not None
        assert not np.shares_memory(raw, buffer)
        assert not np.shares_memory(masked, buffer)
        assert np.array_equal(raw, kept[0]) and np.array_equal(masked, kept[1])

    def test_a_widening_bias_keeps_the_allocating_path(self, monkeypatch):
        """A float64 bias on a float32 table: an in-place add would cast."""
        source = buffer_engine("Fossil", "float32")
        frozen = source._frozen
        mixed = FrozenScorer(frozen.num_items, frozen.candidate_embeddings,
                             frozen.item_bias.astype(np.float64))
        assert mixed.score_buffer(BUFFER_BLOCK) is None
        seen = SeenIndex.from_histories([source.history(user) for user in range(BUFFER_USERS)],
                                        BUFFER_ITEMS)
        engine = ScoringEngine.from_arrays(
            source.model, snapshot_arrays(source._inputs.copy(), seen.indptr, seen.items, mixed),
            micro_batch_size=BUFFER_BLOCK)
        users = np.arange(2 * BUFFER_BLOCK + 5)
        calls = spy_on_buffers(monkeypatch)
        got = engine.top_k_scored(users, 10)
        assert calls and all(out is None for _thread, out in calls)
        assert engine.score_all(users).dtype == np.float64
        assert_same_bytes(got, allocating_top_k_scored(engine, users, 10, True))

    def test_buffer_needs_the_representation_dtype(self):
        frozen = buffer_engine()._frozen
        with pytest.raises(ValueError, match="dtype"):
            frozen.scores_from_representation(
                np.zeros((2, frozen.embedding_dim)), out=frozen.score_buffer(2))


class TestScoringEngineBehaviour:
    def test_seen_items_never_recommended(self):
        split = tiny_split(seed=5)
        model = trained_model(split)
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories)
        for user, row in enumerate(engine.top_k(list(range(split.num_users)), 5)):
            assert not set(row.tolist()) & set(histories[user])

    def test_observe_matches_rebuilt_engine(self):
        split = tiny_split(seed=6)
        model = trained_model(split)
        histories = [list(h) for h in split.train_plus_valid()]
        engine = ScoringEngine(model, histories, precompute=True)
        engine.observe(0, 7)
        engine.observe(0, 11)
        engine.observe(3, 2)

        updated = [list(h) for h in histories]
        updated[0] += [7, 11]
        updated[3] += [2]
        rebuilt = ScoringEngine(model, updated)
        users = [0, 1, 3]
        assert np.array_equal(engine.score_all(users), rebuilt.score_all(users))
        assert np.array_equal(engine.masked_scores(users), rebuilt.masked_scores(users))
        assert engine.history(0) == updated[0]

    def test_observe_does_not_mutate_caller_histories(self):
        split = tiny_split(seed=7)
        model = trained_model(split)
        histories = split.train_plus_valid()
        before = [list(h) for h in histories]
        ScoringEngine(model, histories).observe(0, 5)
        assert [list(h) for h in histories] == before

    def test_refresh_after_training(self):
        split = tiny_split(seed=8)
        model = trained_model(split)
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories, precompute=True, copy_weights=False)
        stale = engine.score_all([0])
        Trainer(model, TrainingConfig(num_epochs=1, batch_size=64, seed=1)).fit(histories)
        engine.refresh()
        users = [0]
        inputs = pad_histories(histories, model.input_length,
                               pad_id_for(NUM_ITEMS), users=users)
        fresh = model.score_all(np.asarray(users, dtype=np.int64), inputs)
        assert np.array_equal(engine.score_all([0]), fresh)
        assert not np.array_equal(stale, fresh)

    def test_validation(self):
        split = tiny_split(seed=9)
        model = trained_model(split)
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories)
        with pytest.raises(ValueError):
            engine.top_k([0], 0)
        with pytest.raises(ValueError):
            engine.score_all([split.num_users + 3])
        with pytest.raises(ValueError):
            engine.observe(0, NUM_ITEMS)
        with pytest.raises(ValueError):
            ScoringEngine(model, histories[:2])
        with pytest.raises(ValueError):
            ScoringEngine(model, histories, micro_batch_size=0)

    def test_refuses_history_ids_outside_the_catalogue(self):
        num_items = 50
        model = create_model("HAMm", 4, num_items, rng=np.random.default_rng(0),
                             embedding_dim=8, n_h=4, n_l=2)
        clean = [[1, 2, 3], [4, 5], [6], [7, 8, 9, 10]]

        def with_user_2(history):
            return clean[:2] + [history] + clean[3:]

        # The pad id among the recent items would be scored as padding
        # without the seen mask and index past the mask with it.
        for exclude_seen in (False, True):
            with pytest.raises(ValueError, match="user 2's history holds item id 50"):
                ScoringEngine(model, with_user_2([6, 50]), exclude_seen=exclude_seen)
        for item in (-1, 60):
            with pytest.raises(ValueError, match=f"user 2's history holds item id {item},"):
                ScoringEngine(model, with_user_2([6, item]))
        # Older than the input window only the seen mask reads it: refused
        # when the first masked request builds the seen arrays.
        old = with_user_2([60] + list(range(model.input_length)))
        for exclude_seen in (False, True):
            engine = ScoringEngine(model, old, exclude_seen=exclude_seen)
            engine.top_k([2], 3, exclude_seen=False)
            with pytest.raises(ValueError, match="user 2's history holds item id 60"):
                engine.top_k([2], 3, exclude_seen=True)
        ScoringEngine(model, with_user_2([6, num_items - 1, 0]))

    def test_empty_request(self):
        split = tiny_split(seed=10)
        model = trained_model(split)
        engine = ScoringEngine(model, split.train_plus_valid())
        assert engine.score_all([]).shape == (0, NUM_ITEMS)
        assert engine.masked_scores([]).shape == (0, NUM_ITEMS)
        assert engine.top_k([], 3).shape == (0, 3)
        assert engine.recommend_batch([], 3) == []


class TestExplainEdgeCases:
    def test_empty_history(self):
        model = HAMSynergy(5, NUM_ITEMS, embedding_dim=8, n_h=4, n_l=2,
                           synergy_order=2, rng=np.random.default_rng(0))
        explanation = explain_ham_score(model, user=0, history=[], item=3)
        # With an all-padding window the association factors are zero and
        # the score reduces to the user-preference dot product.
        assert explanation.high_order == pytest.approx(0.0)
        assert explanation.low_order == pytest.approx(0.0)
        assert explanation.total == pytest.approx(explanation.user_preference)

    def test_synergy_model_matches_engine_score(self):
        split = tiny_split(seed=11)
        model = trained_model(split, "HAMs_m")
        histories = split.train_plus_valid()
        engine = ScoringEngine(model, histories)
        explanation = explain_ham_score(model, 0, histories[0], 9)
        assert explanation.uses_synergies
        assert explanation.total == pytest.approx(engine.score(0, 9), rel=1e-5, abs=1e-10)

    def test_user_embedding_disabled(self):
        model = HAM(5, NUM_ITEMS, embedding_dim=8, n_h=4, n_l=2,
                    use_user_embedding=False, rng=np.random.default_rng(0))
        explanation = explain_ham_score(model, user=2, history=[1, 2, 3], item=4)
        assert explanation.user_preference == 0.0
        assert explanation.total == pytest.approx(
            explanation.high_order + explanation.low_order)

    def test_batch_matches_single(self):
        split = tiny_split(seed=12)
        model = trained_model(split)
        history = split.train_plus_valid()[0]
        items = [0, 5, 9, 17]
        batch = explain_ham_scores(model, 0, history, items)
        for item, explanation in zip(items, batch):
            single = explain_ham_score(model, 0, history, item)
            assert explanation.item == single.item
            assert explanation.uses_synergies == single.uses_synergies
            # Factor values agree up to BLAS matvec-vs-matmul rounding
            # (single-precision models, hence the float32-scale bound).
            assert explanation.total == pytest.approx(single.total, rel=1e-5, abs=1e-10)
            assert explanation.user_preference == pytest.approx(single.user_preference, rel=1e-5, abs=1e-10)
            assert explanation.high_order == pytest.approx(single.high_order, rel=1e-5, abs=1e-10)
            assert explanation.low_order == pytest.approx(single.low_order, rel=1e-5, abs=1e-10)

    def test_batch_validation(self):
        model = HAM(5, NUM_ITEMS, embedding_dim=8, n_h=4, n_l=1,
                    rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            explain_ham_scores(model, 0, [1], [0, NUM_ITEMS])
