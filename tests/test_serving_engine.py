"""Tests for the batched scoring engine, the canonical padding helper and
the batched HAM score explanations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.splits import split_setting
from repro.data.windows import pad_histories, pad_id_for
from repro.evaluation.evaluator import RankingEvaluator
from repro.evaluation.ranking import top_k_items
from repro.models import HAM, HAMSynergy, Popularity, create_model
from repro.models.base import FrozenScorer
from repro.serving import ScoringEngine, explain_ham_score, explain_ham_scores
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
