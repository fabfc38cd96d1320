"""Tests for metrics, ranking helpers, the evaluator, significance and timing."""

import numpy as np
import pytest

from repro.data import InteractionDataset, split_setting
from repro.data.splits import DatasetSplit
from repro.evaluation import (
    RankingEvaluator,
    measure_inference_time,
    ndcg_at_k,
    paired_improvement_test,
    rank_items,
    recall_at_k,
    top_k_items,
)
from repro.evaluation.metrics import (
    average_precision_at_k,
    batch_hits,
    batch_ndcg_at_k,
    batch_recall_at_k,
    hit_rate_at_k,
    truth_matrix,
)
from repro.evaluation.ranking import exclude_items
from repro.models import HAM, Popularity
from repro.serving import ScoringEngine


class TestMetrics:
    def test_recall_perfect(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3], k=3) == 1.0

    def test_recall_partial(self):
        assert recall_at_k([1, 9, 8], [1, 2], k=3) == 0.5

    def test_recall_counts_only_topk(self):
        assert recall_at_k([9, 8, 7, 1], [1], k=3) == 0.0

    def test_recall_empty_truth(self):
        assert recall_at_k([1, 2], [], k=2) == 0.0

    def test_ndcg_perfect_is_one(self):
        assert ndcg_at_k([4, 5], [4, 5], k=2) == pytest.approx(1.0)

    def test_ndcg_position_matters(self):
        first = ndcg_at_k([4, 9], [4], k=2)
        second = ndcg_at_k([9, 4], [4], k=2)
        assert first > second > 0

    def test_ndcg_value(self):
        # hit at rank 2 only, one relevant item: dcg = 1/log2(3), idcg = 1
        assert ndcg_at_k([9, 4, 8], [4], k=3) == pytest.approx(1.0 / np.log2(3))

    def test_ndcg_empty_truth(self):
        assert ndcg_at_k([1], [], k=1) == 0.0

    def test_hit_rate(self):
        assert hit_rate_at_k([1, 2, 3], [3], k=3) == 1.0
        assert hit_rate_at_k([1, 2, 3], [9], k=3) == 0.0

    def test_average_precision(self):
        assert average_precision_at_k([1, 9, 2], [1, 2], k=3) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], k=0)
        with pytest.raises(ValueError):
            ndcg_at_k([1], [1], k=0)


class TestRankingHelpers:
    def test_top_k_orders_by_score(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        assert top_k_items(scores, 3).tolist() == [[1, 3, 2]]

    def test_top_k_respects_exclusions(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        top = top_k_items(scores, 2, excluded=[{1}])
        assert top.tolist() == [[3, 2]]

    def test_top_k_larger_than_catalogue(self):
        scores = np.array([[0.3, 0.1]])
        assert top_k_items(scores, 10).shape == (1, 2)

    def test_rank_items_full_order(self):
        scores = np.array([[0.2, 0.8, 0.5]])
        assert rank_items(scores).tolist() == [[1, 2, 0]]

    def test_exclude_items_validation(self):
        with pytest.raises(ValueError):
            exclude_items(np.zeros((2, 3)), [set()])

    def test_top_k_invalid(self):
        with pytest.raises(ValueError):
            top_k_items(np.zeros((1, 3)), 0)

    def test_top_k_matches_full_sort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(5, 40))
        top = top_k_items(scores, 10)
        full = rank_items(scores)[:, :10]
        assert np.array_equal(top, full)


def pattern_dataset(num_users=20, num_items=15, length=14, seed=0):
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(num_users):
        start = int(rng.integers(0, num_items))
        sequences.append([(start + t) % num_items for t in range(length)])
    return InteractionDataset(sequences, num_items, name="pattern")


class TestRankingEvaluator:
    def test_metric_keys_and_ranges(self):
        dataset = pattern_dataset()
        split = split_setting(dataset, "80-20-CUT")
        evaluator = RankingEvaluator(split, ks=(5, 10))
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(1))
        result = evaluator.evaluate(model)
        assert set(result.metrics) == {"Recall@5", "Recall@10", "NDCG@5", "NDCG@10"}
        assert all(0.0 <= value <= 1.0 for value in result.metrics.values())
        assert result.num_users_evaluated == evaluator.num_evaluable_users

    def test_per_user_arrays_align(self):
        dataset = pattern_dataset(seed=1)
        split = split_setting(dataset, "3-LOS")
        evaluator = RankingEvaluator(split)
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(2))
        result = evaluator.evaluate(model)
        for values in result.per_user.values():
            assert len(values) == evaluator.num_evaluable_users
        assert result["Recall@5"] == pytest.approx(result.per_user["Recall@5"].mean())

    def test_validation_mode_uses_validation_targets(self):
        dataset = pattern_dataset(seed=2)
        split = split_setting(dataset, "80-20-CUT")
        test_eval = RankingEvaluator(split, mode="test")
        valid_eval = RankingEvaluator(split, mode="validation")
        assert valid_eval._targets is split.valid
        assert test_eval._targets is split.test

    def test_perfect_oracle_model_gets_recall_one(self):
        # A "model" whose scores are highest exactly on each user's next
        # items: build it by hand through Popularity + per-user hack is
        # complex, so instead check an oracle via direct score injection.
        dataset = pattern_dataset(seed=3)
        split = split_setting(dataset, "80-3-CUT")
        evaluator = RankingEvaluator(split, ks=(5,), mode="test")

        class Oracle(Popularity):
            def score_all(self, users, inputs):
                scores = np.zeros((len(users), self.num_items))
                for row, user in enumerate(np.asarray(users)):
                    for item in split.test[int(user)]:
                        scores[row, item] = 10.0
                return scores

        oracle = Oracle(dataset.num_users, dataset.num_items)
        oracle._fitted = True
        result = evaluator.evaluate(oracle)
        assert result["Recall@5"] == pytest.approx(1.0)

    def test_exclude_seen_items(self):
        # With exclusion on, training items can never be recommended even
        # if the model scores them highest.
        dataset = pattern_dataset(seed=4)
        split = split_setting(dataset, "80-3-CUT")
        evaluator = RankingEvaluator(split, ks=(5,), exclude_seen=True)

        class TrainLover(Popularity):
            def score_all(self, users, inputs):
                scores = np.zeros((len(users), self.num_items))
                for row, user in enumerate(np.asarray(users)):
                    for item in split.train_plus_valid()[int(user)]:
                        scores[row, item] = 10.0
                return scores

        model = TrainLover(dataset.num_users, dataset.num_items)
        model._fitted = True
        result = evaluator.evaluate(model)
        # Train items are excluded, so scoring them high cannot produce hits
        # beyond chance; with all remaining scores 0 the top-k is arbitrary
        # but never contains excluded items -> recall is low but defined.
        assert 0.0 <= result["Recall@5"] <= 1.0

    def test_validation_metric_helper(self):
        dataset = pattern_dataset(seed=5)
        split = split_setting(dataset, "80-20-CUT")
        evaluator = RankingEvaluator(split, ks=(10,), mode="validation")
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(3))
        value = evaluator.validation_metric(model, "Recall@10")
        assert 0.0 <= value <= 1.0

    def test_invalid_arguments(self):
        dataset = pattern_dataset(seed=6)
        split = split_setting(dataset, "80-20-CUT")
        with pytest.raises(ValueError):
            RankingEvaluator(split, mode="bogus")
        with pytest.raises(ValueError):
            RankingEvaluator(split, ks=())


#######################################################################
#        Metric path vs the dense truth-matrix reference (fast)        #
#######################################################################


def random_targets(rng, num_users, num_items, max_targets, empty_share=0.2):
    """Per-user target lists drawn *with* replacement (so duplicates
    occur), some users left empty, lengths up to ``max_targets``."""
    targets = []
    for _ in range(num_users):
        if rng.random() < empty_share:
            targets.append([])
        else:
            size = int(rng.integers(1, max_targets + 1))
            targets.append(rng.integers(0, num_items, size=size).tolist())
    return targets


def random_split(seed, num_users, num_items, max_targets=4):
    rng = np.random.default_rng(seed)
    train = [rng.integers(0, num_items, size=int(rng.integers(1, 6))).tolist()
             for _ in range(num_users)]
    valid = random_targets(rng, num_users, num_items, max_targets)
    test = random_targets(rng, num_users, num_items, max_targets)
    return DatasetSplit(train, valid, test, num_items, setting="random")


class FixedScores(Popularity):
    """Seeded random scores per (user, item), with each user's test and
    validation targets lifted so that hits land at every rank."""

    def __init__(self, split, seed):
        super().__init__(split.num_users, split.num_items)
        rng = np.random.default_rng(seed)
        self._table = rng.random((split.num_users, split.num_items))
        for user in range(split.num_users):
            for item in split.test[user] + split.valid[user]:
                self._table[user, item] += rng.random()
        self._fitted = True

    def score_all(self, users, inputs):
        return self._table[np.asarray(users)]


def reference_result(split, model, ks, mode, batch_size=256):
    """The dense formula, per batch of ``batch_size`` users: a
    ``(B, num_items)`` bool truth matrix, hits gathered from it, and the
    per-user target counts as its row sums."""
    histories = split.train_plus_valid() if mode == "test" else split.train
    targets = split.test if mode == "test" else split.valid
    users = [user for user, items in enumerate(targets) if items]
    ks = tuple(sorted(ks))
    per_user = {f"{metric}@{k}": [] for metric in ("Recall", "NDCG") for k in ks}
    ranked_all = ScoringEngine(model, histories).top_k(users, max(ks))
    for start in range(0, len(users), batch_size):
        batch = users[start:start + batch_size]
        truth = truth_matrix([targets[user] for user in batch], split.num_items)
        hits = batch_hits(ranked_all[start:start + batch_size], truth)
        truth_counts = truth.sum(axis=1)
        for k in ks:
            per_user[f"Recall@{k}"].append(batch_recall_at_k(hits, truth_counts, k))
            per_user[f"NDCG@{k}"].append(batch_ndcg_at_k(hits, truth_counts, k))
    per_user = {name: np.concatenate(values) for name, values in per_user.items()}
    return per_user, {name: float(values.mean()) for name, values in per_user.items()}


def assert_matches_reference(split, model, ks, mode):
    result = RankingEvaluator(split, ks=ks, mode=mode).evaluate(model)
    per_user, metrics = reference_result(split, model, ks, mode)
    assert list(result.per_user) == list(per_user)
    for name, values in per_user.items():
        assert result.per_user[name].dtype == values.dtype
        assert result.per_user[name].tobytes() == values.tobytes(), name
    assert result.metrics == metrics


@pytest.mark.fast
class TestMetricPathParity:
    @pytest.mark.parametrize("mode", ["test", "validation"])
    @pytest.mark.parametrize("ks", [(5, 10), (10, 1, 5), (1, 3, 20)])
    def test_byte_identical_across_batches(self, mode, ks):
        # 600 users span three 256-user reference batches; up to 25
        # targets with duplicates gives users with more targets than k.
        split = random_split(seed=11, num_users=600, num_items=50, max_targets=25)
        assert_matches_reference(split, FixedScores(split, seed=12), ks, mode)

    @pytest.mark.parametrize("mode", ["test", "validation"])
    def test_catalogue_smaller_than_largest_k(self, mode):
        split = random_split(seed=13, num_users=40, num_items=8, max_targets=6)
        assert_matches_reference(split, FixedScores(split, seed=14), (1, 3, 20), mode)

    def test_duplicate_targets_count_once(self):
        split = DatasetSplit(train=[[0], [1]], valid=[[], []],
                             test=[[2, 2, 3], [4, 4]], num_items=6)
        model = FixedScores(split, seed=15)
        assert_matches_reference(split, model, (5,), "test")
        result = RankingEvaluator(split, ks=(5,)).evaluate(model)
        # Five of the six items are unseen, so every target is in the top 5.
        assert result.per_user["Recall@5"].tolist() == [1.0, 1.0]

    def test_no_evaluable_users(self):
        split = random_split(seed=16, num_users=10, num_items=12)
        split.test = [[] for _ in range(split.num_users)]
        result = RankingEvaluator(split, ks=(10, 5)).evaluate(FixedScores(split, seed=17))
        assert result.metrics == {"Recall@5": 0.0, "Recall@10": 0.0,
                                  "NDCG@5": 0.0, "NDCG@10": 0.0}
        assert result.per_user == {}
        assert result.num_users_evaluated == 0

    @pytest.mark.parametrize("bad_item", [-1, 12])
    def test_target_id_outside_catalogue_is_rejected(self, bad_item):
        split = random_split(seed=18, num_users=6, num_items=12)
        split.test[4] = [3, bad_item]
        with pytest.raises(ValueError, match=rf"user 4 .* id {bad_item} outside \[0, 12\)"):
            RankingEvaluator(split)
        split.test[4] = [3]
        split.valid[2] = [bad_item]
        with pytest.raises(ValueError, match=rf"user 2 .* id {bad_item} outside"):
            RankingEvaluator(split, mode="validation")

    def test_model_ranking_past_the_catalogue_is_rejected(self):
        split = random_split(seed=19, num_users=6, num_items=12)
        wider = DatasetSplit(split.train, split.valid, split.test, num_items=15)
        with pytest.raises(ValueError, match="model ranks 15 items but the split has 12"):
            RankingEvaluator(split).evaluate(FixedScores(wider, seed=20))


class TestSignificance:
    def test_clear_improvement_is_significant(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.2, 0.4, size=200)
        better = base + 0.05 + rng.normal(0, 0.01, size=200)
        result = paired_improvement_test(better, base)
        assert result.significant
        assert result.improvement_percent > 0
        assert result.flag() == "*"

    def test_identical_scores_not_significant(self):
        scores = np.full(50, 0.3)
        result = paired_improvement_test(scores, scores.copy())
        assert not result.significant
        assert result.improvement_percent == 0.0
        assert result.flag() == ""

    def test_noise_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, size=30)
        b = a + rng.normal(0, 1e-3, size=30) * np.where(rng.random(30) > 0.5, 1, -1)
        result = paired_improvement_test(a, b, confidence=0.999)
        assert isinstance(result.significant, bool)

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_improvement_test(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            paired_improvement_test(np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            paired_improvement_test(np.ones(5), np.zeros(5), confidence=1.5)


class TestTiming:
    def test_measures_positive_time(self):
        dataset = pattern_dataset(seed=7)
        split = split_setting(dataset, "80-20-CUT")
        evaluator = RankingEvaluator(split)
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(4))
        timing = measure_inference_time(model, evaluator, repeats=2)
        assert timing.total_seconds > 0
        assert timing.seconds_per_user > 0
        assert timing.num_users == evaluator.num_evaluable_users
        assert timing.repeats == 2
        # The fastest pass is reported, so the per-user figure divides
        # one pass by the users, not the sum of both passes.
        assert timing.seconds_per_user == timing.total_seconds / timing.num_users

    def test_reports_the_fastest_pass(self, monkeypatch):
        """Each pass is timed on its own and the minimum wins, so one
        slow pass (a scheduler hiccup) does not move the figure."""
        import repro.evaluation.timing as timing_module

        dataset = pattern_dataset(seed=7)
        split = split_setting(dataset, "80-20-CUT")
        evaluator = RankingEvaluator(split)
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(4))
        # Pass lengths 5, 2 and 9 clock units, read at each pass boundary.
        ticks = iter([0.0, 5.0, 10.0, 12.0, 20.0, 29.0])
        monkeypatch.setattr(timing_module.time, "perf_counter", lambda: next(ticks))
        timing = measure_inference_time(model, evaluator, repeats=3)
        assert timing.total_seconds == 2.0
        assert timing.seconds_per_user == 2.0 / evaluator.num_evaluable_users

    def test_passes_run_on_one_blas_thread(self, monkeypatch):
        """Inside every timed pass OpenBLAS runs one thread; the previous
        count is restored afterwards."""
        from repro.evaluation.timing import _openblas

        library = _openblas()
        if library is None:
            pytest.skip("NumPy carries no pinnable OpenBLAS")
        dataset = pattern_dataset(seed=7)
        split = split_setting(dataset, "80-20-CUT")
        evaluator = RankingEvaluator(split, batch_size=4)
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(4))
        counts = []
        score_all = model.score_all

        def counting_score_all(users, inputs):
            counts.append(library.scipy_openblas_get_num_threads64_())
            return score_all(users, inputs)

        monkeypatch.setattr(model, "score_all", counting_score_all)
        original = library.scipy_openblas_get_num_threads64_()
        library.scipy_openblas_set_num_threads64_(2)
        try:
            measure_inference_time(model, evaluator, repeats=2)
            assert library.scipy_openblas_get_num_threads64_() == 2
        finally:
            library.scipy_openblas_set_num_threads64_(original)
        assert len(counts) == 2 * -(-evaluator.num_evaluable_users // 4)
        assert set(counts) == {1}

    def test_invalid_repeats(self):
        dataset = pattern_dataset(seed=8)
        split = split_setting(dataset, "80-20-CUT")
        evaluator = RankingEvaluator(split)
        model = HAM(dataset.num_users, dataset.num_items, embedding_dim=8,
                    rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            measure_inference_time(model, evaluator, repeats=0)
