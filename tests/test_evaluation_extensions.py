"""Tests for the evaluation extensions: extra list metrics, beyond-accuracy
statistics, bootstrap/Wilcoxon uncertainty and the sampled-negative
protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.splits import split_setting
from repro.evaluation import (
    RankingEvaluator,
    SampledRankingEvaluator,
    average_recommendation_popularity,
    beyond_accuracy_report,
    bootstrap_confidence_interval,
    bootstrap_improvement_test,
    catalogue_coverage,
    gini_coefficient,
    mrr_at_k,
    novelty,
    precision_at_k,
    wilcoxon_improvement_test,
)
from repro.models import Popularity, create_model

NUM_ITEMS = 30


def tiny_split(num_users: int = 15, seed: int = 0):
    rng = np.random.default_rng(seed)
    sequences = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(12, 20)).tolist()
        for _ in range(num_users)
    ]
    dataset = InteractionDataset.from_sequences(sequences, num_items=NUM_ITEMS)
    return split_setting(dataset, "80-20-CUT")


class TestListMetrics:
    def test_precision_counts_hits_over_k(self):
        assert precision_at_k([1, 2, 3, 4], [2, 4, 9], k=4) == pytest.approx(0.5)

    def test_precision_empty_truth(self):
        assert precision_at_k([1, 2], [], k=2) == 0.0

    def test_mrr_first_hit_position(self):
        assert mrr_at_k([7, 3, 5], [5], k=3) == pytest.approx(1.0 / 3.0)
        assert mrr_at_k([5, 3, 7], [5], k=3) == pytest.approx(1.0)

    def test_mrr_no_hit(self):
        assert mrr_at_k([1, 2, 3], [9], k=3) == 0.0

    def test_mrr_respects_cutoff(self):
        assert mrr_at_k([1, 2, 3, 9], [9], k=3) == 0.0


class TestBeyondAccuracy:
    def test_coverage_counts_unique_items(self):
        recommendations = np.array([[0, 1], [1, 2]])
        assert catalogue_coverage(recommendations, num_items=10) == pytest.approx(0.3)

    def test_gini_uniform_is_zero(self):
        assert gini_coefficient(np.ones(10)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_is_high(self):
        exposure = np.zeros(100)
        exposure[0] = 1000.0
        assert gini_coefficient(exposure) > 0.95

    def test_gini_validation(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([-1.0, 2.0]))

    def test_average_popularity(self):
        frequencies = np.array([10.0, 2.0, 0.0])
        recommendations = np.array([[0, 1]])
        assert average_recommendation_popularity(recommendations, frequencies) == pytest.approx(6.0)

    def test_novelty_prefers_rare_items(self):
        frequencies = np.array([100.0, 1.0])
        popular = novelty(np.array([[0]]), frequencies)
        rare = novelty(np.array([[1]]), frequencies)
        assert rare > popular

    def test_popularity_model_report_is_maximally_concentrated(self):
        split = tiny_split()
        model = Popularity(split.num_users, NUM_ITEMS).fit_counts(split.train_plus_valid())
        report = beyond_accuracy_report(model, split, k=5)
        assert 0.0 < report.coverage <= 1.0
        assert report.num_users == len(split.users_with_test_items())
        # POP recommends from a single global ranking (modulo the per-user
        # exclusion of seen items), so exposure is highly concentrated.
        assert report.gini > 0.5
        assert set(report.as_row()) == {"coverage", "gini", "avg_popularity", "novelty"}

    def test_personalized_model_covers_more_than_popularity(self):
        split = tiny_split()
        pop = Popularity(split.num_users, NUM_ITEMS).fit_counts(split.train_plus_valid())
        ham = create_model("HAMm", split.num_users, NUM_ITEMS,
                           rng=np.random.default_rng(0), embedding_dim=8, n_h=4, n_l=2)
        pop_report = beyond_accuracy_report(pop, split, k=5)
        ham_report = beyond_accuracy_report(ham, split, k=5)
        # An untrained personalized model recommends near-randomly, which
        # spreads exposure across far more of the catalogue than POP.
        assert ham_report.coverage >= pop_report.coverage
        assert ham_report.gini <= pop_report.gini


class TestConfidence:
    def test_bootstrap_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, size=200)
        interval = bootstrap_confidence_interval(scores, rng=np.random.default_rng(1))
        assert interval.lower <= interval.estimate <= interval.upper
        assert interval.contains(scores.mean())
        assert 0 < interval.width < 0.2

    def test_bootstrap_interval_narrows_with_more_users(self):
        rng = np.random.default_rng(0)
        small = bootstrap_confidence_interval(rng.uniform(0, 1, size=50),
                                              rng=np.random.default_rng(1))
        large = bootstrap_confidence_interval(rng.uniform(0, 1, size=5000),
                                              rng=np.random.default_rng(1))
        assert large.width < small.width

    def test_bootstrap_improvement_detects_clear_gap(self):
        rng = np.random.default_rng(2)
        baseline = rng.uniform(0, 1, size=300)
        better = baseline + 0.2
        interval = bootstrap_improvement_test(better, baseline, rng=np.random.default_rng(3))
        assert interval.lower > 0.0

    def test_bootstrap_improvement_no_gap_includes_zero(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=300)
        b = np.array(a)
        rng.shuffle(b)
        interval = bootstrap_improvement_test(a, b, rng=np.random.default_rng(5))
        assert interval.contains(0.0)

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval(np.array([1.0]))
        with pytest.raises(ValueError):
            bootstrap_confidence_interval(np.arange(10.0), confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_confidence_interval(np.arange(10.0), num_resamples=10)

    def test_wilcoxon_detects_consistent_improvement(self):
        rng = np.random.default_rng(6)
        baseline = rng.uniform(0, 1, size=100)
        better = baseline + rng.uniform(0.01, 0.1, size=100)
        p_value, significant = wilcoxon_improvement_test(better, baseline)
        assert significant and p_value < 0.05

    def test_wilcoxon_identical_scores_not_significant(self):
        scores = np.linspace(0, 1, 50)
        p_value, significant = wilcoxon_improvement_test(scores, scores.copy())
        assert not significant and p_value == 1.0

    def test_wilcoxon_shape_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_improvement_test(np.arange(5.0), np.arange(6.0))


class TestSampledEvaluator:
    def test_perfect_model_gets_perfect_hit_rate(self):
        split = tiny_split()

        class Oracle(Popularity):
            """Scores each user's first test item highest."""

            def __init__(self, split):
                super().__init__(split.num_users, NUM_ITEMS)
                self._fitted = True
                self._split = split

            def score_all(self, users, inputs):
                scores = np.zeros((len(users), self.num_items))
                for row, user in enumerate(np.asarray(users)):
                    test_items = self._split.test[int(user)]
                    if test_items:
                        scores[row, test_items[0]] = 100.0
                return scores

        evaluator = SampledRankingEvaluator(split, ks=(5,), num_negatives=20,
                                            max_test_items_per_user=1, seed=0)
        result = evaluator.evaluate(Oracle(split))
        assert result.metrics["HitRate@5"] == pytest.approx(1.0)
        assert result.metrics["MRR"] == pytest.approx(1.0)

    def test_sampled_protocol_is_more_optimistic_than_full_ranking(self):
        split = tiny_split()
        model = Popularity(split.num_users, NUM_ITEMS).fit_counts(split.train_plus_valid())
        full = RankingEvaluator(split, ks=(10,)).evaluate(model)
        sampled = SampledRankingEvaluator(split, ks=(10,), num_negatives=20,
                                          seed=0).evaluate(model)
        # Ranking against 20 negatives is a strictly easier task than
        # ranking against the whole catalogue.
        assert sampled.metrics["NDCG@10"] >= full.metrics["NDCG@10"]

    def test_instance_cap(self):
        split = tiny_split()
        capped = SampledRankingEvaluator(split, max_test_items_per_user=1)
        uncapped = SampledRankingEvaluator(split)
        assert len(capped._instances()) <= len(uncapped._instances())
        assert len(capped._instances()) == len(split.users_with_test_items())

    def test_validation(self):
        split = tiny_split()
        with pytest.raises(ValueError):
            SampledRankingEvaluator(split, ks=())
        with pytest.raises(ValueError):
            SampledRankingEvaluator(split, num_negatives=0)
        with pytest.raises(ValueError):
            SampledRankingEvaluator(split, max_test_items_per_user=0)
        with pytest.raises(ValueError, match="batch_size"):
            SampledRankingEvaluator(split, batch_size=0)

    def test_deterministic_given_seed(self):
        split = tiny_split()
        model = Popularity(split.num_users, NUM_ITEMS).fit_counts(split.train_plus_valid())
        first = SampledRankingEvaluator(split, seed=3).evaluate(model)
        second = SampledRankingEvaluator(split, seed=3).evaluate(model)
        assert first.metrics == second.metrics
