"""Tests for the serving layer's query verbs (top-k recommendation,
scores, similarity queries) and HAM score explanations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.splits import split_setting
from repro.models import HAM, HAMSynergy, ItemKNN, Popularity, create_model
from repro.serving import ScoringEngine, explain_ham_score
from repro.training import Trainer, TrainingConfig

pytestmark = pytest.mark.fast

NUM_ITEMS = 20


def tiny_split(num_users: int = 10, seed: int = 0):
    rng = np.random.default_rng(seed)
    sequences = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(12, 18)).tolist()
        for _ in range(num_users)
    ]
    dataset = InteractionDataset.from_sequences(sequences, num_items=NUM_ITEMS)
    return split_setting(dataset, "80-3-CUT")


def trained_ham(split, synergy: bool = True):
    model_name = "HAMs_m" if synergy else "HAMm"
    model = create_model(model_name, split.num_users, NUM_ITEMS,
                         rng=np.random.default_rng(0), embedding_dim=8, n_h=4, n_l=2)
    Trainer(model, TrainingConfig(num_epochs=2, batch_size=64, seed=0)).fit(
        split.train_plus_valid())
    return model


class TestEngineQueries:
    def test_topk_shapes_and_ordering(self):
        split = tiny_split()
        model = trained_ham(split)
        recommender = ScoringEngine(model, split.train_plus_valid())
        recommendations = recommender.recommend(0, k=5)
        assert len(recommendations) == 5
        scores = [entry.score for entry in recommendations]
        assert scores == sorted(scores, reverse=True)
        assert [entry.rank for entry in recommendations] == list(range(5))

    def test_excludes_seen_items_by_default(self):
        split = tiny_split()
        model = trained_ham(split)
        histories = split.train_plus_valid()
        recommender = ScoringEngine(model, histories)
        for entry in recommender.recommend(0, k=10):
            assert entry.item not in set(histories[0])

    def test_include_seen_items_when_asked(self):
        split = tiny_split()
        pop = Popularity(split.num_users, NUM_ITEMS).fit_counts(split.train_plus_valid())
        histories = split.train_plus_valid()
        with_seen = ScoringEngine(pop, histories, exclude_seen=False).recommend(0, k=5)
        # POP's global top item is almost surely in some user's history, so
        # allowing seen items must not error and must return k entries.
        assert len(with_seen) == 5

    def test_batch_matches_single(self):
        split = tiny_split()
        model = trained_ham(split)
        recommender = ScoringEngine(model, split.train_plus_valid())
        batch = recommender.recommend_batch([0, 1], k=3)
        for user, expected in zip((0, 1), batch):
            single = recommender.recommend(user, k=3)
            assert [entry.item for entry in single] == [entry.item for entry in expected]
            # Scores may differ in the last float bit across batch layouts;
            # models train in float32 by default, so the bound is single
            # precision.
            for got, want in zip(single, expected):
                assert got.score == pytest.approx(want.score, rel=1e-5)

    def test_score_matches_recommendation_score(self):
        split = tiny_split()
        model = trained_ham(split)
        recommender = ScoringEngine(model, split.train_plus_valid())
        top = recommender.recommend(2, k=1)[0]
        assert recommender.score(2, top.item) == pytest.approx(top.score)

    def test_similar_items_embedding_model(self):
        split = tiny_split()
        model = trained_ham(split)
        recommender = ScoringEngine(model, split.train_plus_valid())
        similar = recommender.similar_items(3, k=4)
        assert len(similar) == 4
        assert all(entry.item != 3 for entry in similar)
        scores = [entry.score for entry in similar]
        assert scores == sorted(scores, reverse=True)

    def test_similar_items_itemknn_uses_neighbors(self):
        split = tiny_split()
        knn = ItemKNN(split.num_users, NUM_ITEMS, cooccurrence_window=2)
        knn.fit_counts(split.train_plus_valid())
        recommender = ScoringEngine(knn, split.train_plus_valid())
        similar = recommender.similar_items(0, k=3)
        assert all(entry.item != 0 for entry in similar)
        assert [(entry.item, entry.score) for entry in similar] == knn.neighbors(0, 3)
        assert [entry.rank for entry in similar] == list(range(len(similar)))

    def test_similar_items_without_geometry_is_refused(self):
        split = tiny_split()
        pop = Popularity(split.num_users, NUM_ITEMS).fit_counts(split.train_plus_valid())
        with pytest.raises(NotImplementedError):
            ScoringEngine(pop, split.train_plus_valid()).similar_items(0, k=3)

    def test_validation(self):
        split = tiny_split()
        model = trained_ham(split)
        recommender = ScoringEngine(model, split.train_plus_valid())
        with pytest.raises(ValueError):
            recommender.recommend(999, k=5)
        with pytest.raises(ValueError):
            recommender.recommend(0, k=0)
        with pytest.raises(ValueError):
            recommender.score(0, NUM_ITEMS + 5)
        with pytest.raises(ValueError):
            recommender.similar_items(-1)
        with pytest.raises(ValueError):
            ScoringEngine(model, histories=[[0, 1]])   # too few histories


class TestExplanation:
    def test_factors_sum_to_total_and_match_model_score(self):
        split = tiny_split()
        model = trained_ham(split, synergy=True)
        history = split.train_plus_valid()[0]
        explanation = explain_ham_score(model, user=0, history=history, item=5)
        assert explanation.total == pytest.approx(
            explanation.user_preference + explanation.high_order + explanation.low_order
        )
        recommender = ScoringEngine(model, split.train_plus_valid())
        assert explanation.total == pytest.approx(recommender.score(0, 5), abs=1e-9)
        assert explanation.uses_synergies
        assert explanation.dominant_factor() in ("user_preference", "high_order", "low_order")
        assert explanation.as_row()["item"] == 5

    def test_plain_ham_explanation_matches_score(self):
        split = tiny_split()
        model = trained_ham(split, synergy=False)
        history = split.train_plus_valid()[1]
        explanation = explain_ham_score(model, user=1, history=history, item=7)
        recommender = ScoringEngine(model, split.train_plus_valid())
        assert explanation.total == pytest.approx(recommender.score(1, 7), abs=1e-9)
        assert not explanation.uses_synergies

    def test_ablated_user_term_is_zero(self):
        model = HAMSynergy(5, NUM_ITEMS, embedding_dim=8, n_h=4, n_l=2,
                           synergy_order=2, use_user_embedding=False,
                           rng=np.random.default_rng(0))
        explanation = explain_ham_score(model, user=0, history=[1, 2, 3], item=4)
        assert explanation.user_preference == 0.0

    def test_ablated_low_order_term_is_zero(self):
        model = HAM(5, NUM_ITEMS, embedding_dim=8, n_h=4, n_l=0,
                    rng=np.random.default_rng(0))
        explanation = explain_ham_score(model, user=0, history=[1, 2, 3], item=4)
        assert explanation.low_order == 0.0

    def test_only_ham_family_supported(self):
        model = create_model("HGN", 5, NUM_ITEMS, rng=np.random.default_rng(0),
                             embedding_dim=8, sequence_length=4)
        with pytest.raises(TypeError):
            explain_ham_score(model, user=0, history=[1, 2], item=3)

    def test_id_validation(self):
        model = HAM(5, NUM_ITEMS, embedding_dim=8, n_h=3, n_l=1,
                    rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            explain_ham_score(model, user=99, history=[1], item=0)
        with pytest.raises(ValueError):
            explain_ham_score(model, user=0, history=[1], item=NUM_ITEMS)
