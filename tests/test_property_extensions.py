"""Property-based tests (hypothesis) for the extension modules.

Invariants checked:

* ranking losses are non-negative where mathematically guaranteed, and
  every loss decreases when the positive score is raised;
* list metrics are bounded in [0, 1] and monotone in k where applicable;
* the Gini coefficient is scale-invariant and bounded;
* pooling over a single real position returns that position's embedding;
* early stopping never stops before ``patience`` evaluations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.evaluation.coverage import gini_coefficient
from repro.evaluation.metrics import mrr_at_k, ndcg_at_k, precision_at_k, recall_at_k
from repro.training.early_stopping import EarlyStopping
from repro.training.losses import LOSS_FUNCTIONS

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def score_pairs(draw):
    """Positive scores (B, T) and negative scores (B, T, N)."""
    batch = draw(st.integers(1, 4))
    targets = draw(st.integers(1, 3))
    negatives = draw(st.integers(1, 4))
    positive = draw(st.lists(finite_floats, min_size=batch * targets,
                             max_size=batch * targets))
    negative = draw(st.lists(finite_floats, min_size=batch * targets * negatives,
                             max_size=batch * targets * negatives))
    return (np.asarray(positive).reshape(batch, targets),
            np.asarray(negative).reshape(batch, targets, negatives))


class TestLossProperties:
    @settings(max_examples=40, deadline=None)
    @given(score_pairs(), st.sampled_from(sorted(LOSS_FUNCTIONS)))
    def test_losses_finite_and_nonnegative_where_guaranteed(self, pair, name):
        positives, negatives = pair
        loss = float(LOSS_FUNCTIONS[name](Tensor(positives), Tensor(negatives)).data)
        assert np.isfinite(loss)
        if name in ("bpr", "top1", "top1_max", "sampled_softmax", "hinge"):
            # These are sums/means of non-negative per-pair terms.
            assert loss >= -1e-9

    @settings(max_examples=40, deadline=None)
    @given(score_pairs(), st.sampled_from(sorted(LOSS_FUNCTIONS)))
    def test_raising_positive_scores_never_increases_loss(self, pair, name):
        positives, negatives = pair
        loss_fn = LOSS_FUNCTIONS[name]
        before = float(loss_fn(Tensor(positives), Tensor(negatives)).data)
        after = float(loss_fn(Tensor(positives + 2.0), Tensor(negatives)).data)
        assert after <= before + 1e-9


class TestMetricProperties:
    ranked_lists = st.lists(st.integers(0, 30), min_size=1, max_size=15, unique=True)
    truths = st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True)
    ks = st.integers(1, 15)

    @settings(max_examples=60, deadline=None)
    @given(ranked_lists, truths, ks)
    def test_metrics_bounded(self, recommended, truth, k):
        for metric in (recall_at_k, ndcg_at_k, precision_at_k, mrr_at_k):
            value = metric(recommended, truth, k)
            assert 0.0 <= value <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(ranked_lists, truths, ks)
    def test_recall_and_mrr_monotone_in_k(self, recommended, truth, k):
        assert recall_at_k(recommended, truth, k + 1) >= recall_at_k(recommended, truth, k)
        assert mrr_at_k(recommended, truth, k + 1) >= mrr_at_k(recommended, truth, k)

    @settings(max_examples=60, deadline=None)
    @given(truths, ks)
    def test_perfect_ranking_scores_one(self, truth, k):
        effective = min(k, len(truth))
        assert recall_at_k(truth, truth, len(truth)) == 1.0
        assert ndcg_at_k(truth, truth, k) == 1.0 if effective else True
        assert mrr_at_k(truth, truth, k) == 1.0


class TestGiniProperties:
    # No subnormals: scaling 5e-324 by 0.5 underflows to 0.0, which is a
    # different distribution, not a rescaled one.
    counts = st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                                allow_subnormal=False),
                      min_size=2, max_size=50)

    @settings(max_examples=60, deadline=None)
    @given(counts)
    def test_bounded(self, values):
        gini = gini_coefficient(np.asarray(values))
        assert -1e-9 <= gini <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(counts, st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
    def test_scale_invariant(self, values, factor):
        array = np.asarray(values)
        assert abs(gini_coefficient(array) - gini_coefficient(array * factor)) < 1e-9


class TestEarlyStoppingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=30),
           st.integers(1, 5))
    def test_never_stops_before_patience_evaluations(self, scores, patience):
        stopper = EarlyStopping(patience=patience)
        for index, score in enumerate(scores, start=1):
            stopped = stopper.update(score)
            if stopped:
                assert index > patience
                break

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=2, max_size=30))
    def test_strictly_increasing_scores_never_stop(self, scores):
        increasing = np.cumsum(np.abs(scores) + 1e-3)
        stopper = EarlyStopping(patience=1)
        assert not any(stopper.update(float(score)) for score in increasing)
