"""Property-based tests (hypothesis) on core data structures and invariants.

These complement the example-based unit tests by checking invariants over
randomly generated inputs:

* autograd results match NumPy and gradients match finite differences,
* pooling and synergies agree with their brute-force definitions,
* the ranking metrics and the top-k selection obey their mathematical
  invariants,
* the experimental-setting splits and the sliding windows never lose,
  reorder or invent interactions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, functional as F
from repro.data import InteractionDataset, build_training_instances, leave_n_out, split_cut
from repro.data.windows import pad_id_for
from repro.evaluation.metrics import ndcg_at_k, recall_at_k
from repro.evaluation.ranking import rank_items, top_k_items
from repro.models.pooling import masked_max_pool, masked_mean_pool
from repro.models.synergy import synergy_vectors
from repro.training.bpr import bpr_loss

# Small-but-varied float arrays with safe magnitudes.
floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=floats)


class TestAutogradProperties:
    @given(arrays((3, 4)), arrays((3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_addition_matches_numpy_and_gradient_is_one(self, a, b):
        x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = x + y
        assert np.allclose(out.data, a + b)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)
        assert np.allclose(y.grad, 1.0)

    @given(arrays((4, 3)), arrays((3, 2)))
    @settings(max_examples=30, deadline=None)
    def test_matmul_matches_numpy(self, a, b):
        out = Tensor(a).matmul(Tensor(b))
        assert np.allclose(out.data, a @ b, atol=1e-10)

    @given(arrays((2, 5)))
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_a_distribution(self, a):
        probs = F.softmax(Tensor(a), axis=-1).data
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    @given(arrays((3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_bounds_and_symmetry(self, a):
        s = Tensor(a).sigmoid().data
        assert np.all((s > 0) & (s < 1))
        s_neg = Tensor(-a).sigmoid().data
        assert np.allclose(s + s_neg, 1.0)

    @given(arrays((3, 4)))
    @settings(max_examples=20, deadline=None)
    def test_sum_gradient_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones_like(a))

    @given(arrays((6,)), arrays((6,)))
    @settings(max_examples=30, deadline=None)
    def test_mul_gradient_is_other_operand(self, a, b):
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x * y).sum().backward()
        assert np.allclose(x.grad, b)
        assert np.allclose(y.grad, a)

    @given(arrays((4, 3)))
    @settings(max_examples=30, deadline=None)
    def test_logsigmoid_is_negative_and_monotone(self, a):
        values = F.logsigmoid(Tensor(a)).data
        assert np.all(values <= 0)
        order = np.argsort(a, axis=None)
        flat = values.reshape(-1)
        assert np.all(np.diff(flat[order]) >= -1e-12)


class TestPoolingAndSynergyProperties:
    @given(arrays((3, 5, 4)))
    @settings(max_examples=30, deadline=None)
    def test_mean_pool_bounded_by_min_and_max(self, data):
        mask = np.ones((3, 5), dtype=bool)
        pooled = masked_mean_pool(Tensor(data), mask).data
        assert np.all(pooled <= data.max(axis=1) + 1e-12)
        assert np.all(pooled >= data.min(axis=1) - 1e-12)

    @given(arrays((2, 4, 3)))
    @settings(max_examples=30, deadline=None)
    def test_max_pool_equals_numpy_max(self, data):
        mask = np.ones((2, 4), dtype=bool)
        pooled = masked_max_pool(Tensor(data), mask).data
        assert np.allclose(pooled, data.max(axis=1))

    @given(arrays((2, 4, 3)), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_masked_positions_never_change_mean_pool(self, data, masked_column):
        mask = np.ones((2, 4), dtype=bool)
        mask[:, masked_column] = False
        zeroed = data.copy()
        zeroed[:, masked_column, :] = 0.0
        changed = zeroed.copy()
        changed[:, masked_column, :] = 99.0
        # Padded rows carry zero embeddings in the models; whatever value
        # sits there must not influence the masked mean.
        pooled_zero = masked_mean_pool(Tensor(zeroed), mask).data
        pooled_changed = masked_mean_pool(Tensor(changed), mask).data
        assert np.allclose(pooled_zero, pooled_changed)

    @given(arrays((1, 4, 3)))
    @settings(max_examples=25, deadline=None)
    def test_order2_synergy_matches_bruteforce(self, data):
        mask = np.ones((1, 4), dtype=bool)
        result = synergy_vectors(Tensor(data), mask, order=2)[0].data[0]
        items = data[0]
        per_item = [
            sum(items[j] * items[k] for k in range(4) if k != j)
            for j in range(4)
        ]
        assert np.allclose(result, np.mean(per_item, axis=0), atol=1e-9)

    @given(arrays((2, 3, 4)))
    @settings(max_examples=25, deadline=None)
    def test_synergy_order_list_length(self, data):
        mask = np.ones((2, 3), dtype=bool)
        for order in range(1, 4):
            assert len(synergy_vectors(Tensor(data), mask, order)) == max(order - 1, 0)


class TestBPRProperties:
    @given(arrays((4, 3)), arrays((4, 3)))
    @settings(max_examples=30, deadline=None)
    def test_loss_is_positive_and_antisymmetric_in_ordering(self, pos, neg):
        loss_correct = float(bpr_loss(Tensor(pos), Tensor(neg)).data)
        loss_swapped = float(bpr_loss(Tensor(neg), Tensor(pos)).data)
        assert loss_correct > 0
        # Whichever assignment ranks "positives" higher has the lower loss.
        if np.mean(pos - neg) > np.mean(neg - pos):
            assert loss_correct <= loss_swapped + 1e-9

    @given(arrays((3, 2)), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_increasing_margin_never_increases_loss(self, scores, margin):
        pos = Tensor(scores)
        neg = Tensor(scores - margin)
        tighter = Tensor(scores - margin / 2.0)
        assert float(bpr_loss(pos, neg).data) <= float(bpr_loss(pos, tighter).data) + 1e-12


class TestMetricProperties:
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=20, unique=True),
           st.lists(st.integers(0, 50), min_size=1, max_size=10, unique=True),
           st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_metrics_bounded(self, recommended, truth, k):
        recall = recall_at_k(recommended, truth, k)
        ndcg = ndcg_at_k(recommended, truth, k)
        assert 0.0 <= recall <= 1.0
        assert 0.0 <= ndcg <= 1.0

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=20, unique=True),
           st.lists(st.integers(0, 50), min_size=1, max_size=10, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_recall_monotone_in_k(self, recommended, truth):
        values = [recall_at_k(recommended, truth, k) for k in range(1, len(recommended) + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
           st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_perfect_recommendation_scores_one(self, truth, k):
        assume(k <= len(truth))
        recall = recall_at_k(truth, truth, max(k, len(truth)))
        ndcg = ndcg_at_k(truth, truth, max(k, len(truth)))
        assert recall == pytest.approx(1.0)
        assert ndcg == pytest.approx(1.0)

    @given(hnp.arrays(np.float64, (4, 25), elements=floats), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_top_k_agrees_with_full_ranking(self, scores, k):
        top = top_k_items(scores, k)
        full = rank_items(scores)[:, :k]
        for row in range(scores.shape[0]):
            assert set(scores[row, top[row]]) == set(scores[row, full[row]])

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 24),
           extra_items=st.integers(-300, 700), levels=st.integers(1, 4000),
           masked_share=st.sampled_from([0.0, 0.5, 0.999]), k=st.integers(1, 70),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_top_k_equals_stable_ranking_around_the_kernel_cut_offs(
            self, seed, rows, extra_items, levels, masked_share, k, dtype):
        """Blocks on both sides of the row, catalogue and k cut-offs, with
        few enough score levels to tie and enough ``-inf`` to starve rows."""
        rng = np.random.default_rng(seed)
        num_items = 4096 + extra_items
        scores = rng.integers(0, levels, (rows, num_items + 1)).astype(dtype)
        scores[rng.random(scores.shape) < masked_share] = -np.inf
        scores = scores[:, :num_items]
        assert np.array_equal(top_k_items(scores, k), rank_items(scores)[:, :k])


class TestSplitAndWindowProperties:
    @staticmethod
    def _dataset(sequences):
        num_items = max(max(seq) for seq in sequences) + 1
        return InteractionDataset([list(seq) for seq in sequences], num_items)

    @given(st.lists(st.lists(st.integers(0, 40), min_size=10, max_size=60),
                    min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_cut_split_partitions_each_sequence(self, sequences):
        dataset = self._dataset(sequences)
        split = split_cut(dataset)
        for user, seq in enumerate(sequences):
            combined = split.train[user] + split.valid[user] + split.test[user]
            assert combined == list(seq)
            assert len(split.train[user]) >= 1

    @given(st.lists(st.lists(st.integers(0, 40), min_size=10, max_size=60),
                    min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_leave_n_out_sizes(self, sequences):
        dataset = self._dataset(sequences)
        split = leave_n_out(dataset, test_items=3, valid_items=3)
        for user, seq in enumerate(sequences):
            assert len(split.test[user]) <= 3
            assert len(split.valid[user]) <= 3
            assert len(split.train[user]) >= 1
            combined = split.train[user] + split.valid[user] + split.test[user]
            assert combined == list(seq)

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=40),
           st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_windows_are_contiguous_subsequences(self, sequence, n_h, n_p):
        num_items = 31
        instances = build_training_instances([sequence], num_items, n_h=n_h, n_p=n_p)
        pad = pad_id_for(num_items)
        joined = "," + ",".join(map(str, sequence)) + ","
        for inputs, targets in zip(instances.inputs, instances.targets):
            window = [item for item in list(inputs) + list(targets) if item != pad]
            assert window, "window must contain at least one real item"
            fragment = "," + ",".join(map(str, window)) + ","
            assert fragment in joined
        # every window keeps at least one real input and one real target
        if len(instances):
            assert instances.input_mask().any(axis=1).all()
            assert instances.target_mask().any(axis=1).all()

    @given(st.lists(st.lists(st.integers(0, 20), min_size=2, max_size=30),
                    min_size=1, max_size=6),
           st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_window_count_formula(self, sequences, n_h, n_p):
        num_items = 21
        instances = build_training_instances(sequences, num_items, n_h=n_h, n_p=n_p)
        expected = 0
        for seq in sequences:
            if len(seq) < 2:
                continue
            if len(seq) < n_h + n_p:
                expected += 1
            else:
                expected += len(seq) - n_h - n_p + 1
        assert len(instances) == expected
