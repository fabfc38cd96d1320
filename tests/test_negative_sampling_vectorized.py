"""Vectorized negative sampler: correctness and distributional parity.

Properties pinned down here:

* the vectorized sampler never emits a seen item whenever the user has
  at least one unseen item (the ``max_resample`` escape hatch only
  matters for pathological all-seen users);
* its marginal distribution over the unseen items matches the legacy
  per-element rejection sampler's (chi-squared test under a fixed seed);
* the shared :class:`~repro.data.seen.SeenIndex` answers batched
  membership exactly like per-user Python sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.seen import SeenIndex
from repro.training import NegativeSampler

pytestmark = pytest.mark.fast


class TestSeenIndex:
    def test_matches_python_sets(self):
        rng = np.random.default_rng(0)
        histories = [rng.integers(0, 30, size=rng.integers(0, 25)).tolist()
                     for _ in range(20)]
        index = SeenIndex.from_histories(histories, 30)
        sets = [set(h) for h in histories]
        users = rng.integers(0, 20, size=500)
        items = rng.integers(0, 30, size=500)
        expected = np.array([items[i] in sets[users[i]] for i in range(500)])
        assert np.array_equal(index.contains(users, items), expected)

    def test_user_items_sorted_unique(self):
        index = SeenIndex.from_histories([[3, 1, 3, 2], [], [5]], 10)
        assert index.user_items(0).tolist() == [1, 2, 3]
        assert index.user_items(1).tolist() == []
        assert index.user_items(2).tolist() == [5]
        assert index.counts().tolist() == [3, 0, 1]
        assert index.total == 4

    def test_one_pass_build_matches_per_user_unique(self):
        """The reference is the construction it replaced: one
        ``np.unique`` per user, concatenated."""
        rng = np.random.default_rng(3)
        histories = [rng.integers(0, 40, size=rng.integers(0, 60)).tolist()
                     for _ in range(50)]
        histories[0] = []
        histories[7] = [5, 5, 5, 5]
        histories[-1] = []
        # Ids outside [0, num_items) stay with their user.
        histories[9] = [40, 0, 41, 40, -1]
        histories.append(np.array([3, 1, 3], dtype=np.int32))
        index = SeenIndex.from_histories(histories, 40)
        uniques = [np.unique(np.asarray(h, dtype=np.int64)) for h in histories]
        assert index.indptr.dtype == index.items.dtype == np.int64
        assert index.indptr.tolist() == np.cumsum([0] + [u.size for u in uniques]).tolist()
        assert np.array_equal(index.items, np.concatenate(uniques))
        only_empty = SeenIndex.from_histories([[], []], 40)
        assert only_empty.indptr.tolist() == [0, 0, 0] and only_empty.total == 0

    def test_out_of_range_users_seen_nothing(self):
        index = SeenIndex.from_histories([[1, 2]], 10)
        assert not index.contains(np.array([5, -1]), np.array([1, 2])).any()

    def test_out_of_range_items_never_collide_with_next_user(self):
        # item id == num_items would alias user+1's item 0 in the key
        # encoding; the item guard must report it unseen instead.
        index = SeenIndex.from_histories([[5], [0]], 10)
        assert not index.contains(np.array([0, 0]), np.array([10, -1])).any()
        assert index.contains(np.array([1]), np.array([0])).all()

    def test_empty_index(self):
        index = SeenIndex.from_histories([], 10)
        assert index.total == 0
        assert not index.contains(np.array([0]), np.array([3])).any()

    def test_user_set(self):
        index = SeenIndex.from_histories([[4, 4, 9]], 10)
        assert index.user_set(0) == {4, 9}
        assert index.user_set(3) == set()


class TestVectorizedSampler:
    def test_never_emits_seen_items(self):
        rng = np.random.default_rng(1)
        num_items = 50
        # Dense histories (40 of 50 items seen) force many collisions;
        # the resample budget is sized so the accept-anyway escape hatch
        # (P ~ 0.8^queue) cannot fire.
        sequences = [rng.permutation(num_items)[:40].tolist() for _ in range(30)]
        sampler = NegativeSampler(num_items, sequences, max_resample=200,
                                  rng=np.random.default_rng(2), vectorized=True)
        users = np.arange(30)
        negatives = sampler.sample(users, (30, 8))
        assert negatives.shape == (30, 8)
        for row, user in enumerate(users):
            assert not set(negatives[row].tolist()) & set(sequences[user]), row

    def test_out_of_range_user_samples_freely(self):
        sampler = NegativeSampler(5, [[0]], rng=np.random.default_rng(3),
                                  vectorized=True)
        negatives = sampler.sample(np.array([7]), (1, 4))
        assert negatives.shape == (1, 4)
        assert negatives.min() >= 0 and negatives.max() < 5

    def test_all_seen_user_accepts_after_max_resample(self):
        sampler = NegativeSampler(4, [[0, 1, 2, 3]], rng=np.random.default_rng(4),
                                  vectorized=True, max_resample=3)
        negatives = sampler.sample(np.array([0]), (1, 6))
        assert negatives.shape == (1, 6)
        assert negatives.min() >= 0 and negatives.max() < 4

    def test_shape_validation(self):
        sampler = NegativeSampler(5, [[0]], vectorized=True)
        with pytest.raises(ValueError):
            sampler.sample(np.array([0]), (2, 3))

    def test_seen_items_api_matches_legacy(self):
        sequences = [[1, 4, 4], [2]]
        fast = NegativeSampler(6, sequences, vectorized=True)
        assert fast.seen_items(0) == {1, 4}
        assert fast.seen_items(1) == {2}
        assert fast.seen_items(99) == set()

    def test_deterministic_under_fixed_seed(self):
        sequences = [[0, 1], [2, 3]]

        def draw():
            sampler = NegativeSampler(20, sequences,
                                      rng=np.random.default_rng(5), vectorized=True)
            return sampler.sample(np.array([0, 1]), (2, 5))

        assert np.array_equal(draw(), draw())


class TestMarginalDistributionParity:
    def test_chi_squared_vs_legacy(self):
        """Both samplers draw uniformly over each user's unseen items."""
        num_items = 20
        sequences = [[0, 1, 2, 3, 4, 5, 6, 7]]  # 12 unseen items
        unseen = [item for item in range(num_items) if item not in set(sequences[0])]
        draws = 12_000
        users = np.zeros(draws // 4, dtype=np.int64)

        def marginal(vectorized, seed):
            sampler = NegativeSampler(num_items, sequences,
                                      rng=np.random.default_rng(seed),
                                      vectorized=vectorized)
            samples = sampler.sample(users, (len(users), 4)).reshape(-1)
            counts = np.bincount(samples, minlength=num_items)
            assert counts[sequences[0]].sum() == 0  # nothing seen emitted
            return counts[unseen]

        observed_fast = marginal(True, seed=6)
        observed_legacy = marginal(False, seed=7)

        expected = np.full(len(unseen), draws / len(unseen))
        # Chi-squared goodness of fit against the uniform-over-unseen
        # marginal, df = 11; 24.7 is the 99th percentile, so a correct
        # sampler fails with p < 0.01 (seeds are fixed -> deterministic).
        for observed in (observed_fast, observed_legacy):
            statistic = float(((observed - expected) ** 2 / expected).sum())
            assert statistic < 24.7, statistic

        # And the two samplers match each other (two-sample chi-squared).
        combined = observed_fast + observed_legacy
        expected_pair = combined / 2.0
        statistic = float(
            ((observed_fast - expected_pair) ** 2 / expected_pair).sum()
            + ((observed_legacy - expected_pair) ** 2 / expected_pair).sum()
        )
        assert statistic < 24.7, statistic
