"""Sampled-negative evaluation protocol.

The paper evaluates against the *full* catalogue (Section 5.4), which is
the most faithful protocol but linear in the number of items.  A widely
used cheaper alternative — and one the "are we really making progress"
literature the paper cites has criticized for biasing comparisons — ranks
each test item only against ``num_negatives`` sampled non-interacted
items.  Implementing both protocols lets that bias be measured directly on
the synthetic analogues: the full-ranking evaluator is the reference, and
this sampled evaluator is the approximation whose distortion can be
quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.splits import DatasetSplit
from repro.evaluation.evaluator import check_sweep_arguments
from repro.models.base import SequentialRecommender

__all__ = ["SampledRankingEvaluator", "SampledEvaluationResult"]


@dataclass
class SampledEvaluationResult:
    """Aggregated sampled-protocol metrics plus per-(user, test item) values."""

    metrics: dict[str, float] = field(default_factory=dict)
    per_instance: dict[str, np.ndarray] = field(default_factory=dict)
    num_instances: int = 0

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


class SampledRankingEvaluator:
    """Rank each test item against a fixed number of sampled negatives.

    Parameters
    ----------
    split:
        The experimental-setting split to evaluate on.
    ks:
        Cutoffs for HitRate@k / NDCG@k over the sampled candidate list.
    num_negatives:
        Sampled non-interacted items per test item (the classical protocol
        uses 100).
    max_test_items_per_user:
        Cap on test items evaluated per user, to keep the protocol cheap
        on long test sequences; ``None`` evaluates all of them.
    seed:
        Seed of the negative-sampling generator.
    """

    def __init__(self, split: DatasetSplit, ks: tuple[int, ...] = (5, 10),
                 num_negatives: int = 100,
                 max_test_items_per_user: int | None = None,
                 seed: int = 0, batch_size: int = 256):
        if not ks or any(k < 1 for k in ks):
            raise ValueError("ks must contain positive cutoffs")
        if num_negatives < 1:
            raise ValueError("num_negatives must be positive")
        if max_test_items_per_user is not None and max_test_items_per_user < 1:
            raise ValueError("max_test_items_per_user must be positive or None")
        check_sweep_arguments(batch_size)
        self.split = split
        self.ks = tuple(sorted(ks))
        self.num_negatives = num_negatives
        self.max_test_items_per_user = max_test_items_per_user
        self.seed = seed
        self.batch_size = batch_size
        self._histories = split.train_plus_valid()

    # ------------------------------------------------------------------ #
    # Candidate construction
    # ------------------------------------------------------------------ #
    def _sample_negatives(self, user: int, rng: np.random.Generator) -> np.ndarray:
        """Sample non-interacted items for ``user`` (best effort on dense users)."""
        seen = set(self._histories[user]) | set(self.split.test[user])
        negatives = []
        attempts = 0
        limit = 50 * self.num_negatives
        while len(negatives) < self.num_negatives and attempts < limit:
            candidate = int(rng.integers(0, self.split.num_items))
            attempts += 1
            if candidate in seen:
                continue
            negatives.append(candidate)
            seen.add(candidate)
        while len(negatives) < self.num_negatives:
            negatives.append(int(rng.integers(0, self.split.num_items)))
        return np.asarray(negatives, dtype=np.int64)

    def _instances(self) -> list[tuple[int, int]]:
        """(user, test item) pairs evaluated under this protocol."""
        pairs = []
        for user, test_items in enumerate(self.split.test):
            items = test_items[: self.max_test_items_per_user] \
                if self.max_test_items_per_user else test_items
            pairs.extend((user, item) for item in items)
        return pairs

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, model: SequentialRecommender) -> SampledEvaluationResult:
        """HitRate@k, NDCG@k and MRR over sampled candidate lists.

        Scoring goes through the shared :class:`ScoringEngine`: users with
        several test items appear in many (user, item) pairs, and the
        engine's representation cache scores each user's history exactly
        once across all of them.
        """
        model.eval()
        rng = np.random.default_rng(self.seed)
        pairs = self._instances()
        result = SampledEvaluationResult(num_instances=len(pairs))
        metric_names = [f"HitRate@{k}" for k in self.ks] + [f"NDCG@{k}" for k in self.ks] + ["MRR"]
        if not pairs:
            result.metrics = {name: 0.0 for name in metric_names}
            return result

        from repro.serving.engine import ScoringEngine

        engine = ScoringEngine(model, self._histories, exclude_seen=False,
                               micro_batch_size=self.batch_size,
                               copy_weights=False)
        per_instance: dict[str, list[float]] = {name: [] for name in metric_names}
        for start in range(0, len(pairs), self.batch_size):
            batch = pairs[start:start + self.batch_size]
            users = np.asarray([user for user, _ in batch], dtype=np.int64)
            scores = engine.score_all(users)
            for row, (user, positive) in enumerate(batch):
                negatives = self._sample_negatives(user, rng)
                candidate_scores = scores[row, np.concatenate([[positive], negatives])]
                # Rank of the positive among the candidates (0 = best).
                rank = int((candidate_scores > candidate_scores[0]).sum())
                for k in self.ks:
                    hit = 1.0 if rank < k else 0.0
                    per_instance[f"HitRate@{k}"].append(hit)
                    per_instance[f"NDCG@{k}"].append(
                        1.0 / np.log2(rank + 2.0) if rank < k else 0.0
                    )
                per_instance["MRR"].append(1.0 / (rank + 1.0))

        result.per_instance = {name: np.asarray(values) for name, values in per_instance.items()}
        result.metrics = {name: float(values.mean()) for name, values in result.per_instance.items()}
        return result
