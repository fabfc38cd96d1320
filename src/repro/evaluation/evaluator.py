"""Full-ranking evaluation protocol (paper Sections 5.3-5.4).

For every user with test items, the model receives the user's most recent
``input_length`` training items (left-padded when the history is shorter),
scores the whole catalogue, the items already interacted with during
training are excluded, and Recall@k / NDCG@k are computed against the
user's test items.  The reported value of each metric is the mean over all
evaluable users, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.data.splits import DatasetSplit
from repro.evaluation.metrics import batch_ndcg_at_k, batch_recall_at_k
from repro.models.base import SequentialRecommender

__all__ = ["RankingEvaluator", "EvaluationResult"]


def check_sweep_arguments(batch_size: int, n_workers: int = 0) -> None:
    """Refuse a sweep's ``batch_size`` below 1 or ``n_workers`` below 0."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if n_workers < 0:
        raise ValueError(f"n_workers must be at least 0, got {n_workers}")


@dataclass
class EvaluationResult:
    """Aggregated metrics plus the per-user values used for significance tests."""

    metrics: dict[str, float] = field(default_factory=dict)
    per_user: dict[str, np.ndarray] = field(default_factory=dict)
    num_users_evaluated: int = 0

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def as_row(self, prefix: str = "") -> dict[str, float]:
        """Metrics as a flat dict (optionally prefixed), for report tables."""
        return {f"{prefix}{name}": value for name, value in self.metrics.items()}


class RankingEvaluator:
    """Evaluate a model on one :class:`DatasetSplit`.

    Parameters
    ----------
    split:
        The experimental-setting split to evaluate on.
    ks:
        Cutoffs; the paper reports k = 5 and 10.
    mode:
        ``"test"`` — inputs are the last items of train+validation and the
        targets are the test items (the paper's testing protocol);
        ``"validation"`` — inputs come from the training split only and
        targets are the validation items (used for model selection and
        grid search).
    exclude_seen:
        Exclude items already interacted with in the input history from
        the ranking (the protocol of HGN/Caser that the paper follows).
    batch_size:
        Number of users scored per forward pass (at least 1).
    n_workers:
        Fan the scoring sweep out over this many threads, each ranking a
        contiguous user range of the one in-process engine
        (:func:`~repro.serving.engine.threaded_top_k_scored`).  ``0`` and
        ``1`` run serially; results are bit-identical either way.
    """

    def __init__(self, split: DatasetSplit, ks: tuple[int, ...] = (5, 10),
                 mode: str = "test", exclude_seen: bool = True,
                 batch_size: int = 256, n_workers: int = 0):
        if mode not in ("test", "validation"):
            raise ValueError("mode must be 'test' or 'validation'")
        if not ks or any(k < 1 for k in ks):
            raise ValueError("ks must contain positive cutoffs")
        check_sweep_arguments(batch_size, n_workers)
        self.split = split
        self.ks = tuple(sorted(ks))
        self.mode = mode
        self.exclude_seen = exclude_seen
        self.batch_size = batch_size
        self.n_workers = n_workers

        if mode == "test":
            self._histories = split.train_plus_valid()
            self._targets = split.test
        else:
            self._histories = split.train
            self._targets = split.valid
        self._users = [u for u, target in enumerate(self._targets) if target]
        self._target_keys, self._target_counts = self._index_targets()

    def _index_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys ``row * num_items + item`` of every evaluable user's
        unique targets (``row`` = position in ``_users``), and the number
        of unique targets per row.

        Raises ``ValueError`` for a target id outside the catalogue: it
        would otherwise alias a neighbouring row's key.
        """
        num_items = self.split.num_items
        lengths = np.fromiter((len(self._targets[user]) for user in self._users),
                              dtype=np.int64, count=len(self._users))
        items = np.fromiter(chain.from_iterable(self._targets[user] for user in self._users),
                            dtype=np.int64, count=int(lengths.sum()))
        rows = np.repeat(np.arange(len(self._users), dtype=np.int64), lengths)
        invalid = np.flatnonzero((items < 0) | (items >= num_items))
        if invalid.size:
            position = invalid[0]
            raise ValueError(f"user {self._users[rows[position]]} has target item id "
                             f"{int(items[position])} outside [0, {num_items})")
        keys = np.unique(rows * num_items + items)
        return keys, np.bincount(keys // num_items, minlength=len(self._users))

    @property
    def num_evaluable_users(self) -> int:
        """Users that have at least one target item."""
        return len(self._users)

    def evaluate(self, model: SequentialRecommender) -> EvaluationResult:
        """Compute Recall@k and NDCG@k for ``model`` on this split.

        Scoring funnels through one :class:`~repro.serving.engine.ScoringEngine`
        (cached padded histories, vectorized seen-item masking) and one
        top-k sweep over every evaluable user.  Hits are one key lookup of
        the ``(users, max k)`` ranked-id matrix in the sorted target keys
        built at construction — no dense ``(users, num_items)`` truth
        matrix and no per-user Python loop.  With ``n_workers > 1`` the
        sweep runs on threads over user ranges (bit-identical results).
        """
        from repro.serving.engine import ScoringEngine, threaded_top_k_scored

        if model.num_items > self.split.num_items:
            # A ranked id past the split's catalogue would alias the next
            # row's target keys.
            raise ValueError(f"model ranks {model.num_items} items but the split "
                             f"has {self.split.num_items}")
        model.eval()
        result = EvaluationResult(num_users_evaluated=len(self._users))
        if not self._users:
            result.metrics = {f"{metric}@{k}": 0.0 for metric in ("Recall", "NDCG") for k in self.ks}
            return result

        engine = ScoringEngine(model, self._histories, exclude_seen=self.exclude_seen,
                               micro_batch_size=self.batch_size, copy_weights=False)
        ranked, _ = threaded_top_k_scored(engine, self._users, max(self.ks), self.n_workers)
        rows = np.arange(len(self._users), dtype=np.int64)[:, None]
        probes = rows * self.split.num_items + ranked
        keys = self._target_keys
        found = np.minimum(np.searchsorted(keys, probes), keys.size - 1)
        hits = keys[found] == probes
        result.per_user = {
            f"{name}@{k}": metric(hits, self._target_counts, k)
            for name, metric in (("Recall", batch_recall_at_k), ("NDCG", batch_ndcg_at_k))
            for k in self.ks
        }
        result.metrics = {name: float(values.mean()) for name, values in result.per_user.items()}
        return result

    def validation_metric(self, model: SequentialRecommender,
                          metric: str = "Recall@10") -> float:
        """Single scalar used for model selection (paper: Recall@10)."""
        return self.evaluate(model).metrics[metric]
