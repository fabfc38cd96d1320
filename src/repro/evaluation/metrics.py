"""Ranking metrics: Recall@k and NDCG@k (paper Section 5.4).

For one user:

* ``Recall@k`` — fraction of the user's ground-truth test items that
  appear among the top-k recommendations.
* ``NDCG@k`` — discounted cumulative gain of the top-k list (gain 1 when
  the recommended item is a test item, 0 otherwise), normalized by the
  ideal DCG for that user (all test items ranked first).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["recall_at_k", "ndcg_at_k", "hit_rate_at_k", "average_precision_at_k",
           "precision_at_k", "mrr_at_k", "truth_matrix", "batch_hits",
           "batch_recall_at_k", "batch_ndcg_at_k"]


def _validate(recommended: Sequence[int], k: int) -> list[int]:
    if k < 1:
        raise ValueError("k must be positive")
    return list(recommended)[:k]


def recall_at_k(recommended: Sequence[int], ground_truth: Sequence[int], k: int) -> float:
    """Recall@k for one user; 0.0 when the user has no test items."""
    top = _validate(recommended, k)
    truth = set(ground_truth)
    if not truth:
        return 0.0
    hits = sum(1 for item in top if item in truth)
    return hits / len(truth)


def ndcg_at_k(recommended: Sequence[int], ground_truth: Sequence[int], k: int) -> float:
    """NDCG@k with binary gains for one user; 0.0 without test items."""
    top = _validate(recommended, k)
    truth = set(ground_truth)
    if not truth:
        return 0.0
    dcg = 0.0
    for position, item in enumerate(top):
        if item in truth:
            dcg += 1.0 / np.log2(position + 2.0)
    ideal_hits = min(len(truth), k)
    ideal = sum(1.0 / np.log2(position + 2.0) for position in range(ideal_hits))
    return dcg / ideal


def hit_rate_at_k(recommended: Sequence[int], ground_truth: Sequence[int], k: int) -> float:
    """1.0 if any test item appears in the top-k, else 0.0."""
    top = _validate(recommended, k)
    truth = set(ground_truth)
    if not truth:
        return 0.0
    return 1.0 if any(item in truth for item in top) else 0.0


def average_precision_at_k(recommended: Sequence[int], ground_truth: Sequence[int], k: int) -> float:
    """AP@k with binary relevance (extra metric, not in the paper's tables)."""
    top = _validate(recommended, k)
    truth = set(ground_truth)
    if not truth:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for position, item in enumerate(top):
        if item in truth:
            hits += 1
            precision_sum += hits / (position + 1.0)
    return precision_sum / min(len(truth), k)


def precision_at_k(recommended: Sequence[int], ground_truth: Sequence[int], k: int) -> float:
    """Precision@k — fraction of the top-k recommendations that are test items."""
    top = _validate(recommended, k)
    truth = set(ground_truth)
    if not truth or not top:
        return 0.0
    hits = sum(1 for item in top if item in truth)
    return hits / k


# ---------------------------------------------------------------------- #
# Vectorized batch aggregation (used by the ranking evaluator)
# ---------------------------------------------------------------------- #
def truth_matrix(targets: Sequence[Sequence[int]], num_items: int) -> np.ndarray:
    """Boolean ``(B, num_items)`` membership matrix of the target items.

    Duplicate target items collapse to one entry, matching the ``set``
    semantics of the scalar metrics above.  Only ``bench/offline.py``'s
    ``evaluation.metrics_s`` probe and the tests' dense reference call
    this and :func:`batch_hits`; the ranking evaluator looks its hits up
    in sorted target keys instead.
    """
    truth = np.zeros((len(targets), num_items), dtype=bool)
    for row, items in enumerate(targets):
        if len(items):
            truth[row, np.asarray(items, dtype=np.int64)] = True
    return truth


def batch_hits(ranked: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Boolean ``(B, K)`` matrix — True where the ranked item is a target.

    ``ranked`` is a ``(B, K)`` matrix of recommended item ids (best first,
    e.g. from :func:`~repro.evaluation.ranking.top_k_items`) and ``truth``
    a ``(B, num_items)`` membership matrix from :func:`truth_matrix`.
    Reached only by ``bench/offline.py``'s metric probe and the tests.
    """
    rows = np.arange(ranked.shape[0])[:, None]
    return truth[rows, ranked]


def batch_recall_at_k(hits: np.ndarray, truth_counts: np.ndarray, k: int) -> np.ndarray:
    """Per-user Recall@k from a hit matrix; 0.0 where a user has no targets."""
    if k < 1:
        raise ValueError("k must be positive")
    counts = np.asarray(truth_counts, dtype=np.float64)
    hit_counts = hits[:, :k].sum(axis=1, dtype=np.float64)
    return np.where(counts > 0, hit_counts / np.maximum(counts, 1.0), 0.0)


def batch_ndcg_at_k(hits: np.ndarray, truth_counts: np.ndarray, k: int) -> np.ndarray:
    """Per-user NDCG@k (binary gains) from a hit matrix."""
    if k < 1:
        raise ValueError("k must be positive")
    counts = np.asarray(truth_counts, dtype=np.int64)
    width = min(k, hits.shape[1])
    discounts = 1.0 / np.log2(np.arange(max(k, width)) + 2.0)
    dcg = (hits[:, :width] * discounts[:width]).sum(axis=1)
    # Ideal DCG places min(#targets, k) hits at the top of the list.
    ideal_cumulative = np.concatenate([[0.0], np.cumsum(discounts[:k])])
    ideal = ideal_cumulative[np.minimum(counts, k)]
    return np.where(counts > 0, dcg / np.maximum(ideal, 1e-12), 0.0)


def mrr_at_k(recommended: Sequence[int], ground_truth: Sequence[int], k: int) -> float:
    """MRR@k — reciprocal rank of the first correctly recommended item."""
    top = _validate(recommended, k)
    truth = set(ground_truth)
    if not truth:
        return 0.0
    for position, item in enumerate(top):
        if item in truth:
            return 1.0 / (position + 1.0)
    return 0.0
