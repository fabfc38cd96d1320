"""Beyond-accuracy properties of the recommendation lists.

The paper's Section 7.2 traces HGN's weakly learned attention weights back
to item-frequency skew; the natural complementary question is how skewed
the *recommendations* themselves are.  This module measures that skew for
any model: catalogue coverage, the Gini concentration of recommendation
exposure, the average popularity of recommended items (popularity bias)
and novelty (mean self-information of the recommended items under the
training popularity distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.splits import DatasetSplit
from repro.evaluation.evaluator import check_sweep_arguments
from repro.models.base import SequentialRecommender

__all__ = [
    "BeyondAccuracyReport",
    "catalogue_coverage",
    "gini_coefficient",
    "average_recommendation_popularity",
    "novelty",
    "beyond_accuracy_report",
]


@dataclass(frozen=True)
class BeyondAccuracyReport:
    """Aggregate beyond-accuracy statistics of a model's top-k lists."""

    k: int
    num_users: int
    coverage: float
    gini: float
    average_popularity: float
    novelty: float

    def as_row(self) -> dict[str, float]:
        """Flat dict for report tables."""
        return {
            "coverage": self.coverage,
            "gini": self.gini,
            "avg_popularity": self.average_popularity,
            "novelty": self.novelty,
        }


def catalogue_coverage(recommendations: np.ndarray, num_items: int) -> float:
    """Fraction of the catalogue that appears in at least one top-k list."""
    if num_items < 1:
        raise ValueError("num_items must be positive")
    recommended = np.unique(np.asarray(recommendations).ravel())
    recommended = recommended[(recommended >= 0) & (recommended < num_items)]
    return len(recommended) / num_items


def gini_coefficient(exposure_counts: np.ndarray) -> float:
    """Gini concentration of recommendation exposure over items.

    0 means every item is recommended equally often; values close to 1
    mean a few items absorb almost all recommendations.
    """
    counts = np.asarray(exposure_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("exposure_counts must be a non-empty 1-D array")
    if np.any(counts < 0):
        raise ValueError("exposure counts cannot be negative")
    total = counts.sum()
    if total == 0:
        return 0.0
    sorted_counts = np.sort(counts)
    n = counts.size
    cumulative = np.cumsum(sorted_counts)
    # Standard formula: G = (n + 1 - 2 * sum_i cum_i / total) / n
    return float((n + 1 - 2.0 * cumulative.sum() / total) / n)


def average_recommendation_popularity(recommendations: np.ndarray,
                                      item_frequencies: np.ndarray) -> float:
    """Mean training-set frequency of the recommended items (popularity bias)."""
    frequencies = np.asarray(item_frequencies, dtype=np.float64)
    items = np.asarray(recommendations, dtype=np.int64).ravel()
    if items.size == 0:
        return 0.0
    if items.min() < 0 or items.max() >= frequencies.size:
        raise ValueError("recommendation ids outside the frequency table")
    return float(frequencies[items].mean())


def novelty(recommendations: np.ndarray, item_frequencies: np.ndarray) -> float:
    """Mean self-information ``-log2 p(item)`` of recommended items.

    ``p(item)`` is the item's share of training interactions; rare
    recommendations score high.  Items never seen in training contribute
    with the smallest observed probability (they cannot be assigned zero).
    """
    frequencies = np.asarray(item_frequencies, dtype=np.float64)
    total = frequencies.sum()
    if total <= 0:
        raise ValueError("item_frequencies must contain at least one interaction")
    probabilities = frequencies / total
    floor = probabilities[probabilities > 0].min()
    probabilities = np.maximum(probabilities, floor)
    items = np.asarray(recommendations, dtype=np.int64).ravel()
    if items.size == 0:
        return 0.0
    return float(-np.log2(probabilities[items]).mean())


def beyond_accuracy_report(model: SequentialRecommender, split: DatasetSplit,
                           k: int = 10, batch_size: int = 256,
                           n_workers: int = 0) -> BeyondAccuracyReport:
    """Compute the beyond-accuracy statistics of ``model`` on ``split``.

    The model recommends ``k`` items to every user with test items, using
    the paper's testing protocol (inputs are the last training+validation
    items, already-seen items are excluded from the ranking), scoring
    ``batch_size`` users per block (at least 1).  With ``n_workers > 1``
    the top-k sweep runs on that many threads over user ranges of one
    engine (bit-identical recommendations); ``0`` and ``1`` run serially.
    """
    check_sweep_arguments(batch_size, n_workers)
    if k < 1:
        raise ValueError("k must be positive")
    histories = split.train_plus_valid()
    users = split.users_with_test_items()
    if not users:
        raise ValueError("the split has no users with test items")

    item_frequencies = np.zeros(split.num_items, dtype=np.float64)
    for seq in split.train:
        if seq:
            np.add.at(item_frequencies, np.asarray(seq, dtype=np.int64), 1.0)

    from repro.serving.engine import ScoringEngine, threaded_top_k_scored

    engine = ScoringEngine(model, histories, exclude_seen=True,
                           micro_batch_size=batch_size, copy_weights=False)
    recommendations, _ = threaded_top_k_scored(engine, users, k, n_workers)

    exposure = np.zeros(split.num_items, dtype=np.float64)
    np.add.at(exposure, recommendations.ravel(), 1.0)

    return BeyondAccuracyReport(
        k=k,
        num_users=len(users),
        coverage=catalogue_coverage(recommendations, split.num_items),
        gini=gini_coefficient(exposure),
        average_popularity=average_recommendation_popularity(recommendations, item_frequencies),
        novelty=novelty(recommendations, item_frequencies),
    )
