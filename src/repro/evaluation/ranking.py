"""Helpers for turning model scores into ranked recommendation lists."""

from __future__ import annotations

import numpy as np

__all__ = ["rank_items", "top_k_items", "exclude_items"]


def exclude_items(scores: np.ndarray, excluded: list[set[int]] | None) -> np.ndarray:
    """Return a copy of ``scores`` with excluded items pushed to -inf.

    Following the paper's protocol (and HGN/Caser), items the user already
    interacted with during training are not recommended again.
    """
    result = np.array(scores, dtype=np.float64, copy=True)
    if excluded is None:
        return result
    if len(excluded) != len(result):
        raise ValueError("one exclusion set per score row is required")
    for row, items in enumerate(excluded):
        if items:
            result[row, list(items)] = -np.inf
    return result


#: Dispatch cut-offs of :func:`top_k_items`, measured on float32 and
#: float64 blocks: below eight rows or 4096 items the fixed cost of the
#: threshold kernel's extra passes exceeds what skipping the partition
#: saves (a single 20 000-item row: 85 us against 34 us).
_MIN_ROWS = 8
_MIN_ITEMS = 4096
#: Strided groups per row.  The k-th largest of ``_GROUPS`` group maxima
#: admits about ``k + k*k / (2 * _GROUPS)`` candidates per row, so the
#: bound stays tight while ``k <= _GROUPS // 4``.
_GROUPS = 256
#: Candidates per row (as a multiple of ``k``) above which a block is
#: too heavily tied for the threshold to prune it.
_MAX_CANDIDATE_FACTOR = 4


def top_k_items(scores: np.ndarray, k: int,
                excluded: list[set[int]] | None = None) -> np.ndarray:
    """Indices of the top-k items per row, best first.

    The order is score descending, ties by ascending item id, NaN last:
    exactly ``np.argsort(-scores, kind="stable")[:, :k]``, at
    ``O(n + k log k)`` per row rather than a full ``O(n log n)`` sort —
    this is what makes the run-time comparison of Table 14 meaningful for
    large catalogues.

    Multi-row blocks over large catalogues (at least ``_MIN_ROWS`` rows
    and ``_MIN_ITEMS`` items, ``k <= _GROUPS // 4``, floating scores) go
    through a two-stage threshold selection (:func:`_threshold_top_k`);
    single rows, small catalogues and every block the threshold cannot
    prune go through ``argpartition`` (:func:`_partition_top_k`).  Which
    one runs depends on the input alone and never changes the result.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if excluded is not None:
        scores = exclude_items(scores, excluded)
    rows, num_items = scores.shape
    k = min(k, num_items)
    if (rows >= _MIN_ROWS and num_items >= _MIN_ITEMS and 4 * k <= _GROUPS
            and np.issubdtype(scores.dtype, np.floating)):
        ranked = _threshold_top_k(scores, k)
        if ranked is not None:
            return ranked
    return _partition_top_k(scores, k)


def _threshold_top_k(scores: np.ndarray, k: int) -> np.ndarray | None:
    """Two-stage exact top-k of a block, or ``None`` where it cannot prune.

    Stage one views every row as ``depth x _GROUPS`` strided groups and
    takes the group maxima (a contiguous elementwise maximum, not a
    per-row reduce).  The k-th largest group maximum is a lower bound on
    the k-th largest score, because ``k`` distinct items reach it.  Stage
    two keeps the items at or above that bound — about ``k`` per row —
    and ranks only those.

    Returns ``None`` (the caller falls back to the partition) when the
    bound is not finite, when a row has fewer than ``k`` candidates (NaN
    group maxima hide finite scores; fewer than ``k`` finite scores) or
    when a row has more than ``_MAX_CANDIDATE_FACTOR * k`` candidates
    (constant or heavily tied rows).
    """
    rows, num_items = scores.shape
    body = num_items // _GROUPS * _GROUPS
    maxima = scores[:, :body].reshape(rows, -1, _GROUPS).max(axis=1)
    if body < num_items:
        head = maxima[:, :num_items - body]
        np.maximum(head, scores[:, body:], out=head)
    threshold = np.partition(maxima, _GROUPS - k, axis=1)[:, _GROUPS - k]
    if not np.isfinite(threshold).all():
        return None
    # flatnonzero on the raveled mask: 2-D nonzero is ten times slower.
    flat = np.flatnonzero((scores >= threshold[:, None]).ravel())
    owner, ids = np.divmod(flat, num_items)
    counts = np.bincount(owner, minlength=rows)
    width = int(counts.max())
    if counts.min() < k or width > _MAX_CANDIDATE_FACTOR * k:
        return None
    # Candidates arrive row by row in ascending id; padded to a
    # rectangle with -inf they keep that order under the stable sort.
    slot = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    padded_scores = np.full((rows, width), -np.inf, dtype=scores.dtype)
    padded_ids = np.zeros((rows, width), dtype=np.int64)
    padded_scores[owner, slot] = scores[owner, ids]
    padded_ids[owner, slot] = ids
    order = np.argsort(-padded_scores, axis=1, kind="stable")[:, :k]
    return padded_ids[np.arange(rows)[:, None], order]


def _partition_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``argpartition`` + a local sort, with the tie rule enforced."""
    rows, num_items = scores.shape
    row_indices = np.arange(rows)[:, None]
    # One item more than asked for, so that a tie at the boundary shows.
    # The largest end an ascending partition, with no negated copy of
    # the block (NaN sorts last, so a row's NaNs land among them).  Ids
    # ascending, so that the stable sort breaks ties by id.
    rest = max(num_items - k - 1, 0)
    picked = np.sort(np.argpartition(scores, rest, axis=1)[:, rest:], axis=1)
    values = scores[row_indices, picked]
    order = np.argsort(-values, axis=1, kind="stable")
    ranked = picked[row_indices, order[:, :k]]
    if k < num_items:
        # Which of several items tied at the k-th score argpartition
        # picks is arbitrary, so a row is settled only when its k-th
        # score is strictly above the next one.  The others (ties across
        # the boundary, NaN scores) are sorted in full.
        boundary = values[row_indices, order[:, k - 1:]]
        settled = boundary[:, 0] > boundary[:, 1]
        if not settled.all():
            unsettled = np.flatnonzero(~settled)
            ranked[unsettled] = np.argsort(-scores[unsettled], axis=1,
                                           kind="stable")[:, :k]
    return ranked


def rank_items(scores: np.ndarray, excluded: list[set[int]] | None = None) -> np.ndarray:
    """Full ranking of all items per row (best first)."""
    if excluded is not None:
        scores = exclude_items(scores, excluded)
    return np.argsort(-scores, axis=1, kind="stable")
