"""``top_k_items`` against a full stable sort.

The kernel dispatches on the block shape (two-stage threshold selection
for multi-row blocks over large catalogues, ``argpartition`` otherwise)
and falls back when the threshold cannot prune.  Whatever runs, the
result must equal ``np.argsort(-scores, kind="stable")[:, :k]``: score
descending, ties by ascending item id, NaN last.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import ranking
from repro.evaluation.ranking import top_k_items

pytestmark = pytest.mark.fast

MIN_ROWS, MIN_ITEMS, GROUPS = ranking._MIN_ROWS, ranking._MIN_ITEMS, ranking._GROUPS
K_LIMIT = GROUPS // 4

ROW_COUNTS = (1, MIN_ROWS - 1, MIN_ROWS, MIN_ROWS + 1, 256)
#: Below, at and above the catalogue cut-off, a size the group count does
#: not divide, and a catalogue smaller than one group.
CATALOGUE_SIZES = (GROUPS - 56, MIN_ITEMS - 1, MIN_ITEMS, MIN_ITEMS + 1, 5000)


def reference(scores: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def block(rng, rows: int, num_items: int, dtype, strided: bool) -> np.ndarray:
    """Random scores, C-contiguous or as the engine passes them: the
    ``[:, :num_items]`` view of a ``(rows, num_items + 1)`` product."""
    scores = rng.standard_normal((rows, num_items + 1)).astype(dtype)
    if strided:
        return scores[:, :num_items]
    return np.ascontiguousarray(scores[:, :num_items])


def check(scores: np.ndarray, k: int) -> np.ndarray:
    ranked = top_k_items(scores, k)
    expected = reference(scores, k)
    assert ranked.dtype == np.int64
    assert np.array_equal(ranked, expected)
    return ranked


def test_catalogue_sizes_cover_the_dispatch():
    assert 5000 % GROUPS and MIN_ITEMS % GROUPS == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_matches_stable_sort_across_shapes(dtype, strided, rows):
    rng = np.random.default_rng([rows, strided])
    for num_items in CATALOGUE_SIZES:
        scores = block(rng, rows, num_items, dtype, strided)
        assert rows == 1 or scores.flags.c_contiguous != strided
        order = np.argsort(-scores, axis=1, kind="stable")
        for k in (1, 10, K_LIMIT, K_LIMIT + 1, num_items, num_items + 3):
            assert np.array_equal(top_k_items(scores, k), order[:, :k])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_threshold_path_runs_where_intended(dtype):
    """The shape tests above must not all be served by the fallback."""
    rng = np.random.default_rng(3)
    for rows, num_items in ((MIN_ROWS, MIN_ITEMS), (256, 5000)):
        scores = block(rng, rows, num_items, dtype, strided=True)
        for k in (1, 10, K_LIMIT):
            ranked = ranking._threshold_top_k(scores, k)
            assert ranked is not None
            assert np.array_equal(ranked, reference(scores, k))


@pytest.mark.parametrize("rows,num_items", [(1, 40), (5, 5000), (64, 5000)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ties_at_the_boundary_come_out_by_ascending_id(rows, num_items, dtype):
    rng = np.random.default_rng(4)
    scores = rng.standard_normal((rows, num_items)).astype(dtype)
    # Five items ahead of everything, then a plateau of twelve straddling
    # rank ten, placed at random ids.
    for row in range(rows):
        ids = rng.permutation(num_items)[:17]
        scores[row, ids[:5]] = 9.0 + np.arange(5)
        scores[row, ids[5:]] = 7.0
        ranked = top_k_items(scores[row:row + 1], 10)[0]
        assert ranked[:5].tolist() == ids[:5][::-1].tolist()
        assert ranked[5:].tolist() == np.sort(ids[5:])[:5].tolist()
    check(scores, 10)
    check(scores, 5)    # boundary inside the distinct head
    check(scores, 17)   # boundary at the end of the plateau


@pytest.mark.parametrize("rows", [1, MIN_ROWS, 64])
def test_quantized_scores(rows):
    """Few distinct values: ties inside, across and beyond the top k."""
    rng = np.random.default_rng(5)
    for levels in (2, 5, 50):
        scores = rng.integers(0, levels, (rows, 5000)).astype(np.float32)
        for k in (1, 10, K_LIMIT):
            check(scores, k)


@pytest.mark.parametrize("rows,num_items", [(1, 100), (MIN_ROWS, MIN_ITEMS), (32, 5000)])
def test_constant_rows(rows, num_items):
    scores = np.full((rows, num_items), 0.25, dtype=np.float32)
    assert top_k_items(scores, 10).tolist() == [list(range(10))] * rows
    if rows >= MIN_ROWS and num_items >= MIN_ITEMS:
        assert ranking._threshold_top_k(scores, 10) is None
    # One constant row among ordinary ones sends the block to the fallback.
    mixed = np.random.default_rng(6).standard_normal((rows, num_items))
    mixed[0] = -1.0
    check(mixed, 10)


@pytest.mark.parametrize("rows", [1, MIN_ROWS, 64])
def test_fewer_than_k_finite_scores_after_masking(rows):
    rng = np.random.default_rng(7)
    scores = np.full((rows, 5000), -np.inf, dtype=np.float32)
    for row in range(rows):
        finite = rng.permutation(5000)[:row % 10]  # 0..9 finite scores
        scores[row, finite] = rng.standard_normal(finite.size)
    ranked = check(scores, 10)
    for row in range(rows):
        count = row % 10
        assert np.all(np.isfinite(scores[row, ranked[row, :count]]))
        assert ranked[row, count:].tolist() == sorted(ranked[row, count:].tolist())


@pytest.mark.parametrize("rows", [1, MIN_ROWS, 64])
def test_inf_heavy_rows(rows):
    """Most of the catalogue masked out, k or more finite scores left."""
    rng = np.random.default_rng(8)
    scores = block(rng, rows, 5000, np.float32, strided=True)
    scores[rng.random(scores.shape) < 0.97] = -np.inf
    assert np.isfinite(scores).sum(axis=1).min() >= 10
    check(scores, 10)
    # Finite scores confined to two groups' worth of ids.
    scores[:, 2 * GROUPS // 3:] = -np.inf
    check(scores, 10)
    scores[0, 0] = np.inf
    check(scores, 10)


@pytest.mark.parametrize("rows", [1, MIN_ROWS, 64])
def test_nan_rows_rank_nan_last(rows):
    """The pre-existing behaviour: ``-scores`` sorts NaN behind everything."""
    rng = np.random.default_rng(9)
    scores = block(rng, rows, 5000, np.float64, strided=False)
    scores[::2, ::3] = np.nan            # NaN in every group of the row
    scores[rows // 2, :4995] = np.nan    # fewer than k numbers left
    scores[-1, 17] = np.nan              # a single NaN
    for k in (1, 10):
        ranked = check(scores, k)
        picked = np.take_along_axis(scores, ranked, axis=1)
        numbers = (~np.isnan(scores)).sum(axis=1)
        for row in range(rows):
            assert not np.isnan(picked[row, :min(k, numbers[row])]).any()
    all_nan = np.full((rows, 5000), np.nan)
    assert top_k_items(all_nan, 3).tolist() == [[0, 1, 2]] * rows


def test_excluded_sets_and_integer_scores():
    rng = np.random.default_rng(10)
    scores = block(rng, MIN_ROWS, MIN_ITEMS, np.float32, strided=True)
    excluded = [set(rng.integers(0, MIN_ITEMS, 50).tolist()) for _ in range(MIN_ROWS)]
    masked = scores.astype(np.float64)
    for row, items in enumerate(excluded):
        masked[row, list(items)] = -np.inf
    assert np.array_equal(top_k_items(scores, 10, excluded=excluded),
                          reference(masked, 10))
    counts = rng.integers(0, 1000, (MIN_ROWS, MIN_ITEMS))
    check(counts, 10)
