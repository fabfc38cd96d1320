"""Indexed (sparse) embedding gradients and the sparse-aware optimizers.

The acceptance property of the sparse path is *bit-equivalence after
densification*: running the identical forward/backward once with dense
scatters and once with :func:`sparse_embedding_grads` must produce the
same gradients to the last bit (both accumulate contributions in
occurrence order), and a single optimizer step from identical state must
move the parameters identically.

The fast coalesce and the sparse optimizer steps are also pinned byte for
byte against the straightforward formulas they replaced, written out
below as independent references.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import (
    Adagrad,
    Adam,
    Embedding,
    IndexedRows,
    Parameter,
    SGD,
    Tensor,
    clip_grad_norm,
    sparse_embedding_grads,
    sparse_grads_enabled,
)
from repro.models import create_model
from repro.training import Trainer, TrainingConfig
from repro.training.losses import get_loss

pytestmark = pytest.mark.fast


#######################################################################
#                             References                              #
#######################################################################


def reference_coalesce(indices, rows):
    """Stable argsort plus ``np.add.reduceat`` over every segment."""
    if indices.shape[0] == 0:
        return indices, np.array(rows, copy=True)
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    starts = np.flatnonzero(np.r_[True, sorted_indices[1:] != sorted_indices[:-1]])
    return sorted_indices[starts], np.add.reduceat(rows[order], starts, axis=0)


def reference_sparse_step(kind, param, state, indices, rows, step, lr,
                          weight_decay, betas=(0.9, 0.999), eps=None):
    """One sparse step as plain out-of-place expressions: lazy weight decay
    from a second gather, then the row update with Python-float scalars."""
    indices, rows = reference_coalesce(indices, rows)
    rows = rows + weight_decay * param[indices]
    if kind == "sgd":
        param[indices] -= lr * rows
    elif kind == "adagrad":
        accum_rows = state["accum"][indices]
        accum_rows += rows * rows
        state["accum"][indices] = accum_rows
        param[indices] -= lr * rows / (np.sqrt(accum_rows) + eps)
    else:
        beta1, beta2 = betas
        bias1, bias2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
        m_rows = state["m"][indices]
        m_rows *= beta1
        m_rows += (1.0 - beta1) * rows
        state["m"][indices] = m_rows
        v_rows = state["v"][indices]
        v_rows *= beta2
        v_rows += (1.0 - beta2) * rows * rows
        state["v"][indices] = v_rows
        denom = np.sqrt(v_rows / bias2)
        denom += eps
        param[indices] -= (lr / bias1) * m_rows / denom


def naive_adam_rows(param, m, v, lookups, step, lr, weight_decay, betas, eps):
    """Adam on a float64 table, one row and one Python float at a time."""
    beta1, beta2 = betas
    bias1, bias2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
    grads = {}
    for index, row in zip(*lookups):
        grads.setdefault(int(index), []).append(row)
    for index, contributions in grads.items():
        for col in range(param.shape[1]):
            g = sum(float(row[col]) for row in contributions)
            g += weight_decay * param[index, col]
            m[index, col] = beta1 * m[index, col] + (1.0 - beta1) * g
            v[index, col] = beta2 * v[index, col] + (1.0 - beta2) * g * g
            param[index, col] -= (lr * m[index, col] / bias1
                                  / (np.sqrt(v[index, col] / bias2) + eps))


#######################################################################
#                           Data Generators                           #
#######################################################################


def random_lookups(rng, num_rows, size, dim, dtype, zipf=0.0):
    """``size`` looked-up row indices (Zipf-repeated when ``zipf`` > 0)
    with random gradient rows of width ``dim``."""
    if zipf > 0:
        weights = np.arange(1, num_rows + 1, dtype=np.float64) ** -zipf
        indices = rng.choice(num_rows, size=size, p=weights / weights.sum())
    else:
        indices = rng.integers(0, num_rows, size=size)
    return indices.astype(np.int64), rng.normal(size=(size, dim)).astype(dtype)


def chunked(indices, rows, shape, num_chunks):
    """The same lookups as an :class:`IndexedRows` of ``num_chunks`` chunks."""
    cuts = np.linspace(0, indices.shape[0], num_chunks + 1).astype(int)
    grad = IndexedRows(indices[:cuts[1]], rows[:cuts[1]], shape)
    for lo, hi in zip(cuts[1:-1], cuts[2:]):
        grad = grad + IndexedRows(indices[lo:hi], rows[lo:hi], shape)
    return grad


def coalesce_cases(dtype):
    """(name, indices, rows, num_rows) inputs for the coalesce parity test."""
    rng = np.random.default_rng(11)
    dim = 5
    yield "no duplicates", rng.permutation(60).astype(np.int64), \
        rng.normal(size=(60, dim)).astype(dtype), 60
    for repeats in range(1, 41):
        # One index repeated 1-40 times (crossing reduceat's 8-row block),
        # scattered among singletons and a few pairs.
        indices = np.r_[np.full(repeats, 7), rng.integers(0, 30, size=25)]
        order = rng.permutation(indices.shape[0])
        rows = rng.normal(size=(indices.shape[0], dim)).astype(dtype)
        yield f"index repeated {repeats}x", indices[order], rows, 30
    for size in (1, 2, 17, 300, 3000):
        indices, rows = random_lookups(rng, 500, size, dim, dtype, zipf=1.1)
        yield f"zipf {size}", indices, rows, 500
    # Indices 3 (three lookups), 4 (two) and 0 (one) sum to -0.0 and
    # index 2 to +0.0.
    indices = np.array([3, 1, 3, 3, 1, 0, 2, 2, 4, 4])
    rows = np.zeros((10, dim), dtype=dtype)
    rows[[0, 2, 3, 4, 5, 6, 8, 9]] = -0.0
    rows[1] = 1.0
    yield "-0.0 rows", indices, rows, 5
    yield "empty", np.zeros(0, dtype=np.int64), np.zeros((0, dim), dtype=dtype), 4


class TestIndexedRows:
    def test_to_dense_scatter_adds_duplicates(self):
        grad = IndexedRows(np.array([1, 1, 3]),
                           np.array([[1.0, 2.0], [10.0, 20.0], [5.0, 6.0]]),
                           (4, 2))
        dense = grad.to_dense()
        assert dense.tolist() == [[0, 0], [11, 22], [0, 0], [5, 6]]

    def test_coalesce_matches_dense(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 40, size=500)
        rows = rng.normal(size=(500, 8))
        grad = IndexedRows(indices, rows, (50, 8))
        coalesced = grad.coalesce()
        assert np.array_equal(np.unique(indices), coalesced.indices)
        assert np.allclose(coalesced.to_dense(), grad.to_dense())

    def test_add_concatenates_sparse(self):
        a = IndexedRows(np.array([0]), np.array([[1.0]]), (3, 1))
        b = IndexedRows(np.array([0, 2]), np.array([[2.0], [3.0]]), (3, 1))
        combined = a + b
        assert isinstance(combined, IndexedRows)
        assert combined.to_dense().tolist() == [[3.0], [0.0], [3.0]]

    def test_add_dense_densifies(self):
        sparse = IndexedRows(np.array([1]), np.array([[1.0, 1.0]]), (2, 2))
        out = sparse + np.ones((2, 2))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [[1, 1], [2, 2]]

    def test_zero_rows(self):
        grad = IndexedRows(np.array([0, 1, 0]),
                           np.ones((3, 2)), (2, 2))
        grad.zero_rows(0)
        assert grad.to_dense().tolist() == [[0, 0], [1, 1]]

    def test_sum_of_squares_counts_duplicates_once_summed(self):
        param = Parameter(np.zeros((2, 1)))
        param.grad = IndexedRows(np.array([0, 0]), np.array([[1.0], [1.0]]), (2, 1))
        # ||dense grad||^2 = (1+1)^2 = 4, not 1^2 + 1^2.
        assert clip_grad_norm([param], 10.0) == 2.0

    @pytest.mark.parametrize("num_chunks", [1, 2, 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_coalesce_bytes_match_reference(self, dtype, num_chunks):
        for name, indices, rows, num_rows in coalesce_cases(dtype):
            chunks = min(num_chunks, max(indices.shape[0], 1))
            grad = chunked(indices, rows, (num_rows, rows.shape[1]), chunks)
            got = grad.coalesce()
            want_indices, want_rows = reference_coalesce(indices, rows)
            assert np.array_equal(got.indices, want_indices), name
            assert got.rows.dtype == want_rows.dtype, name
            assert got.rows.tobytes() == want_rows.tobytes(), name

    def test_context_manager(self):
        assert not sparse_grads_enabled()
        with sparse_embedding_grads(True):
            assert sparse_grads_enabled()
        assert not sparse_grads_enabled()


class TestSparseTakeRows:
    def test_leaf_gets_indexed_rows(self):
        weight = Parameter(np.arange(12.0).reshape(4, 3))
        with sparse_embedding_grads(True):
            out = weight.take_rows(np.array([[1, 2], [2, 2]]))
            out.sum().backward()
        assert isinstance(weight.grad, IndexedRows)
        assert np.array_equal(weight.grad.to_dense(),
                              np.array([[0.0] * 3, [1.0] * 3, [3.0] * 3, [0.0] * 3]))

    def test_interior_nodes_stay_dense(self):
        weight = Parameter(np.ones((4, 3)))
        with sparse_embedding_grads(True):
            doubled = weight * 2.0          # interior node
            out = doubled.take_rows(np.array([0, 1]))
            out.sum().backward()
        assert isinstance(weight.grad, np.ndarray)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bit_equivalence_after_densification(self, dtype):
        """Same forward/backward, sparse vs dense: identical to the bit."""
        def run(sparse):
            model = create_model("HAMs_m", 6, 20, rng=np.random.default_rng(1),
                                 embedding_dim=8, n_h=4, n_l=2, dtype=dtype)
            rng = np.random.default_rng(2)
            users = rng.integers(0, 6, size=5)
            inputs = rng.integers(0, 20, size=(5, 4))
            targets = rng.integers(0, 20, size=(5, 2))
            negatives = rng.integers(0, 20, size=(5, 2))
            with sparse_embedding_grads(sparse):
                loss = get_loss("bpr")(
                    model.score_items(users, inputs, targets),
                    model.score_items(users, inputs, negatives),
                )
                loss.backward()
            out = {}
            for name, param in model.named_parameters():
                grad = param.grad
                if isinstance(grad, IndexedRows):
                    grad = grad.to_dense()
                out[name] = None if grad is None else np.array(grad, copy=True)
            return out

        dense, sparse = run(False), run(True)
        assert set(dense) == set(sparse)
        for key in dense:
            assert (dense[key] is None) == (sparse[key] is None), key
            if dense[key] is not None:
                assert np.array_equal(dense[key], sparse[key]), key


def _one_step(optimizer_cls, sparse, dtype="float64", **opt_kwargs):
    """One backward + optimizer step on an Embedding; returns the weights."""
    rng = np.random.default_rng(4)
    emb = Embedding(10, 4, rng=rng)
    if dtype is not None:
        emb.astype(dtype)
    optimizer = optimizer_cls(emb.parameters(), **opt_kwargs)
    indices = np.array([[1, 3, 3], [7, 1, 0]])
    with sparse_embedding_grads(sparse):
        out = emb(indices)
        (out * out).sum().backward()
    optimizer.step()
    return np.array(emb.weight.data, copy=True)


class TestSparseOptimizers:
    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (SGD, {"lr": 0.1}),
        (Adam, {"lr": 0.1}),
        (Adagrad, {"lr": 0.1}),
    ])
    def test_single_step_matches_dense(self, optimizer_cls, kwargs):
        dense = _one_step(optimizer_cls, sparse=False, **kwargs)
        sparse = _one_step(optimizer_cls, sparse=True, **kwargs)
        # From zero optimizer state, untouched rows move in neither path
        # and touched rows receive the same update (up to reduction
        # rounding in the coalesced segment sums).
        assert np.allclose(dense, sparse, rtol=1e-12, atol=1e-15)

    def test_sgd_momentum_densifies(self):
        dense = _one_step(SGD, sparse=False, lr=0.1, momentum=0.9)
        sparse = _one_step(SGD, sparse=True, lr=0.1, momentum=0.9)
        assert np.allclose(dense, sparse, rtol=1e-12, atol=1e-15)

    def test_lazy_weight_decay_touches_only_seen_rows(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(5))
        before = np.array(emb.weight.data, copy=True)
        optimizer = SGD(emb.parameters(), lr=0.1, weight_decay=0.5)
        with sparse_embedding_grads(True):
            emb(np.array([[2, 4]])).sum().backward()
        optimizer.step()
        touched = {2, 4}
        for row in range(10):
            changed = not np.array_equal(emb.weight.data[row], before[row])
            assert changed == (row in touched), row

    def test_clip_grad_norm_matches_dense(self):
        def dense_grad(emb):
            grad = emb.weight.grad
            if isinstance(grad, IndexedRows):
                return grad.to_dense()
            return np.array(grad, copy=True)

        def run(sparse, lookups):
            emb = Embedding(10, 4, rng=np.random.default_rng(6))
            with sparse_embedding_grads(sparse):
                emb(lookups).sum().backward()
            unclipped = dense_grad(emb)
            norm = clip_grad_norm(emb.parameters(), 0.5)
            return norm, float(np.sqrt(np.sum(unclipped * unclipped))), dense_grad(emb)

        # The second input looks row 0 up twice: duplicates are summed
        # before squaring, ||(1 + 1)||^2 and not 1^2 + 1^2.
        for lookups in (np.array([[1, 1, 5]]), np.array([[0, 0]])):
            norm_dense, _, grad_dense = run(False, lookups)
            norm_sparse, dense_norm, grad_sparse = run(True, lookups)
            assert norm_sparse == norm_dense == dense_norm, lookups
            assert np.allclose(grad_dense, grad_sparse)

    def test_zero_rows_safe_on_broadcast_gradients(self):
        # sum() backward feeds a read-only broadcast view into take_rows;
        # the sparse gradient must own its rows or zero_rows would crash.
        emb = Embedding(6, 3, rng=np.random.default_rng(8), padding_idx=5)
        with sparse_embedding_grads(True):
            emb(np.array([[1, 5]])).sum().backward()
        emb.apply_padding_mask()  # must not raise / corrupt
        dense = emb.weight.grad.to_dense()
        assert np.all(dense[5] == 0.0)
        assert np.all(dense[1] == 1.0)

    def test_zero_rows_cannot_corrupt_sibling_gradients(self):
        # Two embeddings added together share one upstream grad array;
        # zeroing one table's padding row must not touch the other's grad.
        rng = np.random.default_rng(9)
        a = Embedding(4, 3, rng=rng, padding_idx=3)
        b = Embedding(4, 3, rng=rng, padding_idx=2)
        with sparse_embedding_grads(True):
            (a(np.array([[0, 2]])) + b(np.array([[2, 1]]))).sum().backward()
        a.apply_padding_mask()
        b.apply_padding_mask()
        assert np.all(a.weight.grad.to_dense()[2] == 1.0)  # real row of a intact
        assert np.all(b.weight.grad.to_dense()[2] == 0.0)  # b's padding zeroed

    def test_sgd_momentum_weight_decay_not_applied_twice(self):
        dense = _one_step(SGD, sparse=False, lr=0.1, momentum=0.9, weight_decay=0.5)
        sparse = _one_step(SGD, sparse=True, lr=0.1, momentum=0.9, weight_decay=0.5)
        # The densify fallback must not run the decayed rows through the
        # dense decay again; touched rows must match the dense update.
        indices = np.unique(np.array([1, 3, 3, 7, 1, 0]))
        assert np.allclose(dense[indices], sparse[indices], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad"])
    def test_steps_bytes_match_reference(self, kind, dtype):
        rng = np.random.default_rng(12)
        shape = (40, 6)
        param = Parameter(rng.normal(size=shape).astype(dtype))
        expected = np.array(param.data, copy=True)
        state = {"m": np.zeros(shape, dtype), "v": np.zeros(shape, dtype),
                 "accum": np.zeros(shape, dtype)}
        lr, weight_decay = 0.01, 0.05
        if kind == "sgd":
            optimizer, eps = SGD([param], lr=lr, weight_decay=weight_decay), None
        elif kind == "adagrad":
            optimizer = Adagrad([param], lr=lr, weight_decay=weight_decay)
            eps = optimizer.eps
        else:
            optimizer = Adam([param], lr=lr, weight_decay=weight_decay)
            eps = optimizer.eps
        for step in range(1, 5):
            indices, rows = random_lookups(rng, 25, 60, shape[1], dtype, zipf=1.0)
            param.grad = chunked(indices, rows, shape, 2)
            optimizer.step()
            reference_sparse_step(kind, expected, state, indices, rows, step,
                                  lr, weight_decay, eps=eps)
            assert param.data.tobytes() == expected.tobytes(), step
        if kind == "adam":
            assert optimizer._m[0].tobytes() == state["m"].tobytes()
            assert optimizer._v[0].tobytes() == state["v"].tobytes()
        elif kind == "adagrad":
            assert optimizer._accum[0].tobytes() == state["accum"].tobytes()

    def test_adam_leaves_rows_never_looked_up_untouched(self):
        rng = np.random.default_rng(13)
        param = Parameter(rng.normal(size=(50, 4)).astype(np.float32))
        optimizer = Adam([param], lr=0.01, weight_decay=0.1)
        # Rows 0-29 are looked up by some step; 30-49 never are.
        for _ in range(3):
            indices, rows = random_lookups(rng, 30, 40, 4, np.float32)
            param.grad = IndexedRows(indices, rows, param.data.shape)
            optimizer.step()
        before = {"param": param.data, "m": optimizer._m[0], "v": optimizer._v[0]}
        before = {key: np.array(value[30:], copy=True) for key, value in before.items()}
        indices, rows = random_lookups(rng, 30, 40, 4, np.float32)
        param.grad = IndexedRows(indices, rows, param.data.shape)
        optimizer.step()
        assert param.data[30:].tobytes() == before["param"].tobytes()
        assert optimizer._m[0][30:].tobytes() == before["m"].tobytes()
        assert optimizer._v[0][30:].tobytes() == before["v"].tobytes()

    def test_adam_matches_naive_float64_rows(self):
        rng = np.random.default_rng(14)
        param = Parameter(rng.normal(size=(30, 3)))
        lr, weight_decay, betas, eps = 0.05, 0.01, (0.8, 0.99), 1e-8
        optimizer = Adam([param], lr=lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        naive = np.array(param.data, copy=True)
        m, v = np.zeros_like(naive), np.zeros_like(naive)
        for step in range(1, 5):
            lookups = random_lookups(rng, 20, 35, 3, np.float64, zipf=1.0)
            param.grad = IndexedRows(*lookups, param.data.shape)
            optimizer.step()
            naive_adam_rows(naive, m, v, lookups, step, lr, weight_decay, betas, eps)
        np.testing.assert_allclose(param.data, naive, rtol=1e-12, atol=1e-12)

    def test_adam_step_allocates_only_for_touched_rows(self):
        rng = np.random.default_rng(15)
        param = Parameter(rng.normal(size=(200_000, 16)).astype(np.float32))
        optimizer = Adam([param], lr=1e-3, weight_decay=1e-3)
        indices, rows = random_lookups(rng, 200_000, 64, 16, np.float32)
        indices[:8] = indices[8]  # a duplicated row, so coalesce sums
        param.grad = IndexedRows(indices, rows, param.data.shape)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            optimizer.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A dense zeros_like / to_dense would cost the table's 12.8 MB.
        assert peak - baseline < 0.01 * param.data.nbytes

    def test_padding_row_stays_pinned_during_sparse_training(self):
        sequences = [np.random.default_rng(s).integers(0, 15, size=10).tolist()
                     for s in range(8)]
        model = create_model("HAMm", 8, 15, rng=np.random.default_rng(7),
                             embedding_dim=6, n_h=3, n_l=1)
        config = TrainingConfig(num_epochs=2, batch_size=16,
                                sparse_embedding_grad=True)
        Trainer(model, config).fit(sequences)
        assert np.all(model.source_item_embeddings.weight.data[15] == 0.0)
        assert np.all(model.target_item_embeddings.weight.data[15] == 0.0)


class TestAccumulationBuffer:
    def test_grad_buffer_reused_across_steps(self):
        param = Parameter(np.ones(4))
        (param * 2.0).sum().backward()
        first = param.grad
        param.zero_grad()
        (param * 3.0).sum().backward()
        assert param.grad is first  # same buffer, refilled in place
        assert param.grad.tolist() == [3.0, 3.0, 3.0, 3.0]

    def test_accumulation_without_zero_grad_still_adds(self):
        param = Parameter(np.ones(4))
        (param * 2.0).sum().backward()
        (param * 3.0).sum().backward()
        assert param.grad.tolist() == [5.0, 5.0, 5.0, 5.0]

    def test_astype_drops_stale_buffer(self):
        param = Parameter(np.ones(4))
        (param * 2.0).sum().backward()

        class Holder:
            pass

        from repro.autograd import Module

        module = Module.__new__(Module)
        module.training = True
        module.weight = param
        module.astype("float32")
        assert param.grad is None
        (param * 2.0).sum().backward()
        assert param.grad.dtype == np.float32
