"""Indexed (sparse) row gradients for embedding lookups.

The seed engine's ``take_rows`` backward scattered every lookup gradient
into a dense ``(num_rows, d)`` zeros matrix — for a recommender that is
one fresh ``num_items x d`` allocation per embedding table per batch,
even though a batch only touches a few hundred rows.

:class:`IndexedRows` is the sparse alternative: the looked-up indices
plus their gradient contributions.  It is *chunked* — accumulating two
indexed gradients (the same table looked up by several graph nodes, e.g.
HAM's high- and low-order lookups) appends a chunk instead of eagerly
scatter-adding, and :meth:`to_dense` densifies chunk by chunk in exactly
the order the dense path would have, so densification is bit-for-bit
identical to the legacy dense scatters.

:func:`~repro.autograd.tensor.Tensor.take_rows` emits ``IndexedRows``
for leaf parameters while the :func:`sparse_embedding_grads` context is
active; the optimizers in :mod:`repro.autograd.optim` consume the
:meth:`coalesce`-d form, so an update step also only touches the
looked-up rows.

:meth:`coalesce` is the optimizer's hot spot, and its output is a
byte-identity contract: the unique indices in ascending order, each
with the ``np.add.reduceat`` sum of its contributions in occurrence
order, exactly as a stable ``argsort`` plus one ``reduceat`` over every
segment would produce.  It meets the contract at a fraction of that
cost by copying rows looked up once straight to the output, adding the
two rows of a row looked up twice with one vectorised add (the single
addition ``reduceat`` performs for such a segment), and running
``reduceat`` only over a compacted array of the rows looked up three or
more times.  ``reduceat`` stays for those: it sums a segment as
``r0 + (r1 + ...)`` with pairwise blocks past 8 rows, so any other
kernel (sequential passes, ``np.add.at``) changes float32 bits on such
rows, while the same kernel over the same segment contents does not.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["IndexedRows", "sparse_embedding_grads", "sparse_grads_enabled"]

_SPARSE_GRADS = False


@contextlib.contextmanager
def sparse_embedding_grads(enabled: bool = True):
    """Scope in which embedding lookups record indexed (sparse) gradients.

    Only *leaf* parameters are affected: a ``take_rows`` on a computed
    tensor keeps producing dense gradients, so interior graph nodes never
    see an :class:`IndexedRows`.
    """
    global _SPARSE_GRADS
    previous = _SPARSE_GRADS
    _SPARSE_GRADS = bool(enabled)
    try:
        yield
    finally:
        _SPARSE_GRADS = previous


def sparse_grads_enabled() -> bool:
    """Whether embedding lookups currently record sparse gradients."""
    return _SPARSE_GRADS


class IndexedRows:
    """Sparse gradient of a row table: chunks of (indices, row values).

    Parameters
    ----------
    indices:
        ``(N,)`` int64 array of looked-up row indices (duplicates allowed).
    rows:
        ``(N, *row_shape)`` gradient contribution of each lookup.
    shape:
        Shape of the dense table the gradient refers to
        (``(num_rows, *row_shape)``).
    """

    __slots__ = ("shape", "_chunks", "_coalesced")

    #: Opt out of NumPy's ufunc dispatch so ``ndarray + IndexedRows``
    #: falls back to :meth:`__radd__` instead of building object arrays.
    __array_ufunc__ = None

    def __init__(self, indices: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]):
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        rows = np.asarray(rows)
        if rows.shape[0] != indices.shape[0]:
            raise ValueError(
                f"indices ({indices.shape[0]}) and rows ({rows.shape[0]}) disagree"
            )
        if rows.shape[1:] != tuple(shape[1:]):
            raise ValueError(
                f"row shape {rows.shape[1:]} does not match table shape {shape}"
            )
        self.shape = tuple(shape)
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = [(indices, rows)]
        self._coalesced = False

    @classmethod
    def _from_chunks(cls, chunks: list[tuple[np.ndarray, np.ndarray]],
                     shape: tuple[int, ...]) -> "IndexedRows":
        out = cls.__new__(cls)
        out.shape = tuple(shape)
        out._chunks = chunks
        out._coalesced = False
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def indices(self) -> np.ndarray:
        """All looked-up indices (concatenated across chunks)."""
        if len(self._chunks) == 1:
            return self._chunks[0][0]
        return np.concatenate([idx for idx, _ in self._chunks])

    @property
    def rows(self) -> np.ndarray:
        """All row contributions (concatenated across chunks)."""
        if len(self._chunks) == 1:
            return self._chunks[0][1]
        return np.concatenate([rows for _, rows in self._chunks])

    @property
    def dtype(self):
        return self._chunks[0][1].dtype

    @property
    def nnz(self) -> int:
        """Number of stored (possibly duplicate) row contributions."""
        return int(sum(idx.shape[0] for idx, _ in self._chunks))

    def __repr__(self) -> str:
        return (f"IndexedRows(nnz={self.nnz}, chunks={len(self._chunks)}, "
                f"shape={self.shape})")

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def coalesce(self) -> "IndexedRows":
        """Unique indices with duplicate contributions segment-summed.

        The result is byte-identical to the unique indices of a stable
        ``argsort`` with ``np.add.reduceat`` over every segment (see the
        module docstring).  The stable order comes from one sort of the
        unique key ``index * nnz + position``, which is cheaper than a
        stable ``argsort``; rows looked up once are gathered directly,
        pairs are summed with one vectorised add, and ``reduceat`` runs
        only over a compacted array of the longer segments
        (``np.add.at`` is not an option: besides changing bits, its
        per-element dispatch costs nearly as much as the dense scatter
        this class exists to avoid).  The result owns fresh arrays, so
        in-place scaling (gradient clipping) cannot alias graph buffers.
        Already coalesced gradients (e.g. stored back by clip_grad_norm)
        are returned as-is.
        """
        if self._coalesced:
            return self
        indices = self.indices
        rows = self.rows
        n = indices.shape[0]
        if n == 0:
            out = IndexedRows(indices, np.array(rows, copy=True), self.shape)
            out._coalesced = True
            return out
        # The keys are distinct, so any sort yields the stable order; they
        # fit in int64 for every table that fits in memory
        # (num_rows * nnz < 2**63).
        order = np.sort(indices * n + np.arange(n)) % n
        sorted_indices = indices[order]
        boundaries = np.empty(n, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_indices[1:], sorted_indices[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        summed = rows.take(order[starts], axis=0)
        if starts.shape[0] < n:
            sizes = np.diff(starts, append=n)
            # reduceat sums a two-row segment as r0 + r1, exactly this add.
            pairs = np.flatnonzero(sizes == 2)
            summed[pairs] += rows.take(order[starts[pairs] + 1], axis=0)
            longer = sizes > 2
            if longer.any():
                longer_sizes = sizes[longer]
                compact = rows.take(order[np.repeat(longer, sizes)], axis=0)
                summed[longer] = np.add.reduceat(
                    compact, np.cumsum(longer_sizes) - longer_sizes, axis=0)
        out = IndexedRows(sorted_indices[starts], summed, self.shape)
        out._coalesced = True
        return out

    def to_dense(self) -> np.ndarray:
        """Densify into the full table shape.

        Each chunk is scattered into its own zeros matrix and the
        matrices are then summed — the exact association order of the
        legacy dense path, hence bit-for-bit equivalence.
        """
        first_idx, first_rows = self._chunks[0]
        dense = np.zeros(self.shape, dtype=first_rows.dtype)
        np.add.at(dense, first_idx, first_rows)
        for idx, rows in self._chunks[1:]:
            chunk_dense = np.zeros(self.shape, dtype=rows.dtype)
            np.add.at(chunk_dense, idx, rows)
            dense = dense + chunk_dense
        return dense

    # ------------------------------------------------------------------ #
    # Gradient algebra (used by the backward accumulation loop)
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        if isinstance(other, IndexedRows):
            if other.shape != self.shape:
                raise ValueError("cannot add IndexedRows of different table shapes")
            return IndexedRows._from_chunks(self._chunks + other._chunks, self.shape)
        return np.array(other, copy=True) + self.to_dense()

    def __radd__(self, other):
        if isinstance(other, IndexedRows):
            return other.__add__(self)
        # dense + sparse: dense came first in accumulation order.
        return np.array(other, copy=True) + self.to_dense()

    def zero_rows(self, index: int) -> None:
        """Zero every contribution targeting ``index`` (padding rows)."""
        for idx, rows in self._chunks:
            rows[idx == index] = 0.0

    def scale_(self, factor: float) -> None:
        """Scale every contribution in place (gradient clipping)."""
        for _, rows in self._chunks:
            rows *= factor
