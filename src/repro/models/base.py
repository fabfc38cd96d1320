"""Common interface of all sequential recommenders.

Every model in the reproduction scores a candidate item ``j`` for user
``i`` as the dot product of a learned representation of the pair
``(user, recent items)`` with a candidate-item embedding ``w_j`` (plus an
optional per-item bias).  This mirrors the linear scoring function of HAM
(Eq. 7/8) and the output layers of Caser, SASRec and HGN, and lets one
trainer and one evaluator drive every method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd import Module, Tensor, no_grad

__all__ = ["SequentialRecommender", "FrozenScorer"]


@dataclass(frozen=True)
class FrozenScorer:
    """Gradient-free snapshot of a model's linear scoring head.

    Every gradient-based model scores as ``representation @ W.T (+ bias)``;
    freezing captures ``W`` (and the optional bias) as plain arrays so the
    serving engine can score cached representations without touching the
    autograd machinery — and so :meth:`SequentialRecommender.score_all`
    and the engine share one scoring code path.
    """

    num_items: int
    candidate_embeddings: np.ndarray  # (num_items + 1, d), includes the pad row
    item_bias: np.ndarray | None      # (num_items + 1,) or None
    #: C-contiguous ``(d, num_items)`` copy without the pad row; derived
    #: by :meth:`with_item_columns`, never passed in.
    item_columns: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def embedding_dim(self) -> int:
        return self.candidate_embeddings.shape[1]

    def with_item_columns(self) -> "FrozenScorer":
        """This scorer plus its column table, derived once.

        Callers that keep a scorer for many requests (engines, snapshot
        and arena attaches) pay the one transpose; per-call freezes
        (``score_all``, live engines) skip it and score row-major.
        """
        if self.item_columns is not None:
            return self
        kept = FrozenScorer(self.num_items, self.candidate_embeddings, self.item_bias)
        object.__setattr__(kept, "item_columns", np.ascontiguousarray(
            self.candidate_embeddings[: self.num_items].T))
        return kept

    def score_buffer(self, rows: int) -> np.ndarray | None:
        """Flat scratch that ``scores_from_representation(out=...)`` reuses.

        Holds the product of up to ``rows`` rows in either layout (the
        row-major head writes ``num_items + 1`` columns).  ``None`` when
        the item bias would widen the product's dtype: adding it in place
        would then cast, so such heads keep the allocating path.
        """
        dtype = self.candidate_embeddings.dtype
        if self.item_bias is not None and np.result_type(dtype, self.item_bias) != dtype:
            return None
        return np.empty(rows * (self.num_items + 1), dtype=dtype)

    def scores_from_representation(self, representation: np.ndarray,
                                   out: np.ndarray | None = None) -> np.ndarray:
        """Scores of every real item, ``(B, num_items)``, from ``(B, d)`` reps.

        Two or more rows against a column table are one gemm with a
        contiguous B operand and a contiguous result — at 2-64 rows
        about 1.4-2.2x faster than against the transposed row-major
        table (``docs/serving.md``, "Scoring kernel").  One row (a gemv
        either way) and scorers without a column table keep the
        row-major product.

        ``out`` is a :meth:`score_buffer` of this scorer, and the
        representation must have the table's dtype.  The product is then
        written into the buffer's leading elements, laid out as a fresh
        product would be, the bias is added in place, and the result is a
        view of the buffer (the same bits as without ``out``).
        """
        rows = representation.shape[0]
        if self.item_columns is not None and rows > 1:
            table = self.item_columns
        else:
            table = self.candidate_embeddings.T
        if out is not None:
            if representation.dtype != out.dtype:
                raise ValueError(f"representation dtype {representation.dtype} "
                                 f"does not match the buffer's {out.dtype}")
            out = out[: rows * table.shape[1]].reshape(rows, table.shape[1])
        scores = np.matmul(representation, table, out=out)[:, : self.num_items]
        if self.item_bias is not None:
            bias = self.item_bias[: self.num_items]
            scores = scores + bias if out is None else np.add(scores, bias, out=scores)
        return scores


class SequentialRecommender(Module):
    """Base class for sequential recommendation models.

    Sub-classes must set the attributes

    ``num_users`` / ``num_items``
        Dataset dimensions.
    ``input_length``
        Number of most-recent items fed to the model (``n_h`` for HAM,
        ``L`` for Caser/HGN, ``n`` for SASRec).
    ``pad_id``
        Padding item id (always ``num_items``).

    and implement :meth:`sequence_representation` and
    :meth:`candidate_item_embeddings` (and optionally :meth:`item_bias`).
    """

    num_users: int
    num_items: int
    input_length: int
    pad_id: int

    # ------------------------------------------------------------------ #
    # Interface to implement
    # ------------------------------------------------------------------ #
    def sequence_representation(self, users: np.ndarray, inputs: np.ndarray) -> Tensor:
        """Representation of each (user, recent items) pair.

        Parameters
        ----------
        users:
            ``(B,)`` int array of user ids.
        inputs:
            ``(B, input_length)`` int array of the most recent items,
            left-padded with :attr:`pad_id`.

        Returns
        -------
        Tensor
            ``(B, out_dim)`` representation; ``out_dim`` matches the
            second dimension of :meth:`candidate_item_embeddings`.
        """
        raise NotImplementedError

    def candidate_item_embeddings(self) -> Tensor:
        """Candidate ("target") item embedding table, shape ``(num_items + 1, out_dim)``.

        Row ``pad_id`` corresponds to the padding item and is never
        recommended; it exists so padded target ids can be embedded
        without special cases.
        """
        raise NotImplementedError

    def item_bias(self) -> Tensor | None:
        """Optional per-item bias of shape ``(num_items + 1,)``."""
        return None

    # ------------------------------------------------------------------ #
    # Scoring built on the interface
    # ------------------------------------------------------------------ #
    def score_items(self, users: np.ndarray, inputs: np.ndarray,
                    items: np.ndarray) -> Tensor:
        """Scores of specific candidate items.

        Parameters
        ----------
        items:
            ``(B, T)`` int array of candidate item ids (e.g. the positive
            and sampled negative items during BPR training).

        Returns
        -------
        Tensor of shape ``(B, T)``.
        """
        representation = self.sequence_representation(users, inputs)
        return self._candidate_scores(representation, items)

    def _candidate_scores(self, representation: Tensor, items: np.ndarray) -> Tensor:
        """Dot the ``(B, d)`` representation with ``(B, T)`` candidate ids.

        The one scoring body shared by :meth:`score_items` and the fused
        :meth:`score_item_pairs`, so the two training paths cannot
        diverge.
        """
        candidates = self.candidate_item_embeddings().take_rows(items)  # (B, T, d)
        scores = (candidates * representation.expand_dims(1)).sum(axis=-1)
        bias = self.item_bias()
        if bias is not None:
            scores = scores + bias.take_rows(items)
        return scores

    def score_item_pairs(self, users: np.ndarray, inputs: np.ndarray,
                         positives: np.ndarray,
                         negatives: np.ndarray) -> tuple[Tensor, Tensor]:
        """Fused BPR forward: positive and negative scores in one pass.

        The two :meth:`score_items` calls of the naive BPR step each run
        the full :meth:`sequence_representation` forward — the expensive
        part of the step — even though both candidate sets condition on
        the *same* (user, recent items) pair.  Here the representation is
        computed once and both candidate sets go through one
        ``take_rows`` on the concatenated ids, halving the forward (and
        the backward through the sequence encoder).

        Parameters
        ----------
        positives:
            ``(B, T)`` target item ids.
        negatives:
            ``(B, N)`` sampled negative ids (``N`` need not equal ``T``).

        Returns
        -------
        ``(positive_scores, negative_scores)`` of shapes ``(B, T)`` and
        ``(B, N)``.
        """
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        items = np.concatenate([positives, negatives], axis=1)
        representation = self.sequence_representation(users, inputs)
        scores = self._candidate_scores(representation, items)
        split = positives.shape[1]
        return scores[:, :split], scores[:, split:]

    def freeze(self, copy: bool = True) -> FrozenScorer:
        """Snapshot the scoring head as a :class:`FrozenScorer`.

        ``copy=True`` (the default) detaches the snapshot from further
        training — the serving engine's "materialize once" contract.
        ``copy=False`` returns views onto the live parameters, which is
        what :meth:`score_all` uses to avoid per-call copies.
        """
        with no_grad():
            table = self.candidate_item_embeddings().data
            bias = self.item_bias()
            bias_data = None if bias is None else bias.data
        if copy:
            table = np.array(table, copy=True)
            bias_data = None if bias_data is None else np.array(bias_data, copy=True)
        return FrozenScorer(num_items=self.num_items, candidate_embeddings=table,
                            item_bias=bias_data)

    def score_all(self, users: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Scores of every real item (used for top-k evaluation).

        Evaluation never needs gradients, so the computation runs under
        ``no_grad`` and returns a plain ``(B, num_items)`` array.
        """
        with no_grad():
            representation = self.sequence_representation(users, inputs).data
        return self.freeze(copy=False).scores_from_representation(representation)

    # ------------------------------------------------------------------ #
    # Helpers shared by sub-classes
    # ------------------------------------------------------------------ #
    def _validate_dims(self, num_users: int, num_items: int, embedding_dim: int,
                       input_length: int) -> None:
        if num_users < 1 or num_items < 1:
            raise ValueError("num_users and num_items must be positive")
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        if input_length < 1:
            raise ValueError("input_length must be positive")

    def describe(self) -> str:
        """Human-readable model summary used in logs and reports."""
        return (
            f"{self.__class__.__name__}(users={self.num_users}, items={self.num_items}, "
            f"input_length={self.input_length}, parameters={self.num_parameters()})"
        )
