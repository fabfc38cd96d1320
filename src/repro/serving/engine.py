"""Batched scoring engine — "materialize once, serve many".

The paper's run-time argument (Table 14) is that HAM answers a
recommendation request in microseconds per user.  The engine makes the
reproduction live up to that claim: instead of re-padding histories and
re-running the model forward on every request, a :class:`ScoringEngine`
takes one frozen snapshot of a trained model and materializes, under
``no_grad``,

* the candidate embedding table and item biases (:class:`FrozenScorer`),
* the per-user padded history matrix (one :func:`pad_histories` call),
* the per-user sequence representations (computed lazily in micro-batches
  and cached), and
* per-user seen-item index arrays (CSR-style: memory scales with the
  number of interactions, not ``num_users x num_items``) for vectorized
  exclusion of already-interacted items.

A repeated top-k request then costs one ``(B, d) @ (d, num_items)``
matmul, one index-assignment mask and one top-k selection
(:func:`~repro.evaluation.ranking.top_k_items`: a two-stage threshold
kernel on multi-row blocks, ``argpartition`` on single rows and small
catalogues; score descending, ties by ascending item id) — no
per-request padding, no Python ``set`` construction and no embedding
forward pass.  ``top_k_scored`` processes large user lists in
``micro_batch_size`` chunks, all scored into one reused buffer per call,
so peak memory stays at one ``(micro_batch_size, num_items + 1)``
buffer per concurrent call.

``top_k_scored`` is the one ranking verb every backend implements (this
engine, the sharded engine, the cluster router); :class:`RankingVerbs`
derives ``top_k`` / ``recommend_batch`` / ``recommend`` from it once.

Count-based models (Popularity, ItemKNN, MarkovChain) have no
representation/embedding decomposition; for those the engine falls back
to calling ``model.score_all`` on the cached padded inputs, which still
removes the per-request padding and masking overhead.

``observe(user, item)`` supports session-style traffic: it appends to the
user's history, updates the padded row and the seen arrays in place, and
invalidates only that user's cached representation.

Every engine copy in the system is a ``ScoringEngine`` built one of two
ways: from a model and its histories, or with
:meth:`ScoringEngine.from_arrays` over a snapshot's named arrays (shard
workers, the sharded engine's degraded fallback, cluster nodes
bootstrapped from a peer frame or a same-host arena).
:func:`snapshot_arrays` is the one writer of that layout.

:func:`threaded_top_k_scored` is the evaluators' parallel sweep: threads
over disjoint user ranges of one engine (NumPy releases the GIL in the
gemm, the seen mask and the top-k kernel).
"""

from __future__ import annotations

from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.autograd import no_grad
from repro.data.seen import SeenIndex
from repro.data.windows import pad_histories, pad_id_for
from repro.evaluation.ranking import top_k_items
from repro.models.base import FrozenScorer, SequentialRecommender
from repro.retrieval.index import ANN_PREFIX, ANNIndex, RetrievalConfig

__all__ = ["Recommendation", "RankingVerbs", "ScoringEngine", "recommendations",
           "snapshot_arrays", "threaded_top_k_scored"]


@dataclass(frozen=True)
class Recommendation:
    """One recommended item with its model score and rank (0 = best)."""

    item: int
    score: float
    rank: int


def recommendations(ranked, scores) -> list[list[Recommendation]]:
    """Per-user :class:`Recommendation` lists of ``top_k_scored`` rows."""
    return [[Recommendation(item=int(item), score=float(score), rank=rank)
             for rank, (item, score) in enumerate(zip(row_ids, row_scores))]
            for row_ids, row_scores in zip(ranked, scores)]


class RankingVerbs:
    """``top_k`` / ``recommend_batch`` / ``recommend``, derived once.

    A backend implements only ``top_k_scored(users, k, **kwargs) ->
    (ranked, scores)``; every keyword (``exclude_seen``, ``mode``,
    ``n_probe``, ``candidate_multiplier``, and ``timeout`` where the
    backend takes one) is forwarded to it unchanged.
    """

    def top_k(self, users, k: int, **kwargs) -> np.ndarray:
        """Ranked ids of the top-``k`` items per user, best first."""
        return self.top_k_scored(users, k, **kwargs)[0]

    def recommend_batch(self, users, k: int = 10,
                        **kwargs) -> list[list[Recommendation]]:
        """Top-``k`` :class:`Recommendation` lists, one per user."""
        return recommendations(*self.top_k_scored(users, k, **kwargs))

    def recommend(self, user: int, k: int = 10,
                  **kwargs) -> list[Recommendation]:
        """Top-``k`` recommendations for one user."""
        return self.recommend_batch([user], k, **kwargs)[0]


class ScoringEngine(RankingVerbs):
    """Frozen, batched scoring snapshot of a trained model.

    Parameters
    ----------
    model:
        Any trained model of the study (gradient-based or count-based).
    histories:
        Per-user interaction histories the recommendations condition on —
        typically ``split.train_plus_valid()`` after training.  An id
        outside ``[0, num_items)`` (the pad id included) raises
        ``ValueError`` naming the user and the id: at construction when
        it is among the ``input_length`` most recent items (the ones the
        model reads), otherwise when the first request that masks seen
        items builds the seen arrays, before anything is masked.
    exclude_seen:
        Exclude items already present in a user's history from rankings
        (the paper's protocol).  Per-request overrides are available on
        :meth:`top_k_scored`.
    micro_batch_size:
        Users per chunk for the model forward and for the score matrix of
        :meth:`top_k_scored`.  Each call scores all of its chunks into one
        buffer it owns, so peak memory is one
        ``(micro_batch_size, num_items + 1)`` buffer per concurrent call,
        whatever the length of the user list.  (:meth:`score_all` returns
        the full ``(B, num_items)`` matrix by contract, so its output
        necessarily scales with the request.)
    precompute:
        Materialize every user's representation eagerly at construction.
        With ``False`` (the default) representations are computed on
        first use, which is what the evaluators want — they touch each
        user exactly once.
    copy_weights:
        Snapshot the scoring head by copy (``True``, the serving
        contract) or by view onto the live parameters (``False``, used by
        the evaluators so in-place optimizer updates keep flowing
        through).
    cache_representations:
        Cache per-user representations across requests (``True``, the
        serving contract).  ``False`` recomputes them on every request.
    """

    def __init__(self, model: SequentialRecommender, histories: list[list[int]],
                 exclude_seen: bool = True, micro_batch_size: int = 1024,
                 precompute: bool = False, copy_weights: bool = True,
                 cache_representations: bool = True):
        if len(histories) < model.num_users:
            raise ValueError(
                f"histories cover {len(histories)} users but the model expects "
                f"{model.num_users}"
            )
        self._wire_core(model, exclude_seen, micro_batch_size)
        self._copy_weights = copy_weights
        self._histories = [list(histories[user]) for user in range(self.num_users)]
        self._inputs = pad_histories(self._histories, self.input_length, self.pad_id)
        self._check_recent_items()
        # Seen-item index arrays, built lazily on the first masked request
        # (an exclude_seen=False engine never pays for them); the build
        # checks every older history id.
        self._seen_items: list[np.ndarray] | None = None

        # Fast path: models exposing the representation/embedding
        # decomposition get cached representations; the rest fall back to
        # model.score_all on the cached padded inputs.
        try:
            self._frozen = self._freeze_model()
        except NotImplementedError:
            pass
        else:
            if cache_representations:
                self._alloc_representation_cache()
        if precompute:
            self.materialize()

    def _wire_core(self, model: SequentialRecommender, exclude_seen: bool,
                   micro_batch_size: int) -> None:
        """Shared field wiring of ``__init__`` and :meth:`from_arrays`."""
        if micro_batch_size < 1:
            raise ValueError("micro_batch_size must be positive")
        model.eval()
        self.model = model
        self.num_users = model.num_users
        self.num_items = model.num_items
        self.input_length = model.input_length
        self.pad_id = pad_id_for(model.num_items)
        self.exclude_seen = exclude_seen
        self.micro_batch_size = micro_batch_size
        self._frozen: FrozenScorer | None = None
        self._representations: np.ndarray | None = None
        self._rep_valid: np.ndarray | None = None
        self._ann: ANNIndex | None = None

    def _freeze_model(self) -> FrozenScorer:
        """Snapshot the scoring head; a copied head gets its column table.

        A view head (``copy_weights=False``) must keep tracking in-place
        weight updates, which a derived column copy would not.
        """
        frozen = self.model.freeze(copy=self._copy_weights)
        return frozen.with_item_columns() if self._copy_weights else frozen

    def _alloc_representation_cache(self) -> None:
        # The cache matches the model's compute dtype so the cached path
        # stays bit-for-bit identical to model.score_all (float32 models
        # included).
        self._representations = np.zeros(
            (self.num_users, self._frozen.embedding_dim),
            dtype=self._frozen.candidate_embeddings.dtype,
        )
        self._rep_valid = np.zeros(self.num_users, dtype=bool)

    @classmethod
    def from_arrays(cls, model: SequentialRecommender,
                    arrays: Mapping[str, np.ndarray], *,
                    exclude_seen: bool = True,
                    micro_batch_size: int = 1024) -> "ScoringEngine":
        """Build an engine over the named arrays of a scoring snapshot.

        The one reader of the layout :func:`snapshot_arrays` writes: shard workers and the
        degraded fallback wire the sharded engine's shared-memory arena
        through it, cluster nodes a peer's snapshot frame or a same-host
        arena.  Every scoring request then runs the exact serial code
        path over the given arrays, which is what makes all of them
        bit-identical to the engine the snapshot was taken from.

        The arrays alone decide the engine's shape: ``candidates`` (and
        ``item_bias``) give the frozen scoring head, ``ann_*`` arrays an
        attached ANN index, and a writable ``inputs`` array makes
        :meth:`observe` available (it evolves the padded row, the
        per-user seen array and the representation-cache bit without a
        backing history list).  Snapshot engines hold no history lists,
        so :meth:`history` raises.  The arrays are validated first, since
        they may come from a peer: a malformed snapshot raises
        ``ValueError`` naming the offending key instead of masking the
        wrong items or failing mid-request.
        """
        engine = cls.__new__(cls)
        engine._wire_core(model, exclude_seen, micro_batch_size)
        _validate_snapshot(arrays, engine.num_users, engine.num_items,
                           engine.input_length)
        engine._copy_weights = True
        engine._histories = None
        engine._inputs = arrays["inputs"]
        engine._seen_items = _seen_views(arrays["seen_indptr"],
                                         arrays["seen_items"])
        if "candidates" in arrays:
            engine._frozen = FrozenScorer(
                num_items=engine.num_items,
                candidate_embeddings=arrays["candidates"],
                item_bias=arrays.get("item_bias"),
            ).with_item_columns()
            engine._alloc_representation_cache()
        if f"{ANN_PREFIX}header" in arrays:
            engine.attach_ann_index(ANNIndex.from_arrays(arrays))
        return engine

    # ------------------------------------------------------------------ #
    # Snapshot maintenance
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """No-op: the serial engine holds no external resources.

        Exists so serial and sharded engines share one lifecycle API and
        callers can ``engine.close()`` unconditionally.
        """

    @property
    def supports_cached_representations(self) -> bool:
        """Whether the model exposes the fast representation path."""
        return self._frozen is not None

    def materialize(self) -> "ScoringEngine":
        """Eagerly compute and cache every user's representation."""
        if self._rep_valid is not None:
            self._ensure_representations(np.arange(self.num_users, dtype=np.int64))
        return self

    def refresh(self) -> "ScoringEngine":
        """Re-snapshot the model (call after further training).

        A built ANN index is retrained over the refreshed candidate
        table with its previous configuration, so the approximate stage
        never serves stale geometry.
        """
        if self._frozen is not None:
            self._frozen = self._freeze_model()
            if self._rep_valid is not None:
                self._rep_valid[:] = False
                dtype = self._frozen.candidate_embeddings.dtype
                if self._representations.dtype != dtype:
                    # Training may have re-cast the model (Module.astype).
                    self._representations = self._representations.astype(dtype)
            if self._ann is not None:
                self.build_ann_index(self._ann.config)
        return self

    # ------------------------------------------------------------------ #
    # ANN retrieval (the approximate first stage of top_k(mode="ann"))
    # ------------------------------------------------------------------ #
    @property
    def ann_index(self) -> ANNIndex | None:
        """The attached ANN candidate index, or ``None`` (exact only)."""
        return self._ann

    def build_ann_index(self, config: RetrievalConfig | None = None) -> ANNIndex:
        """Train an ANN index over the frozen candidate table.

        Returns the index (also attached to the engine, enabling
        ``top_k(..., mode="ann")``).  Requires the representation fast
        path — count-based models score through ``model.score_all`` and
        have no candidate table to index.
        """
        if self._frozen is None:
            raise NotImplementedError(
                f"{type(self.model).__name__} has no candidate-embedding "
                "table; ANN retrieval needs the representation fast path"
            )
        table = self._frozen.candidate_embeddings[: self.num_items]
        self._ann = ANNIndex.build(np.ascontiguousarray(table), config)
        return self._ann

    def attach_ann_index(self, index: ANNIndex) -> None:
        """Attach a pre-built index (e.g. from a snapshot or the arena).

        The index must have been trained over this engine's candidate
        table — the geometry is validated, the contents trusted.
        """
        if self._frozen is None:
            raise NotImplementedError(
                f"{type(self.model).__name__} has no candidate-embedding "
                "table; ANN retrieval needs the representation fast path"
            )
        if index.num_items != self.num_items:
            raise ValueError(
                f"index covers {index.num_items} items, engine serves "
                f"{self.num_items}"
            )
        if index.dim != self._frozen.embedding_dim:
            raise ValueError(
                f"index dim {index.dim} does not match embedding dim "
                f"{self._frozen.embedding_dim}"
            )
        self._ann = index

    def _check_recent_items(self) -> None:
        """Refuse an id outside ``[0, num_items)`` among the padded inputs.

        These are the ids the model forward reads.  The pad id cannot be
        told from padding once written, so a row holding more pads than
        its history is short of ``input_length`` holds one among its
        recent items.
        """
        inputs = self._inputs
        lengths = np.fromiter(map(len, self._histories), dtype=np.int64,
                              count=self.num_users)
        bad = (np.count_nonzero(inputs == self.pad_id, axis=1)
               != np.maximum(self.input_length - lengths, 0))
        if inputs.min() < 0 or inputs.max() > self.pad_id:
            bad |= ((inputs < 0) | (inputs > self.pad_id)).any(axis=1)
        if bad.any():
            self._refuse_history(int(np.flatnonzero(bad)[0]))

    def _refuse_history(self, user: int) -> None:
        history = np.asarray(self._histories[user], dtype=np.int64)
        item = history[(history < 0) | (history >= self.num_items)][0]
        raise ValueError(f"user {user}'s history holds item id {item}, "
                         f"outside [0, {self.num_items})")

    def _ensure_seen_arrays(self) -> None:
        """Materialize the per-user seen arrays (one CSR pass).

        Every history id passes through the index, so an id outside
        ``[0, num_items)`` is refused here, before any mask reads it.
        """
        if self._seen_items is not None:
            return
        index = SeenIndex.from_histories(self._histories, self.num_items)
        items = index.items
        if items.size and (items.min() < 0 or items.max() >= self.num_items):
            first = np.flatnonzero((items < 0) | (items >= self.num_items))[0]
            self._refuse_history(int(np.searchsorted(index.indptr, first, side="right")) - 1)
        self._seen_items = [index.user_items(user) for user in range(self.num_users)]

    def _ann_candidates(self, rep: np.ndarray, k: int, n_probe: int,
                        multiplier: int, bias: np.ndarray | None,
                        seen: np.ndarray | None,
                        width: int) -> np.ndarray | None:
        """Unseen candidate ids of one query, or ``None`` for exact fallback.

        Starts at the requested ``n_probe`` and doubles the probed
        prefix while the (seen-filtered) candidate set is still
        narrower than the requested ``width`` — probing more buckets
        only *extends* the set, so the initial dial still decides the
        common case.  If every bucket has been probed and the per-bucket
        quota still leaves the set short, the caller scores that row
        exactly instead.
        """
        index = self._ann
        probe = n_probe
        while True:
            candidates = index.candidates(rep, k, probe, multiplier, bias)
            if seen is not None and seen.size and candidates.size:
                candidates = candidates[np.isin(candidates, seen, invert=True)]
            if candidates.size >= width:
                return candidates
            if probe >= index.n_buckets:
                return None
            probe = min(index.n_buckets, probe * 2)

    def _ann_top_k(self, users: np.ndarray, k: int, exclude: bool,
                   n_probe: int | None,
                   multiplier: int | None) -> tuple[np.ndarray, np.ndarray]:
        """ANN candidates + exact re-rank: ``(ranked, scores)`` per user."""
        if self._ann is None:
            raise RuntimeError(
                "no ANN index attached; call build_ann_index() / "
                "attach_ann_index() or use mode='exact'"
            )
        index = self._ann
        n_probe = index.config.n_probe if n_probe is None else int(n_probe)
        multiplier = (index.config.candidate_multiplier if multiplier is None
                      else int(multiplier))
        scorer = self._frozen
        table = scorer.candidate_embeddings[: self.num_items]
        bias = (scorer.item_bias[: self.num_items]
                if scorer.item_bias is not None else None)
        representations = self._representations_for(users)
        width = min(k, self.num_items)
        ranked = np.empty((users.size, width), dtype=np.int64)
        out_scores = np.empty((users.size, width), dtype=np.float64)
        if exclude:
            self._ensure_seen_arrays()
        for row in range(users.size):
            rep = representations[row]
            seen = self._seen_items[users[row]] if exclude else None
            candidates = self._ann_candidates(rep, k, n_probe, multiplier,
                                              bias, seen, width)
            if candidates is None:
                # Quota-starved even with every bucket probed: score the
                # row exactly so the contract (width ids, best first)
                # holds regardless of catalogue shape.
                scores = scorer.scores_from_representation(rep[None, :])
                scores = np.array(scores, dtype=np.float64, copy=True)
                if seen is not None and seen.size:
                    scores[0, seen] = -np.inf
                ids = top_k_items(scores, k)[0]
                ranked[row] = ids
                out_scores[row] = scores[0, ids]
                continue
            scores = table[candidates] @ rep
            if bias is not None:
                scores = scores + bias[candidates]
            scores = scores.astype(np.float64, copy=False)
            if candidates.size > width:
                top = np.argpartition(-scores, width - 1)[:width]
            else:
                top = np.arange(candidates.size)
            pick = top[np.argsort(-scores[top], kind="stable")]
            ranked[row] = candidates[pick]
            out_scores[row] = scores[pick]
        return ranked, out_scores

    def history(self, user: int) -> list[int]:
        """Copy of the engine's current history of ``user``."""
        self._validate_user(user)
        if self._histories is None:
            raise RuntimeError("snapshot engines hold no history lists")
        return list(self._histories[user])

    def observe(self, user: int, item: int) -> None:
        """Record a new ``(user, item)`` interaction incrementally.

        Appends to the user's history, shifts the padded input row,
        marks the item as seen and invalidates only that user's cached
        representation — the next request recomputes one row instead of
        the whole table.
        """
        self._validate_user(user)
        self._validate_item(item)
        if not self._inputs.flags.writeable:
            raise RuntimeError(
                "this snapshot engine's inputs are read-only; observe() "
                "needs an engine built from histories or writable inputs"
            )
        if self._histories is not None:
            self._histories[user].append(item)
        row = self._inputs[user]
        row[:-1] = row[1:]
        row[-1] = item
        if self._seen_items is not None:
            self._seen_items[user] = np.append(self._seen_items[user], item)
        if self._rep_valid is not None:
            self._rep_valid[user] = False

    def replay_observe(self, user: int, item: int) -> None:
        """Re-apply an already-acknowledged interaction to a fresh snapshot.

        Recovery path of the sharded engine: a respawned shard worker
        re-attaches to shared memory whose padded input rows already
        contain every acknowledged ``observe`` (the previous incarnation
        shifted them in place), but the per-user seen arrays and the
        representation-validity bits are process-local and restart from
        the original snapshot.  Replay closes exactly that gap — it
        marks ``item`` seen and invalidates ``user``'s cached
        representation *without* shifting the input row again, so
        applying one replay per acknowledged observe reconstructs the
        dead worker's scoring state bit-for-bit.
        """
        self._validate_user(user)
        self._validate_item(item)
        if self._seen_items is not None:
            self._seen_items[user] = np.append(self._seen_items[user], item)
        if self._rep_valid is not None:
            self._rep_valid[user] = False

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _validate_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise ValueError(f"user id {user} outside [0, {self.num_users})")

    def _validate_item(self, item: int) -> None:
        if not 0 <= item < self.num_items:
            raise ValueError(f"item id {item} outside [0, {self.num_items})")

    def _as_user_array(self, users) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be a 1-d sequence of user ids")
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            bad = users[(users < 0) | (users >= self.num_users)][0]
            raise ValueError(f"user id {bad} outside [0, {self.num_users})")
        return users

    def _compute_representations(self, users: np.ndarray) -> np.ndarray:
        """Model forward over ``users``' inputs, in micro-batches."""
        result = np.empty((users.size, self._frozen.embedding_dim),
                          dtype=self._frozen.candidate_embeddings.dtype)
        for start in range(0, users.size, self.micro_batch_size):
            chunk = users[start:start + self.micro_batch_size]
            with no_grad():
                result[start:start + self.micro_batch_size] = (
                    self.model.sequence_representation(chunk, self._inputs[chunk]).data
                )
        return result

    def _ensure_representations(self, users: np.ndarray) -> None:
        """Compute and cache representations for the not-yet-valid users."""
        pending = np.unique(users[~self._rep_valid[users]])
        if pending.size == 0:
            return
        self._representations[pending] = self._compute_representations(pending)
        self._rep_valid[pending] = True

    def _representations_for(self, users: np.ndarray) -> np.ndarray:
        if self._rep_valid is not None:
            self._ensure_representations(users)
            return self._representations[users]
        return self._compute_representations(users)

    def _block_scores(self, users: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Raw scores of validated ``users`` in one product (or model call).

        ``out`` is a :meth:`FrozenScorer.score_buffer` the result may
        live in; only :meth:`top_k_scored` passes one, since its scores
        never leave the engine.
        """
        if self._frozen is not None:
            return self._frozen.scores_from_representation(
                self._representations_for(users), out)
        return self.model.score_all(users, self._inputs[users])

    def _mask_seen(self, scores: np.ndarray, users: np.ndarray) -> np.ndarray:
        """``scores`` with each user's seen items pushed to ``-inf``.

        In place on the fast path, whose scores the engine owns; the
        ``model.score_all`` fallback masks a defensive float64 copy (a
        model override may return aliased or integer-typed scores).
        """
        if self._frozen is None:
            scores = np.array(scores, dtype=np.float64, copy=True)
        # Built through the shared CSR index (one pass over the
        # histories); the per-user views stay cheap to index with and
        # observe() replaces them per user as interactions arrive.
        self._ensure_seen_arrays()
        if users.size == 0:
            return scores
        # One flat fancy assignment per block instead of one per row.
        seen = [self._seen_items[user] for user in users]
        lengths = np.fromiter(map(len, seen), dtype=np.int64, count=len(seen))
        scores[np.repeat(np.arange(len(seen)), lengths),
               np.concatenate(seen)] = -np.inf
        return scores

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_all(self, users) -> np.ndarray:
        """Raw scores of every real item, ``(B, num_items)``.

        Matches ``model.score_all`` on the same users bit-for-bit (the
        parity the evaluators rely on), but serves repeated requests from
        the cached representations.  The result is a fresh array: it
        leaves the engine, so it never shares memory with the buffer
        :meth:`top_k_scored` reuses.
        """
        users = self._as_user_array(users)
        if self._frozen is not None:
            return self._block_scores(users)
        chunks = [self._block_scores(users[start:start + self.micro_batch_size])
                  for start in range(0, users.size, self.micro_batch_size)]
        if not chunks:
            return np.zeros((0, self.num_items), dtype=np.float64)
        return chunks[0] if len(chunks) == 1 else np.vstack(chunks)

    def masked_scores(self, users) -> np.ndarray:
        """Scores with seen items pushed to ``-inf``.

        A fresh array, as :meth:`score_all`'s: the mask is applied in
        place on the fast path, and to a defensive float64 copy on the
        ``model.score_all`` fallback (see :meth:`_mask_seen`).
        """
        users = self._as_user_array(users)
        return self._mask_seen(self.score_all(users), users)

    def top_k_scored(self, users, k: int, exclude_seen: bool | None = None,
                     mode: str | None = None, n_probe: int | None = None,
                     candidate_multiplier: int | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked top-``k`` ids per user, best first, and their float64 scores.

        ``mode`` selects the retrieval stage: ``"exact"`` (the default)
        scores the full catalogue — large user lists are processed in
        ``micro_batch_size`` chunks, each scored into the same buffer of
        this call, so only ``(chunk, num_items + 1)`` scores are alive at
        a time (models without a frozen head, and heads whose item bias
        would widen the product's dtype, allocate per chunk).  ``"ann"``
        asks the attached :class:`~repro.retrieval.index.ANNIndex` for
        candidates and re-ranks only those with exact scores; ``n_probe`` /
        ``candidate_multiplier`` override the index's dial defaults for
        this request (more probes → higher recall, more latency).
        Seen items are masked to ``-inf`` before ranking, so only ids
        and scores leave the engine, never full score rows.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if mode not in (None, "exact", "ann"):
            raise ValueError(f"mode must be 'exact' or 'ann', got {mode!r}")
        exclude = self.exclude_seen if exclude_seen is None else exclude_seen
        users = self._as_user_array(users)
        if mode == "ann":
            return self._ann_top_k(users, k, exclude, n_probe,
                                   candidate_multiplier)
        width = min(k, self.num_items)
        ranked = np.empty((users.size, width), dtype=np.int64)
        out_scores = np.empty((users.size, width), dtype=np.float64)
        batch = self.micro_batch_size
        # One scratch per call, never stored on the engine: concurrent
        # calls (evaluator threads, gateway and node threads) each own
        # theirs, and every block of this call (the ragged last one in its
        # leading rows) is scored into it instead of into fresh pages.
        buffer = (self._frozen.score_buffer(min(users.size, batch))
                  if self._frozen is not None else None)
        for start in range(0, users.size, batch):
            chunk = users[start:start + batch]
            scores = self._block_scores(chunk, buffer)
            if exclude:
                scores = self._mask_seen(scores, chunk)
            ids = top_k_items(scores, k)
            stop = start + batch
            ranked[start:stop] = ids
            out_scores[start:stop] = scores[np.arange(ids.shape[0])[:, None], ids]
        return ranked, out_scores

    def score(self, user: int, item: int) -> float:
        """The model score of one (user, candidate item) pair."""
        self._validate_user(user)
        self._validate_item(item)
        return float(self.score_all([user])[0, item])

    def similar_items(self, item: int, k: int = 10) -> list[Recommendation]:
        """Items most similar to ``item`` under the model's own geometry.

        Gradient-based models answer with the cosine between candidate
        embeddings; count-based models that expose ``neighbors``
        (ItemKNN) answer from their item-similarity matrix.
        """
        self._validate_item(item)
        if k < 1:
            raise ValueError("k must be positive")
        if self._frozen is None:
            if not hasattr(self.model, "neighbors"):
                raise NotImplementedError(
                    f"{type(self.model).__name__} has no item embeddings"
                )
            return [Recommendation(item=neighbor, score=similarity, rank=rank)
                    for rank, (neighbor, similarity)
                    in enumerate(self.model.neighbors(item, k))]
        table = self._frozen.candidate_embeddings[: self.num_items]
        norms = np.linalg.norm(table, axis=1)
        norms = np.where(norms > 0, norms, 1.0)
        similarities = (table @ table[item]) / (norms * norms[item])
        similarities[item] = -np.inf
        order = np.argsort(-similarities, kind="stable")[:k]
        return [
            Recommendation(item=int(other), score=float(similarities[other]), rank=rank)
            for rank, other in enumerate(order)
        ]


def threaded_top_k_scored(engine: ScoringEngine, users, k: int,
                          n_workers: int) -> tuple[np.ndarray, np.ndarray]:
    """``engine.top_k_scored(users, k)`` over ``n_workers`` threads.

    The calling thread first builds the seen arrays and caches every
    requested user's representation, one ``micro_batch_size`` block at a
    time as the serial sweep does, so the model forward (and ``no_grad``,
    a process-global flag) only ever runs on the caller.  The users are
    then cut into ``min(n_workers, blocks)`` contiguous ranges on block
    boundaries: every gemm holds exactly the rows the serial sweep gives
    it, which keeps the result bit-identical.  Each range is ranked on a
    thread of a per-call pool that is joined before returning.

    With ``n_workers <= 1``, a single block, or an engine without the
    representation cache (count-based models score through
    ``model.score_all``), the sweep runs inline.
    """
    users = engine._as_user_array(users)
    batch = engine.micro_batch_size
    blocks = -(-users.size // batch)
    n_ranges = min(n_workers, blocks)
    if n_ranges <= 1 or engine._rep_valid is None:
        return engine.top_k_scored(users, k)
    if engine.exclude_seen:
        engine._ensure_seen_arrays()
    for start in range(0, users.size, batch):
        engine._ensure_representations(users[start:start + batch])
    base, extra = divmod(blocks, n_ranges)
    edges = [min(users.size, batch * (part * base + min(part, extra)))
             for part in range(n_ranges + 1)]
    with ThreadPoolExecutor(max_workers=n_ranges) as pool:
        parts = list(pool.map(lambda lo, hi: engine.top_k_scored(users[lo:hi], k),
                              edges[:-1], edges[1:]))
    return (np.concatenate([ranked for ranked, _ in parts]),
            np.concatenate([scores for _, scores in parts]))


# ---------------------------------------------------------------------- #
# The snapshot layout: one writer (snapshot_arrays), one reader
# (ScoringEngine.from_arrays)
# ---------------------------------------------------------------------- #
def snapshot_arrays(inputs: np.ndarray, seen_indptr: np.ndarray,
                    seen_items: np.ndarray, frozen: FrozenScorer | None = None,
                    ann: ANNIndex | None = None) -> dict[str, np.ndarray]:
    """The named arrays of a scoring snapshot: the one writer of the layout.

    ``inputs`` is the ``(num_users, input_length)`` padded history
    matrix and ``seen_indptr`` / ``seen_items`` the CSR seen arrays.  A
    frozen scoring head adds ``candidates`` (``(num_items + 1, d)``, pad
    row included) and, when the model has one, ``item_bias``; an ANN
    index adds its ``ann_*`` arrays.  Which keys are present is the
    whole description of the snapshot's shape, so the sharded engine's
    shared-memory arena and the cluster's snapshot frame carry no flags
    beside it.
    """
    arrays = {"inputs": inputs, "seen_indptr": seen_indptr,
              "seen_items": seen_items}
    if frozen is not None:
        arrays["candidates"] = frozen.candidate_embeddings
        if frozen.item_bias is not None:
            arrays["item_bias"] = frozen.item_bias
    if ann is not None:
        arrays.update(ann.to_arrays())
    return arrays


def _validate_snapshot(arrays: Mapping[str, np.ndarray], num_users: int,
                       num_items: int, input_length: int) -> None:
    """Raise ``ValueError`` naming the first key that breaks the layout."""
    def fail(key: str, problem: str):
        raise ValueError(f"snapshot array {key!r} {problem}")

    for key in ("inputs", "seen_indptr", "seen_items"):
        if key not in arrays:
            fail(key, "is missing")
    if arrays["inputs"].shape != (num_users, input_length):
        fail("inputs", f"has shape {arrays['inputs'].shape}, expected "
                       f"{(num_users, input_length)}")
    indptr, items = arrays["seen_indptr"], arrays["seen_items"]
    if indptr.shape != (num_users + 1,):
        fail("seen_indptr", f"has shape {indptr.shape}, expected "
                            f"{(num_users + 1,)}")
    if items.ndim != 1:
        fail("seen_items", f"has shape {items.shape}, expected one dimension")
    if indptr[0] != 0 or indptr[-1] != items.shape[0] or (np.diff(indptr) < 0).any():
        fail("seen_indptr", f"is not a CSR index over {items.shape[0]} seen "
                            "items (must start at 0, never decrease and end "
                            "at len(seen_items))")
    if items.size and (items.min() < 0 or items.max() >= num_items):
        fail("seen_items", f"holds ids outside [0, {num_items})")
    if "candidates" in arrays:
        candidates = arrays["candidates"]
        if candidates.ndim != 2 or candidates.shape[0] != num_items + 1:
            fail("candidates", f"has shape {candidates.shape}, expected "
                               f"({num_items + 1}, d)")
    if "item_bias" in arrays and arrays["item_bias"].shape != (num_items + 1,):
        fail("item_bias", f"has shape {arrays['item_bias'].shape}, expected "
                          f"{(num_items + 1,)}")


def _seen_views(indptr: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
    """Per-user item views into the CSR seen arrays."""
    return [items[indptr[user]:indptr[user + 1]]
            for user in range(indptr.shape[0] - 1)]
