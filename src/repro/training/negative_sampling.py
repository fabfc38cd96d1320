"""Negative sampling for the BPR objective.

Following the paper (Section 4.4, after [5] and [8]), one non-interacted
item is sampled uniformly for every interacted target item.  "Non-
interacted" is judged against the user's whole training sequence, so the
sampler is constructed once per training run with the training sequences.

The default path is fully vectorized: a whole batch of candidates is
drawn at once, membership against the per-user seen sets is answered by
the CSR-style :class:`~repro.data.seen.SeenIndex` (the same structure
the serving engine uses for its seen masks), and only the colliding
entries are re-drawn — up to ``max_resample`` rounds, mirroring the
legacy per-element bound.  The seed repo's per-element Python rejection
loop is kept behind ``vectorized=False`` as the reference
implementation; both produce the same marginal distribution (uniform
over the user's unseen items).
"""

from __future__ import annotations

import numpy as np

from repro.data.seen import SeenIndex

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Sample negative items per (user, positive item) pair.

    Parameters
    ----------
    num_items:
        Number of real items; samples are drawn from ``[0, num_items)``.
    user_sequences:
        Per-user training sequences; sampled negatives avoid the user's
        interacted items.
    rng:
        Random generator (pass the trainer's generator for reproducibility).
    max_resample:
        How many times a colliding sample is re-drawn before being accepted
        anyway; guards against pathological users who interacted with
        nearly every item.
    vectorized:
        Use the batched resampling path (default).  ``False`` selects the
        per-element Python loop, kept as the reference for the
        parity/distribution tests.
    """

    def __init__(self, num_items: int, user_sequences: list[list[int]] | None = None,
                 rng: np.random.Generator | None = None, max_resample: int = 20,
                 vectorized: bool = True, seen_index: SeenIndex | None = None):
        if num_items < 1:
            raise ValueError("num_items must be positive")
        if max_resample < 1:
            raise ValueError("max_resample must be positive")
        if (user_sequences is None) == (seen_index is None):
            raise ValueError("pass exactly one of user_sequences or seen_index")
        self.num_items = num_items
        self.rng = rng or np.random.default_rng()
        self.max_resample = max_resample
        self.vectorized = vectorized
        # A prebuilt index lets data-loading workers attach the parent's
        # shared-memory CSR arrays instead of re-deriving (or pickling)
        # the per-user seen sets.
        self.seen_index = seen_index if seen_index is not None \
            else SeenIndex.from_histories(user_sequences, num_items)
        self._seen_sets: list[set[int]] | None = None

    def seen_items(self, user: int) -> set[int]:
        """The items the sampler avoids for ``user``."""
        if self._seen_sets is None:
            self._seen_sets = [
                self.seen_index.user_set(user)
                for user in range(self.seen_index.num_users)
            ]
        if 0 <= user < len(self._seen_sets):
            return self._seen_sets[user]
        return set()

    def sample(self, users: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Sample negatives of ``shape`` where ``shape[0] == len(users)``.

        Each row of the output corresponds to the user in the same row of
        ``users``; every entry is an item the user has not interacted with
        (best effort, see ``max_resample``).
        """
        users = np.asarray(users, dtype=np.int64)
        if shape[0] != len(users):
            raise ValueError("shape[0] must equal the number of users")
        if self.vectorized:
            return self._sample_vectorized(users, shape)
        return self._sample_rejection_python(users, shape)

    # ------------------------------------------------------------------ #
    # Vectorized path
    # ------------------------------------------------------------------ #
    def _sample_vectorized(self, users: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        negatives = self.rng.integers(0, self.num_items, size=shape)
        if negatives.size == 0 or self.seen_index.total == 0:
            return negatives
        per_row = negatives.size // len(users) if len(users) else 0
        values = negatives.reshape(-1)
        users_flat = np.repeat(users, per_row)
        colliding = self.seen_index.contains(users_flat, values)
        rounds = 0
        while rounds < self.max_resample and colliding.any():
            redraw = self.rng.integers(0, self.num_items, size=int(colliding.sum()))
            values[colliding] = redraw
            # Narrow the collision mask to the entries that are *still* seen.
            colliding[colliding] = self.seen_index.contains(
                users_flat[colliding], redraw
            )
            rounds += 1
        return values.reshape(shape)

    # ------------------------------------------------------------------ #
    # Legacy per-element path (reference implementation)
    # ------------------------------------------------------------------ #
    def _sample_rejection_python(self, users: np.ndarray,
                                 shape: tuple[int, ...]) -> np.ndarray:
        negatives = self.rng.integers(0, self.num_items, size=shape)
        for row, user in enumerate(users):
            seen = self.seen_items(int(user))
            if not seen:
                continue
            row_values = negatives[row].reshape(-1)
            for position, value in enumerate(row_values):
                attempts = 0
                while value in seen and attempts < self.max_resample:
                    value = int(self.rng.integers(0, self.num_items))
                    attempts += 1
                row_values[position] = value
            negatives[row] = row_values.reshape(negatives[row].shape)
        return negatives
