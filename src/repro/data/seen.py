"""CSR-style per-user seen-item index.

Both halves of the runtime story need "has user u interacted with item
i?" in bulk: the serving engine masks seen items out of score rows and
the BPR negative sampler rejects seen items when drawing negatives.  The
seed code answered it with one Python ``set`` per user — per-element
membership tests in the innermost loops.

:class:`SeenIndex` stores the same information as two flat arrays
(``indptr`` + sorted unique ``items`` per user segment, exactly the CSR
layout the scoring engine introduced for its seen masks), plus a lazily
built globally sorted key array ``user * num_items + item`` that answers
*batched* membership queries with one ``searchsorted`` — no Python loop,
memory proportional to the number of interactions.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

__all__ = ["SeenIndex"]


class SeenIndex:
    """Immutable per-user seen-item sets in CSR form.

    Parameters
    ----------
    indptr:
        ``(num_users + 1,)`` segment offsets into ``items``.
    items:
        Concatenated per-user item ids, sorted and unique within each
        user's segment.
    num_items:
        Number of real items (ids are in ``[0, num_items)``).
    """

    __slots__ = ("num_users", "num_items", "indptr", "items", "_keys")

    def __init__(self, indptr: np.ndarray, items: np.ndarray, num_items: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.num_users = int(self.indptr.shape[0] - 1)
        self.num_items = int(num_items)
        self._keys: np.ndarray | None = None

    @classmethod
    def from_histories(cls, histories: Sequence[Sequence[int]],
                       num_items: int) -> "SeenIndex":
        """Build the index from per-user interaction histories.

        One sort over ``user * span + item`` keys for all users, where
        ``span`` covers every id present (so an id outside
        ``[0, num_items)`` stays with its user, as it did when each
        history was deduplicated on its own).
        """
        num_users = len(histories)
        lengths = np.fromiter(map(len, histories), dtype=np.int64, count=num_users)
        flat = np.fromiter(chain.from_iterable(histories), dtype=np.int64,
                           count=int(lengths.sum()))
        indptr = np.zeros(num_users + 1, dtype=np.int64)
        if flat.size == 0:
            return cls(indptr, flat, num_items)
        low = min(0, int(flat.min()))
        span = max(num_items, int(flat.max()) + 1) - low
        keys = np.repeat(np.arange(num_users, dtype=np.int64), lengths) * span
        keys += flat - low
        keys.sort()
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        owner, items = np.divmod(keys[distinct], span)
        np.cumsum(np.bincount(owner, minlength=num_users), out=indptr[1:])
        return cls(indptr, items + low, num_items)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Total number of stored (user, item) pairs."""
        return int(self.items.shape[0])

    def counts(self) -> np.ndarray:
        """Number of distinct seen items per user, shape ``(num_users,)``."""
        return np.diff(self.indptr)

    def user_items(self, user: int) -> np.ndarray:
        """Sorted unique items of ``user`` (a view; empty for unknown users)."""
        if not 0 <= user < self.num_users:
            return np.zeros(0, dtype=np.int64)
        return self.items[self.indptr[user]:self.indptr[user + 1]]

    def user_set(self, user: int) -> set[int]:
        """The seen items of ``user`` as a Python set."""
        return set(self.user_items(user).tolist())

    # ------------------------------------------------------------------ #
    # Batched membership
    # ------------------------------------------------------------------ #
    def _key_array(self) -> np.ndarray:
        if self._keys is None:
            # user-major, per-user-sorted -> globally sorted without a sort.
            users = np.repeat(np.arange(self.num_users, dtype=np.int64),
                              np.diff(self.indptr))
            self._keys = users * np.int64(self.num_items) + self.items
        return self._keys

    def contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized membership: ``out[i] = items[i] in seen(users[i])``.

        ``users`` and ``items`` are broadcast-compatible int arrays; users
        outside ``[0, num_users)`` and items outside ``[0, num_items)``
        have (by definition) not been seen.  The item guard also keeps an
        out-of-range id from colliding with an adjacent user's key
        segment in the encoding below.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        users, items = np.broadcast_arrays(users, items)
        result = np.zeros(users.shape, dtype=bool)
        if self.total == 0 or users.size == 0:
            return result
        valid = ((users >= 0) & (users < self.num_users)
                 & (items >= 0) & (items < self.num_items))
        keys = self._key_array()
        queries = users[valid] * np.int64(self.num_items) + items[valid]
        positions = np.searchsorted(keys, queries)
        positions_clipped = np.minimum(positions, keys.shape[0] - 1)
        result[valid] = keys[positions_clipped] == queries
        return result
