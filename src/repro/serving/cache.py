"""Hot-user answer cache: LRU eviction, optional TTL, counted, locked.

The :class:`~repro.serving.engine.ScoringEngine` already caches the
expensive half of a request — the per-user *representation* — but every
``top_k`` still pays the ``(d,) @ (d, num_items)`` matmul, the seen
mask and the ranking.  Real traffic is heavily skewed: a small set of
hot users issues most requests, and between two requests of the same
user nothing about their answer changes unless ``observe()`` recorded a
new interaction or the model was re-frozen.

:class:`TopKCache` closes that gap for the
:class:`~repro.serving.gateway.ServingGateway`: it keeps the most
recently used *answers* — the ranked ids and their scores, as wide as
the widest ``k`` they were computed for, a few hundred bytes per entry —
evicts in LRU order once ``capacity`` is reached, and optionally expires
entries ``ttl_s`` seconds after insertion — the freshness bound for
deployments where the engine is periodically re-frozen behind the
gateway's back.  Top-k lists nest (one ranking rule: score descending,
id ascending), so an entry answers every request for at most as many
items as it holds with a prefix.  Every outcome is counted (hits,
misses, evictions, expirations, invalidations) and surfaced through
:meth:`TopKCache.stats`, which the gateway folds into its own stats
report.

The cache owns its lock: the gateway looks answers up on the
submitter's thread while its flusher inserts and ``observe`` invalidates
(both still ordered by the gateway's engine lock, which is what keeps a
stale answer from landing after the invalidation it raced).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

__all__ = ["CacheStats", "TopKCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`TopKCache`.

    ``hits``/``misses`` count :meth:`TopKCache.get` outcomes (an
    expired entry counts as both an expiration and a miss, an entry
    narrower than the requested ``k`` as a miss); ``evictions`` counts
    capacity-driven LRU drops, ``invalidations`` explicit
    per-user/``clear`` removals.  ``size`` is the current number of live
    entries and ``capacity``/``ttl_s`` echo the cache configuration so a
    stats row is self-describing.
    """

    capacity: int
    ttl_s: float | None
    size: int
    hits: int
    misses: int
    evictions: int
    expirations: int
    invalidations: int

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form (counters plus derived ``hit_rate``)."""
        payload = asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload


def _frozen_copy(values: np.ndarray) -> np.ndarray:
    """An owned, read-only copy: entries are handed out as they are."""
    stored = np.array(values, copy=True)
    stored.flags.writeable = False
    return stored


class TopKCache:
    """Capacity-bounded, thread-safe LRU + TTL cache of top-k answers.

    Parameters
    ----------
    capacity:
        Maximum number of cached answers; inserting beyond it evicts the
        least recently used entry.  Must be positive — callers that want
        caching off should not construct a cache at all.
    ttl_s:
        Optional time-to-live in seconds.  An entry older than this is
        treated as absent on lookup (counted as an expiration) and
        removed.  ``None`` disables expiry.
    clock:
        Monotonic time source, injectable for deterministic TTL tests.

    An entry is ``(ids, scores)``, best first, as wide as the ``k`` it
    was served at; it answers any request for at most that many items.
    Keys are arbitrary hashables; the gateway uses ``(user, masked)``
    pairs so the masked and unmasked answer of one user live as separate
    entries, and :meth:`invalidate_user` drops both at once.
    """

    def __init__(self, capacity: int, ttl_s: float | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None to disable)")
        self.capacity = int(capacity)
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (ids, scores, expires_at)
        self._entries: OrderedDict[
            Hashable, tuple[np.ndarray, np.ndarray, float | None]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` holds a live (non-expired) entry.

        Does not touch the LRU order or the hit/miss counters, but does
        drop (and count) an expired entry it finds.
        """
        with self._lock:
            return self._live_entry_locked(key) is not None

    def _live_entry_locked(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is None:
            return None
        expires_at = entry[2]
        if expires_at is not None and self._clock() >= expires_at:
            del self._entries[key]
            self._expirations += 1
            return None
        return entry

    def get(self, key: Hashable, k: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The best ``k`` ``(ids, scores)`` cached for ``key``, or ``None``.

        A miss is no entry, an expired one, or one served at fewer than
        ``k`` items (the wider answer then replaces it through
        :meth:`put`).  A hit refreshes the entry's LRU position and
        allocates nothing when ``k`` equals the entry's width: the
        returned arrays are the cache's own, read-only and shared with
        every other caller.
        """
        with self._lock:
            entry = self._live_entry_locked(key)
            if entry is None or entry[0].shape[0] < k:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        ids, scores, _ = entry
        if ids.shape[0] == k:
            return ids, scores
        return ids[:k], scores[:k]

    def put(self, key: Hashable, ids: np.ndarray,
            scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insert (or replace) the answer for ``key``; returns the stored pair.

        Stores owned read-only copies so an entry never pins a batch
        matrix alive, and returns them so the caller can serve the same
        arrays without copying a second time.  Replacing an existing key
        refreshes its LRU position and TTL deadline; inserting a new key
        beyond ``capacity`` evicts the least recently used entry first.
        """
        ids, scores = _frozen_copy(ids), _frozen_copy(scores)
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            expires_at = (None if self.ttl_s is None
                          else self._clock() + self.ttl_s)
            self._entries[key] = (ids, scores, expires_at)
            self._entries.move_to_end(key)
        return ids, scores

    def invalidate_user(self, user: int) -> int:
        """Drop every answer of ``user`` (masked and raw); returns the count.

        This is the ``observe()`` hook: a new interaction changes both
        the user's representation and their seen mask, so neither cached
        answer may survive.
        """
        with self._lock:
            removed = sum(self._entries.pop((user, masked), None) is not None
                          for masked in (False, True))
            self._invalidations += removed
        return removed

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()

    def stats(self) -> CacheStats:
        """Counter snapshot (see :class:`CacheStats`)."""
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                ttl_s=self.ttl_s,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                invalidations=self._invalidations,
            )
