"""Online serving gateway: async micro-batching over the scoring engine.

The engines serve *batches* cheaply — one ``(B, d) @ (d, num_items)``
matmul amortizes all per-request overhead — but online traffic arrives
as *single-user* requests.  The :class:`ServingGateway` is the front-end
that reconciles the two: callers submit requests from any thread and get
a :class:`GatewayFuture` back immediately; a background flusher thread
coalesces whatever is queued into one engine batch and resolves all the
futures at once.  The flusher is **work-conserving**: whenever it is
free and the queue is non-empty it pops up to ``max_batch`` requests
and calls the engine at once — no request ever waits on a timer.
Requests coalesce only while a call (or an ``observe``) holds the
engine, so batch size tracks load by itself: a lone request on an idle
gateway is a batch of one at service-time latency, and under load
batches grow to ``max_batch`` (see ``docs/serving.md``).

The gateway handles ids, never score rows.  A flush asks the engine
for ``top_k_scored(users, kmax)`` — the ranking happens where the scores
are, and only ``kmax`` ids and scores per user come back (over the wire,
on a cluster) — and every request takes its ``[:k]`` prefix; exact and
ANN retrieval share this one path.  Layered over the engine's per-user
*representation* cache, the gateway keeps a
:class:`~repro.serving.cache.TopKCache` of finished *answers* (LRU +
TTL), and :meth:`ServingGateway.submit` consults it **before** queueing:
a hot user's repeat request is resolved on the caller's own thread and
never meets the queue, the flusher or the engine.  Because a cached
answer is the engine's own ``top_k_scored`` output (until
``observe``/``refresh`` invalidates it) and top-k lists nest, gateway
results are **bit-identical** to direct ``ScoringEngine.top_k`` calls —
asserted by the test suite and by ``bench/``'s reference check.

``observe(user, item)`` forwards the interaction to the engine (which
routes it to the owning shard when the engine is a
:class:`~repro.parallel.sharded.ShardedScoringEngine`) and drops only
that user's cached answers before it returns, so every later
``submit`` sees the interaction.

The gateway works over any engine exposing ``top_k_scored`` /
``observe`` — the serial :class:`~repro.serving.engine.ScoringEngine`,
the sharded multi-process engine, and the multi-node
:class:`~repro.cluster.router.ClusterRouter` alike
(:meth:`ServingGateway.over_cluster` wires the last one up directly),
so micro-batching, caching and shedding work unchanged over the wire.

Admission control and deadlines
-------------------------------
Under overload a bounded queue that *blocks* converts every caller into
a hung thread; the gateway sheds instead.  With ``max_queue`` set,
:meth:`submit` fails fast with :class:`GatewayOverloadedError` once that
many requests are queued — the error carries a ``retry_after_s`` hint
derived from the observed batch service time (EWMA) and the current
backlog.  Per-request deadlines (``submit(..., timeout=...)``) expire
queued requests before they waste a flush, bound how long a flush waits
on the engine (propagated as the engine's own ``timeout=`` when it
advertises ``supports_deadlines``), and surface as ``TimeoutError`` on
the future.  ``health()`` reports queue depth, flusher liveness and —
for a sharded engine — the per-shard supervision state underneath.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.serving.cache import CacheStats, TopKCache
from repro.serving.engine import Recommendation, recommendations

__all__ = ["GatewayFuture", "GatewayStats", "ServingGateway",
           "GatewayOverloadedError"]

#: Weight of the newest batch in the service-time EWMA behind the
#: ``retry_after_s`` hint of :class:`GatewayOverloadedError`.
_EWMA_ALPHA = 0.2

#: Stand-in batch service time behind the ``retry_after_s`` hint until
#: the first batch completes and seeds the EWMA: without it a cold
#: gateway would hint ~0 seconds — telling shed clients to hammer it
#: during the thundering-herd moment it is least able to absorb.
_COLD_START_RETRY_S = 0.05


class GatewayOverloadedError(RuntimeError):
    """The gateway queue is at its high watermark; the request was shed.

    Raised by :meth:`ServingGateway.submit` instead of queueing (or
    blocking) when ``max_queue`` requests are already waiting.
    ``retry_after_s`` estimates when capacity frees up — the observed
    batch service time scaled by the backlog — so callers can back off
    instead of hammering the gateway.
    """

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"gateway queue full; retry in ~{retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


class GatewayFuture:
    """Handle to one in-flight gateway request.

    Resolved by the flusher thread — or, on a cache hit, by
    :meth:`ServingGateway.submit` itself before it returns;
    :meth:`result` blocks the caller until then.  Futures are
    single-assignment: exactly one of a value or an error is ever set.
    """

    __slots__ = ("_event", "_ranked", "_scores", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._ranked: np.ndarray | None = None
        self._scores: np.ndarray | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the request has been resolved (value or error)."""
        return self._event.is_set()

    def _resolve(self, ranked: np.ndarray, scores: np.ndarray) -> None:
        self._ranked = ranked
        self._scores = scores
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The ranked top-k item ids (best first), blocking until ready.

        Raises the batch's error if the engine call failed, and
        ``TimeoutError`` if ``timeout`` seconds elapse first.  The
        array is read-only: it may be the answer cache's own, shared
        with every other caller served from it.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("gateway request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._ranked

    def recommendations(self, timeout: float | None = None) -> list[Recommendation]:
        """The result as :class:`Recommendation` entries (item/score/rank).

        Scores are the engine's float64 ``top_k_scored`` scores, in
        exact and ANN mode alike.
        """
        return recommendations([self.result(timeout)], [self._scores])[0]


@dataclass(frozen=True)
class GatewayStats:
    """Operational counters of one :class:`ServingGateway`.

    ``requests`` counts every accepted :meth:`ServingGateway.submit`,
    cache hits answered inside it included; ``batches`` counts engine
    batches only, so ``mean_batch_size`` is misses per engine call and
    ``requests - cache.hits`` is what the batches carried.
    ``flush_full`` counts the batches cut at ``max_batch`` (at least one
    call's worth was queued — the gateway is loaded) and ``flush_drain``
    those flushed by the close-time drain; every other batch is
    whatever was queued when the flusher came free.  ``flush_deadline``
    is always 0: there is no flush timer any more, and the field
    survives only because the frozen ``bench/serve.py`` reads it — the
    next ``benchmark`` PR retires it together with
    ``gateway.flush_deadline_share``.
    ``shed`` counts submissions refused with
    :class:`GatewayOverloadedError` at the ``max_queue`` watermark, and
    ``expired`` counts requests failed by their own deadline (while
    queued or at flush time).  ``cache`` is the embedded
    :class:`~repro.serving.cache.CacheStats` snapshot, or ``None`` when
    the gateway was built with caching off.
    """

    requests: int
    batches: int
    flush_full: int
    flush_drain: int
    max_batch_observed: int
    mean_batch_size: float
    shed: int = 0
    expired: int = 0
    cache: CacheStats | None = None
    flush_deadline: int = 0  # always 0; read by the frozen bench/serve.py

    def as_dict(self) -> dict:
        """Plain-dict form with the cache stats inlined."""
        payload = {
            "requests": self.requests,
            "batches": self.batches,
            "flush_full": self.flush_full,
            "flush_drain": self.flush_drain,
            "max_batch_observed": self.max_batch_observed,
            "mean_batch_size": self.mean_batch_size,
            "shed": self.shed,
            "expired": self.expired,
        }
        if self.cache is not None:
            payload["cache"] = self.cache.as_dict()
        return payload


@dataclass
class _Request:
    """One queued request plus its deadline and future.

    ``deadline`` is a monotonic-clock instant (``None`` = no deadline):
    the flusher fails the request with ``TimeoutError`` once it passes,
    whether the request is still queued or about to be batched.
    """

    user: int
    k: int
    masked: bool
    deadline: float | None = None
    future: GatewayFuture = field(default_factory=GatewayFuture)


class ServingGateway:
    """Async micro-batching front-end over a scoring engine.

    Parameters
    ----------
    engine:
        The engine requests are served from — a serial
        :class:`~repro.serving.engine.ScoringEngine` or a
        :class:`~repro.parallel.sharded.ShardedScoringEngine`.  The
        gateway serializes every engine call behind one lock, so the
        engine needs no thread-safety of its own.
    max_batch:
        Most requests one engine call takes.  The flusher never waits
        for a batch to fill: it serves whatever is queued the moment it
        is free, so this only caps how much a backlog amortizes per
        call.
    cache_size:
        Capacity of the hot-user answer cache (entries, a few hundred
        bytes each at ``k=10``); ``0`` disables caching entirely.
    cache_ttl_s:
        Optional TTL for cached answers (seconds); ``None`` keeps them
        until eviction or invalidation.
    max_queue:
        High-watermark admission control: with this many requests
        already queued, :meth:`submit` sheds (raises
        :class:`GatewayOverloadedError` with a retry-after hint) instead
        of queueing; cache hits are never queued and so never shed.
        ``None`` (default) never sheds — the pre-existing behaviour.
    request_timeout_s:
        Default per-request deadline applied to every :meth:`submit`
        that does not pass its own ``timeout``; ``None`` (default)
        means no deadline.
    retrieval_mode:
        ``"exact"`` (default) has the engine score and rank the full
        catalogue per batch.  ``"ann"`` serves batches through the
        engine's ANN candidate stage (``top_k_scored(mode="ann")``) —
        sub-linear in catalogue size; the engine must have an ANN index
        attached.  Both feed the answer cache: the mode and its dial
        are fixed for the gateway's life, so they are not in the key.
    n_probe / candidate_multiplier:
        Optional ANN dial overrides applied to every batch in
        ``retrieval_mode="ann"`` (``None`` inherits the index
        defaults).
    own_engine:
        When true, :meth:`close` also closes the engine.

    Notes
    -----
    The gateway starts its flusher thread at construction and must be
    closed (it is also a context manager).  Requests still queued at
    close time are drained, not dropped.
    """

    def __init__(self, engine, max_batch: int = 32, cache_size: int = 256,
                 cache_ttl_s: float | None = None,
                 max_queue: int | None = None,
                 request_timeout_s: float | None = None,
                 retrieval_mode: str = "exact",
                 n_probe: int | None = None,
                 candidate_multiplier: int | None = None,
                 own_engine: bool = False):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative (0 disables)")
        if cache_ttl_s is not None and cache_ttl_s <= 0:
            raise ValueError("cache_ttl_s must be positive (or None to disable)")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be positive (or None to disable)")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive (or None)")
        if retrieval_mode not in ("exact", "ann"):
            raise ValueError(
                f"retrieval_mode must be 'exact' or 'ann', got {retrieval_mode!r}")
        self.retrieval_mode = retrieval_mode
        self.n_probe = None if n_probe is None else int(n_probe)
        self.candidate_multiplier = (None if candidate_multiplier is None
                                     else int(candidate_multiplier))
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_queue = None if max_queue is None else int(max_queue)
        self.request_timeout_s = request_timeout_s
        self.cache = (TopKCache(cache_size, ttl_s=cache_ttl_s)
                      if cache_size else None)
        self._own_engine = own_engine
        # Propagate request deadlines into engines that accept them
        # (the sharded engine advertises the capability).
        self._engine_deadlines = bool(getattr(engine, "supports_deadlines",
                                              False))
        # What every top_k_scored call carries besides users and k.
        self._retrieval_kwargs = (
            {} if retrieval_mode == "exact"
            else {"mode": "ann", "n_probe": self.n_probe,
                  "candidate_multiplier": self.candidate_multiplier})

        self._lock = threading.Lock()
        self._queued = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        self._closed = False

        # Engine access is serialized: the flusher thread and
        # observe()/refresh() callers never touch it concurrently.  The
        # cache has its own lock for lookups, but is only *written*
        # under this one — compute + put here, observe + invalidate
        # there — so a put can never land after the invalidate it raced.
        self._engine_lock = threading.Lock()

        self._requests = 0
        self._batches = 0
        self._flush_full = 0
        self._flush_drain = 0
        self._batched_requests = 0
        self._max_batch_observed = 0
        self._shed = 0
        self._expired = 0
        # EWMA of batch service seconds, behind the retry-after hint.
        self._service_ewma_s: float | None = None

        self._thread = threading.Thread(target=self._run, name="gateway-flusher",
                                        daemon=True)
        self._thread.start()

    @classmethod
    def over_cluster(cls, addresses: list[str], *, replication: int = 2,
                     n_ranges: int | None = None,
                     request_timeout_s: float | None = None,
                     heartbeat_interval_s: float = 2.0,
                     **gateway_kwargs) -> "ServingGateway":
        """A gateway whose engine is a :class:`ClusterRouter` over nodes.

        The cluster backend: requests are micro-batched, cached and
        shed exactly as over a local engine, then fanned out by
        consistent user-hash to the ``addresses`` node table with
        replica failover (see :mod:`repro.cluster.router`).
        ``observe()`` is routed to the owning node and replayed to its
        replicas; deadlines propagate into the router's retry budget.
        The router is owned: closing the gateway closes it.
        """
        from repro.cluster.router import ClusterRouter

        router = ClusterRouter(addresses, replication=replication,
                               n_ranges=n_ranges,
                               heartbeat_interval_s=heartbeat_interval_s,
                               **({"request_timeout_s": request_timeout_s}
                                  if request_timeout_s is not None else {}))
        return cls(router, own_engine=True, **gateway_kwargs)

    # ------------------------------------------------------------------ #
    # Request API
    # ------------------------------------------------------------------ #
    def submit(self, user: int, k: int = 10,
               exclude_seen: bool | None = None,
               timeout: float | None = None) -> GatewayFuture:
        """Answer one single-user top-k request from the cache, or enqueue it.

        Returns immediately either way: on a cache hit (an answer at
        least ``k`` wide, not invalidated or expired) the returned
        future is already resolved, from the caller's own thread;
        otherwise the request joins the flusher's queue.

        ``exclude_seen=None`` inherits the engine's default.  Raises at
        the call site on invalid ids so bad requests never poison a
        batch, with ``RuntimeError`` on a closed gateway (cached answer
        or not), and with :class:`GatewayOverloadedError` when the
        request would have to queue at the ``max_queue`` watermark — a
        hit adds no load, so it is served even then.

        ``timeout`` (seconds, default: the gateway's
        ``request_timeout_s``) is the request's end-to-end deadline: it
        bounds queueing *and* the engine flush, and an expired request
        fails with ``TimeoutError`` — pass the same value to
        :meth:`GatewayFuture.result` to bound the caller's wait too.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if not 0 <= user < self.engine.num_users:
            raise ValueError(f"user id {user} outside [0, {self.engine.num_users})")
        if timeout is None:
            timeout = self.request_timeout_s
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        masked = bool(self.engine.exclude_seen if exclude_seen is None
                      else exclude_seen)
        # No answer is wider than the catalogue, so an entry that spans
        # it serves every k.
        user, k = int(user), min(int(k), self.engine.num_items)
        answer = (None if self.cache is None
                  else self.cache.get((user, masked), k))
        if answer is None:
            request = _Request(user=user, k=k, masked=masked,
                               deadline=(None if timeout is None
                                         else time.monotonic() + timeout))
        with self._lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            if answer is None:
                if (self.max_queue is not None
                        and len(self._queue) >= self.max_queue):
                    self._shed += 1
                    raise GatewayOverloadedError(self._retry_after_locked())
                self._queue.append(request)
                self._queued.notify()  # one waiter: the flusher
            self._requests += 1
        if answer is None:
            return request.future
        future = GatewayFuture()
        future._resolve(*answer)
        return future

    def _retry_after_locked(self) -> float:
        """Retry hint for a shed request (callers hold ``self._lock``).

        Batches needed to drain the backlog times the observed batch
        service time (EWMA; ``_COLD_START_RETRY_S`` until the first
        batch completes), never under 1 ms — a rough "when does
        capacity free up", not a guarantee.
        """
        service = self._service_ewma_s
        if service is None:
            service = _COLD_START_RETRY_S
        backlog_batches = max(1, -(-len(self._queue) // self.max_batch))
        return max(service * backlog_batches, 1e-3)

    def top_k(self, user: int, k: int = 10,
              exclude_seen: bool | None = None,
              timeout: float | None = None) -> np.ndarray:
        """Blocking top-k for one user (``submit`` + ``result``)."""
        future = self.submit(user, k, exclude_seen=exclude_seen,
                             timeout=timeout)
        return future.result(timeout)

    def recommend(self, user: int, k: int = 10) -> list[Recommendation]:
        """Blocking :class:`Recommendation` list for one user."""
        return self.submit(user, k).recommendations()

    def observe(self, user: int, item: int) -> None:
        """Record a new interaction and invalidate the user's cached answers.

        Delegates to ``engine.observe`` — which a sharded engine routes
        to the owning user-range worker — then drops the user's answers
        from the gateway cache, both before returning: every ``submit``
        issued afterwards re-scores.
        """
        with self._engine_lock:
            self.engine.observe(user, item)
            if self.cache is not None:
                self.cache.invalidate_user(user)

    def refresh(self) -> None:
        """Re-snapshot the engine's weights and clear the answer cache.

        Serial engines only: a sharded engine's frozen table lives in
        an already-published shared-memory segment, so refreshing it
        means building a new engine (raises ``NotImplementedError``).
        """
        refresh = getattr(self.engine, "refresh", None)
        if refresh is None:
            raise NotImplementedError(
                f"{type(self.engine).__name__} cannot refresh in place; "
                "build a new engine (and gateway) from the updated model"
            )
        with self._engine_lock:
            refresh()
            if self.cache is not None:
                self.cache.clear()

    def stats(self) -> GatewayStats:
        """Operational counter snapshot (see :class:`GatewayStats`)."""
        # Never the engine lock: a monitoring call must not wait out an
        # engine batch or an observe.
        cache_stats = None if self.cache is None else self.cache.stats()
        with self._lock:
            batches = self._batches
            mean = self._batched_requests / batches if batches else 0.0
            snapshot = GatewayStats(
                requests=self._requests,
                batches=batches,
                flush_full=self._flush_full,
                flush_drain=self._flush_drain,
                max_batch_observed=self._max_batch_observed,
                mean_batch_size=mean,
                shed=self._shed,
                expired=self._expired,
                cache=cache_stats,
            )
        return snapshot

    def health(self) -> dict:
        """Liveness snapshot of the gateway and its engine, JSON-ready.

        Reports the queue depth against the shedding watermark, whether
        the flusher thread is alive, and — when the engine exposes its
        own ``health()`` (the sharded engine does) — the per-shard
        supervision state nested under ``"engine"``.
        """
        with self._lock:
            payload = {
                "closed": self._closed,
                "flusher_alive": self._thread.is_alive(),
                "queue_depth": len(self._queue),
                "max_queue": self.max_queue,
            }
        engine_health = getattr(self.engine, "health", None)
        if engine_health is not None:
            payload["engine"] = engine_health()
        return payload

    # ------------------------------------------------------------------ #
    # Flusher
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _expire_queued_locked(self) -> None:
        """Fail queued requests whose deadline has passed (lock held)."""
        now = time.monotonic()
        if not any(request.deadline is not None and request.deadline <= now
                   for request in self._queue):
            return
        keep: deque[_Request] = deque()
        for request in self._queue:
            if request.deadline is not None and request.deadline <= now:
                self._expired += 1
                request.future._fail(
                    TimeoutError("gateway request deadline expired while queued"))
            else:
                keep.append(request)
        self._queue = keep

    def _next_batch(self) -> list[_Request] | None:
        """Block until anything is queued; ``None`` means shut down.

        Work-conserving: the flusher only gets here once the engine call
        before has returned, so whatever queued up behind that call is
        served now, up to ``max_batch`` — there is no wait for company.
        """
        with self._lock:
            while True:
                self._expire_queued_locked()
                if self._queue:
                    break
                if self._closed:
                    return None
                self._queued.wait()
            if self._closed:
                self._flush_drain += 1
            elif len(self._queue) >= self.max_batch:
                self._flush_full += 1
            batch = [self._queue.popleft()
                     for _ in range(min(len(self._queue), self.max_batch))]
            # Counted before any future resolves: a caller unblocked by
            # result() may read stats() immediately and must see the
            # batch that served it.
            self._batches += 1
            self._batched_requests += len(batch)
            self._max_batch_observed = max(self._max_batch_observed, len(batch))
        return batch

    def _execute(self, batch: list[_Request]) -> None:
        started = time.monotonic()
        # A deadline that passed while the request waited for this flush
        # fails here, before any engine work is spent on it.
        live: list[_Request] = []
        expired = 0
        for request in batch:
            if request.deadline is not None and request.deadline <= started:
                expired += 1
                request.future._fail(
                    TimeoutError("gateway request deadline expired before flush"))
            else:
                live.append(request)
        if expired:
            with self._lock:
                self._expired += expired
        if not live:
            return
        # The engine call is bounded by the earliest deadline in the
        # batch (engines advertising supports_deadlines only).
        engine_timeout = None
        if self._engine_deadlines:
            deadlines = [request.deadline for request in live
                         if request.deadline is not None]
            if deadlines:
                engine_timeout = max(min(deadlines) - started, 1e-3)
        try:
            with self._engine_lock:
                answers = self._answers(live, engine_timeout)
            for request in live:
                ranked, scores = answers[(request.user, request.masked)]
                if ranked.shape[0] > request.k:
                    # Top-k lists nest: the narrower answer is a prefix.
                    ranked, scores = ranked[:request.k], scores[:request.k]
                request.future._resolve(ranked, scores)
        except BaseException as error:
            # Resolve with the error and keep the flusher alive: a dead
            # flusher would strand every future submitted afterwards,
            # which is strictly worse than reporting the failure
            # per-batch.
            timed_out = 0
            for request in live:
                if not request.future.done():
                    request.future._fail(error)
                    if isinstance(error, TimeoutError):
                        timed_out += 1
            if timed_out:
                with self._lock:
                    self._expired += timed_out
        finally:
            elapsed = time.monotonic() - started
            with self._lock:
                if self._service_ewma_s is None:
                    self._service_ewma_s = elapsed
                else:
                    self._service_ewma_s = (
                        _EWMA_ALPHA * elapsed
                        + (1.0 - _EWMA_ALPHA) * self._service_ewma_s)

    def _answers(self, batch: list[_Request],
                 engine_timeout: float | None = None,
                 ) -> dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]]:
        """``(ranked, scores)`` per ``(user, masked)`` of one batch.

        Requests are grouped by their mask flag and deduplicated by
        user (first arrival first); each group is one
        ``engine.top_k_scored`` call at the group's largest ``k`` —
        ranking happens in the engine, shard worker or node that holds
        the scores, and only ids and scores come back.  Each user's
        answer is kept (and cached) as wide as the widest ``k`` asked
        for *that user*, so one catalogue-wide request does not fatten
        its batch-mates' entries.  Runs under ``_engine_lock``.
        """
        widest: dict[tuple[int, bool], int] = {}
        for request in batch:
            key = (request.user, request.masked)
            if widest.get(key, 0) < request.k:
                widest[key] = request.k
        engine_kwargs = dict(self._retrieval_kwargs)
        if engine_timeout is not None:
            engine_kwargs["timeout"] = engine_timeout
        answers = {}
        for masked in (True, False):
            keys = [key for key in widest if key[1] == masked]
            if not keys:
                continue
            ranked, scores = self.engine.top_k_scored(
                np.asarray([user for user, _ in keys], dtype=np.int64),
                max(widest[key] for key in keys),
                exclude_seen=masked, **engine_kwargs)
            # Replies are read-only with or without a cache.
            ranked.flags.writeable = scores.flags.writeable = False
            for position, key in enumerate(keys):
                answer = (ranked[position, :widest[key]],
                          scores[position, :widest[key]])
                if self.cache is not None:
                    # put() returns the cache's owned copies — serve
                    # those instead of pinning the batch matrices.
                    answer = self.cache.put(key, *answer)
                answers[key] = answer
        return answers

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 30.0) -> None:
        """Drain queued requests, stop the flusher and (optionally) the engine.

        Raises ``RuntimeError`` if the flusher fails to drain within
        ``timeout`` seconds — in that case an owned engine is left
        open, since tearing it down under an in-flight batch would turn
        pending results into shutdown errors.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queued.notify()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"gateway flusher did not drain within {timeout:.1f}s; "
                "the engine was left open"
            )
        if self._own_engine:
            self.engine.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
