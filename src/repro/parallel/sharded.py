"""Multi-process sharded scoring engine with shard supervision.

The serial :class:`~repro.serving.engine.ScoringEngine` made a single
request cheap; this module makes a *sweep* fast by fanning requests out
over persistent worker processes, each owning a contiguous user-range
shard.  The expensive, read-only state — padded per-user inputs, the CSR
seen-item arrays and the frozen candidate table — is published exactly
once into a :class:`~repro.parallel.shm.SharedArena`; each worker
attaches zero-copy views and wires them into a regular
:meth:`ScoringEngine.from_arrays` engine.  Because every worker runs
the serial engine's own code on identical arrays, sharded
``top_k_scored`` answers (and the ``top_k`` / ``recommend_batch`` /
``recommend`` verbs derived from it) are **bit-for-bit identical** to
the single-process engine (asserted by the test suite and by
``bench/``'s reference check).

Request flow::

    parent                          worker i (users [s_i, e_i))
    ------                          ----------------------------
    partition users by shard  --->  task queue: (rid, method, users, kw)
    scatter result rows       <---  result queue: (rid, rows)

Workers cache the representations of their shard lazily, exactly like
the serial engine, so repeated sweeps cost one matmul + mask + top-k
selection per shard — spread over ``n_workers`` cores.

The engine always runs at least two workers; :func:`make_scoring_engine`
is the one factory that picks the serial engine for ``n_workers < 2``,
so callers can thread an ``n_workers`` knob through without
special-casing single-core machines.

Fault tolerance
---------------
A dead shard worker no longer bricks the engine.  The parent supervises
its workers through a :class:`~repro.parallel.supervisor.ShardSupervisor`:

* **Respawn** — a dead worker is replaced by a fresh process that
  re-attaches to the already-published arena (the picklable
  ``ArenaLayout`` makes this one queue message, not a re-publication).
  Acknowledged ``observe`` interactions are replayed into the new
  incarnation (seen/representation state only — the shared input rows
  were already shifted in place), and the dead shard's in-flight
  *idempotent* sub-requests are re-dispatched onto a fresh task queue,
  so the merged answer stays bit-identical to the no-crash run.
* **Degrade** — after :class:`~repro.parallel.supervisor.RestartPolicy`
  exhausts the restart budget (exponential backoff between respawns,
  enforced as a per-shard circuit breaker), the shard falls back to an
  in-process serial engine built over the parent's own arena views.
  The service answers degraded instead of failing.
* **Deadlines** — every public call takes a ``timeout`` (defaulting to
  the constructor's ``request_timeout_s``); an expired deadline raises
  ``TimeoutError`` for *that* request and drops its late results as
  stale, without poisoning later requests.
* **At-most-once observe** — ``observe`` is the one non-idempotent
  request (re-applying it would double-shift the shared input row).  If
  the owning worker dies with an observe in flight, the call raises
  instead of re-dispatching; a deadline expiry on observe is likewise
  indeterminate (the worker may still apply it).  Scoring requests are
  pure reads and re-dispatch freely.

Deterministic failures for tests come from
:class:`~repro.parallel.faults.FaultPlan` (``fault_plan=`` constructor
parameter); ``health()`` / ``stats()`` expose per-shard liveness,
restart counts and the shed/stale/deadline counters.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import queue as queue_module
import time
import traceback
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.data.seen import SeenIndex
from repro.data.windows import pad_histories, pad_id_for
from repro.models.base import SequentialRecommender
from repro.parallel.faults import FaultInjector, FaultPlan
from repro.parallel.shm import ArenaLayout, SharedArena
from repro.parallel.supervisor import RestartPolicy, ShardSupervisor
from repro.retrieval.index import ANNIndex, RetrievalConfig
from repro.serving.engine import RankingVerbs, ScoringEngine, snapshot_arrays

__all__ = ["ShardedScoringEngine", "make_scoring_engine", "shard_bounds",
           "default_start_method", "DEFAULT_REQUEST_TIMEOUT_S"]

#: Default per-request deadline (seconds).  Overridable per engine via
#: ``request_timeout_s`` and per call via ``timeout=``; ``None`` waits
#: forever (the pre-deadline behaviour).
DEFAULT_REQUEST_TIMEOUT_S = 120.0

#: Result-queue poll interval while a request waits: short enough that
#: worker deaths and deadline expiries are noticed promptly, long enough
#: to stay off the profile.
_POLL_INTERVAL_S = 0.05

#: Upper bound on how long close() waits for the workers to exit by
#: themselves (draining their results meanwhile) before terminating them.
_SHUTDOWN_WAIT_S = 10.0


def make_scoring_engine(model, histories, n_workers: int = 0,
                        exclude_seen: bool = True, micro_batch_size: int = 1024,
                        copy_weights: bool = True, precompute: bool = False,
                        request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
                        restart_policy: RestartPolicy | None = None,
                        fault_plan: FaultPlan | None = None,
                        ann_config: RetrievalConfig | None = None):
    """The one ``n_workers``-aware engine factory.

    ``n_workers > 1`` builds a :class:`ShardedScoringEngine`; anything
    else the serial :class:`~repro.serving.engine.ScoringEngine`
    (``copy_weights`` applies to the serial branch only — sharded
    workers always hold a copied snapshot; ``request_timeout_s`` /
    ``restart_policy`` / ``fault_plan`` apply to the sharded branch
    only, as the serial engine never blocks on another process).  Both
    results expose ``close()``, so callers can tear down
    unconditionally.

    ``ann_config`` additionally trains an ANN candidate index over the
    frozen candidate table (enabling ``top_k(..., mode="ann")``); the
    sharded branch trains it once in the parent and publishes it through
    the arena so every worker attaches the same index zero-copy.
    """
    if n_workers and n_workers > 1:
        return ShardedScoringEngine(model, histories, n_workers=n_workers,
                                    exclude_seen=exclude_seen,
                                    micro_batch_size=micro_batch_size,
                                    precompute=precompute,
                                    request_timeout_s=request_timeout_s,
                                    restart_policy=restart_policy,
                                    fault_plan=fault_plan,
                                    ann_config=ann_config)
    engine = ScoringEngine(model, histories, exclude_seen=exclude_seen,
                           micro_batch_size=micro_batch_size,
                           copy_weights=copy_weights, precompute=precompute)
    if ann_config is not None:
        engine.build_ann_index(ann_config)
    return engine


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the model), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def shard_bounds(num_users: int, n_shards: int) -> np.ndarray:
    """Contiguous user-range shard boundaries, shape ``(n_shards + 1,)``.

    Users are split as evenly as possible; the first ``num_users %
    n_shards`` shards get one extra user.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    base, extra = divmod(num_users, n_shards)
    sizes = np.full(n_shards, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def _execute_request(engine: ScoringEngine, method: str, users,
                     kwargs: dict):
    """Run one shard sub-request against a serial engine.

    The single dispatch shared by the worker loop and the parent's
    degraded in-process fallback — both therefore run the exact same
    serial code path, which is what keeps degraded answers bit-identical
    to worker answers.
    """
    if method == "top_k_scored":
        return engine.top_k_scored(users, **kwargs)
    if method == "observe":
        # Shard-local incremental update: shifts the user's padded input
        # row (writable shm), extends their seen array and invalidates
        # one cached representation — no snapshot rebuild anywhere.
        engine.observe(int(users[0]), int(kwargs["item"]))
        return True
    if method == "materialize":
        shard_users = np.arange(users[0], users[1], dtype=np.int64)
        if engine._rep_valid is not None:
            engine._ensure_representations(shard_users)
        return True
    raise ValueError(f"unknown request method {method!r}")


def _shard_worker_main(layout: ArenaLayout, model: SequentialRecommender,
                       options: dict, task_queue, result_queue) -> None:
    """Worker loop: attach shared state, serve requests until sentinel."""
    arena = SharedArena.attach(layout)
    injector = None
    if options.get("fault_plan") is not None:
        injector = FaultInjector(options["fault_plan"], options["shard"],
                                 options.get("incarnation", 0))
    try:
        # Zero-copy: every array is an arena view.  The ANN index arrays
        # are the read-only bytes the parent trained, so candidates are
        # identical across shards and worker counts.
        engine = ScoringEngine.from_arrays(
            model, arena.arrays(), exclude_seen=options["exclude_seen"],
            micro_batch_size=options["micro_batch_size"])
        while True:
            message = task_queue.get()
            if message is None:
                break
            request_id, method, users, kwargs = message
            if method == "replay_observes":
                # Recovery bootstrap of a respawned incarnation: re-mark
                # the acknowledged interactions seen and invalidate their
                # representations (the shm input rows are already
                # current).  Fire-and-forget — queued before any
                # re-dispatched request, so FIFO ordering guarantees the
                # state is rebuilt first.
                for user, item in kwargs["entries"]:
                    engine.replay_observe(int(user), int(item))
                if request_id is None:
                    continue
            if injector is not None:
                injector.on_request()
            try:
                payload = _execute_request(engine, method, users, kwargs)
                if injector is not None:
                    injector.before_reply()
                result_queue.put((request_id, payload, None))
            except Exception:
                result_queue.put((request_id, None, traceback.format_exc()))
    finally:
        arena.close()


@dataclass
class _PendingRequest:
    """Parent-side record of one dispatched shard sub-request.

    Carries everything needed to re-dispatch the request onto a
    respawned worker (or run it inline on a degraded shard) and to merge
    its result back into the caller's output (``tag`` is the caller's
    bookkeeping — output positions for fan-outs, the shard index for
    materialize).
    """

    shard: int
    method: str
    users: object
    kwargs: dict = field(default_factory=dict)
    tag: object = None


class ShardedScoringEngine(RankingVerbs):
    """Scoring engine sharded by user range over supervised workers.

    Parameters
    ----------
    model:
        Any trained model of the study.  The model is shipped to each
        worker once at startup (by fork inheritance or one pickle);
        afterwards only user-id arrays and result rows cross the process
        boundary.
    histories:
        Per-user interaction histories, as for the serial engine.
    n_workers:
        Worker processes, at least two (:func:`make_scoring_engine`
        builds the serial engine below that).
    exclude_seen / micro_batch_size:
        As for :class:`~repro.serving.engine.ScoringEngine`.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it.
    precompute:
        Materialize every shard's representations eagerly (in parallel)
        at construction.
    request_timeout_s:
        Default per-request deadline in seconds for every scoring call
        (overridable per call via ``timeout=``).  ``None`` disables
        deadlines.  Replaces the old hard-coded module constant; the
        default keeps its value (120 s).
    restart_policy:
        :class:`~repro.parallel.supervisor.RestartPolicy` governing dead
        worker respawns, backoff and the degrade-to-serial fallback.
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` injected into
        the workers — deterministic crashes/delays/stalls for the chaos
        test suite.  Production engines
        leave this ``None``.
    """

    def __init__(self, model: SequentialRecommender, histories: list[list[int]],
                 n_workers: int = 2, exclude_seen: bool = True,
                 micro_batch_size: int = 1024, start_method: str | None = None,
                 precompute: bool = False,
                 request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
                 restart_policy: RestartPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 ann_config: RetrievalConfig | None = None):
        if len(histories) < model.num_users:
            raise ValueError(
                f"histories cover {len(histories)} users but the model expects "
                f"{model.num_users}"
            )
        if micro_batch_size < 1:
            raise ValueError("micro_batch_size must be positive")
        if n_workers < 2:
            raise ValueError(
                f"ShardedScoringEngine needs n_workers >= 2, got {n_workers}; "
                "make_scoring_engine builds the serial engine for fewer")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive or None")
        model.eval()
        self.model = model
        self.num_users = model.num_users
        self.num_items = model.num_items
        self.input_length = model.input_length
        self.pad_id = pad_id_for(model.num_items)
        self.exclude_seen = exclude_seen
        self.micro_batch_size = micro_batch_size
        self.n_workers = int(n_workers)
        self.request_timeout_s = request_timeout_s

        self._ann: ANNIndex | None = None
        self._arena: SharedArena | None = None
        self._workers: list = []
        self._task_queues: list = []
        self._result_queues: list = []
        self._request_counter = 0
        self._closed = False
        self._finalizer = None
        self._supervisor = ShardSupervisor(self.n_workers, restart_policy)
        self._fault_plan = fault_plan
        # Observability counters (see stats()).
        self._stale_results = 0
        self._deadline_timeouts = 0
        self._redispatched = 0
        # Degraded-mode state: a lazily built in-process engine over the
        # parent's own arena views, plus the per-shard log of
        # acknowledged observes (replayed into respawned workers and
        # into the degraded engine) and the per-shard watermark of how
        # much of each log the degraded engine has already applied.
        self._degraded_engine: ScoringEngine | None = None
        self._observed_log: list[list[tuple[int, int]]] = [
            [] for _ in range(self.n_workers)]
        self._replayed_upto = [0] * self.n_workers

        # Parent-side history bookkeeping (history() parity with the
        # serial engine); the scoring state itself lives in the workers.
        self._histories = [list(histories[user]) for user in range(self.num_users)]

        # ---- materialize the shared, read-only state once ------------- #
        # Like the serial engine, only the first num_users histories are
        # part of the snapshot (callers may pass a longer list).  The
        # seen arrays are published even for exclude_seen=False engines:
        # unlike the serial engine, workers cannot build them lazily (no
        # histories), and top_k(..., exclude_seen=True) must keep working
        # per request.  The cost is one pass over the histories — the
        # same order as the pad_histories call above.
        inputs = pad_histories(histories, self.input_length, self.pad_id,
                               users=np.arange(self.num_users, dtype=np.int64))
        seen = SeenIndex.from_histories(histories[:self.num_users], self.num_items)
        try:
            frozen = model.freeze(copy=True)
        except NotImplementedError:
            frozen = None

        # The ANN index is trained once here and published alongside the
        # engine arrays — workers (and the degraded fallback) attach the
        # same read-only bytes, so candidate generation is identical in
        # every process.
        if ann_config is not None:
            if frozen is None:
                raise NotImplementedError(
                    f"{type(model).__name__} has no candidate-embedding "
                    "table; ANN retrieval needs the representation fast path"
                )
            self._ann = ANNIndex.build(
                np.ascontiguousarray(frozen.candidate_embeddings[:self.num_items]),
                ann_config)
        # "inputs" stays worker-writable: each padded row is owned by
        # exactly one shard, whose task queue serializes the observe()
        # updates against that shard's scoring requests.
        self._arena = SharedArena.publish(
            snapshot_arrays(inputs, seen.indptr, seen.items, frozen, self._ann),
            writable_keys={"inputs"})

        self._bounds = shard_bounds(self.num_users, self.n_workers)
        self._options = {
            "exclude_seen": exclude_seen,
            "micro_batch_size": micro_batch_size,
            "fault_plan": fault_plan,
        }

        self._ctx = mp.get_context(start_method or default_start_method())
        self._workers = [None] * self.n_workers
        self._task_queues = [None] * self.n_workers
        # One result queue per shard, recreated on every respawn: queue
        # locks are not robust to SIGKILL (a worker killed mid-reply
        # would hold a shared queue's write lock forever and starve the
        # healthy shards), so no queue is ever shared between workers.
        self._result_queues = [None] * self.n_workers
        try:
            for shard in range(self.n_workers):
                self._spawn_shard(shard, incarnation=0)
        except Exception:
            self.close()
            raise
        # Belt-and-braces cleanup if the caller forgets close().  The
        # worker/queue lists are passed *live* (not copied) so respawned
        # workers are still covered; the finalizer only touches OS
        # resources, never the worker results.
        self._finalizer = weakref.finalize(
            self, _cleanup, self._arena, self._workers,
            self._task_queues, self._result_queues)
        if precompute:
            self.materialize()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def supports_deadlines(self) -> bool:
        """Whether scoring calls accept a per-request ``timeout=``.

        The capability probe the gateway uses before propagating its
        request deadlines into the engine.
        """
        return True

    def shard_of(self, users: np.ndarray) -> np.ndarray:
        """Shard index of each user id."""
        users = np.asarray(users, dtype=np.int64)
        return np.searchsorted(self._bounds, users, side="right") - 1

    def history(self, user: int) -> list[int]:
        """Copy of the engine's current history of ``user``."""
        if not 0 <= user < self.num_users:
            raise ValueError(f"user id {user} outside [0, {self.num_users})")
        return list(self._histories[user])

    def health(self) -> dict:
        """Liveness snapshot: per-shard supervision state, JSON-ready.

        Keys: ``mode`` (always ``"sharded"``), ``alive`` (engine open),
        ``n_workers``, ``degraded_shards`` and the per-shard ``shards``
        records (liveness, restarts, incarnation, breaker window, exit
        codes) from the :class:`~repro.parallel.supervisor.ShardSupervisor`.
        """
        return {
            "mode": "sharded",
            "alive": not self._closed,
            "n_workers": self.n_workers,
            "degraded_shards": self._supervisor.degraded_shards,
            "shards": self._supervisor.snapshot(),
        }

    def stats(self) -> dict:
        """Request/fault counters since construction, JSON-ready.

        ``stale_results_dropped`` counts results discarded in the merge
        because their request was re-dispatched, timed out or abandoned
        — silent before, observable now so retry correctness can be
        audited.  ``redispatched`` counts sub-requests re-sent to a
        respawned worker; ``deadline_timeouts`` counts requests failed
        by an expired deadline.
        """
        return {
            "requests": self._request_counter,
            "stale_results_dropped": self._stale_results,
            "deadline_timeouts": self._deadline_timeouts,
            "redispatched": self._redispatched,
            "worker_deaths": self._supervisor.total_deaths,
            "restarts": self._supervisor.total_restarts,
            "degraded_shards": len(self._supervisor.degraded_shards),
            "observed_interactions": sum(len(log) for log in self._observed_log),
        }

    def observe(self, user: int, item: int, timeout: float | None = None) -> None:
        """Record a ``(user, item)`` interaction, shard-aware.

        The update is routed to the worker owning ``user``'s range and
        applied there through the serial engine's own ``observe`` — one
        padded-row shift, one seen-array extension and one cached-
        representation invalidation.  No snapshot is rebuilt and the
        other shards are never touched.  The call returns once the
        owning worker acknowledged the update, so a subsequent request
        for the same user reflects it (per-shard task queues are FIFO).

        Observe is the engine's only non-idempotent request: if the
        owning worker dies while one is in flight, the call raises
        ``RuntimeError`` instead of re-dispatching (a replay would
        double-shift the input row), and a ``TimeoutError`` here is
        indeterminate — the worker may still apply the update after the
        deadline.  Both leave the engine serving.
        """
        if not 0 <= user < self.num_users:
            raise ValueError(f"user id {user} outside [0, {self.num_users})")
        if not 0 <= item < self.num_items:
            raise ValueError(f"item id {item} outside [0, {self.num_items})")
        self._check_open()
        deadline = self._deadline_for(timeout)
        shard = int(self.shard_of(np.asarray([user]))[0])
        if not self._is_degraded(shard):
            self._ensure_shard_ready(shard, deadline)
        if self._is_degraded(shard):
            engine = self._degraded_engine_for(shard)
            engine.observe(user, item)
            self._observed_log[shard].append((user, item))
            self._replayed_upto[shard] = len(self._observed_log[shard])
            self._histories[user].append(item)
            return
        self._request_counter += 1
        request_id = self._request_counter
        users = np.asarray([user], dtype=np.int64)
        kwargs = {"item": int(item)}
        self._task_queues[shard].put((request_id, "observe", users, kwargs))
        self._collect({request_id: _PendingRequest(shard, "observe", users,
                                                   kwargs)}, deadline)
        # Record the interaction only after the owning worker's ack, so
        # a failed/retried observe cannot leave history() diverged from
        # the shard's actual scoring state.
        self._histories[user].append(item)
        self._observed_log[shard].append((user, item))

    # ------------------------------------------------------------------ #
    # Supervision: respawn, degrade, deadlines
    # ------------------------------------------------------------------ #
    def _deadline_for(self, timeout: float | None) -> float | None:
        """Monotonic-clock deadline of a call (``None`` = wait forever)."""
        effective = self.request_timeout_s if timeout is None else timeout
        if effective is None:
            return None
        if effective <= 0:
            raise ValueError("timeout must be positive or None")
        return time.monotonic() + float(effective)

    def _is_degraded(self, shard: int) -> bool:
        return self._supervisor.health_of(shard).degraded

    def _spawn_shard(self, shard: int, incarnation: int) -> None:
        """Start (or restart) the worker process of ``shard``.

        Each incarnation gets a *fresh* task queue: messages left on a
        dead incarnation's queue are deliberately abandoned, so a
        request can never execute both from the old queue and from its
        re-dispatch (which matters for the non-idempotent observe).
        Respawns replay the shard's acknowledged observes before any
        re-dispatched request (FIFO).
        """
        options = dict(self._options, shard=shard, incarnation=incarnation)
        task_queue = self._ctx.Queue()
        result_queue = self._ctx.Queue()
        if incarnation and self._observed_log[shard]:
            entries = [(int(user), int(item))
                       for user, item in self._observed_log[shard]]
            task_queue.put((None, "replay_observes", None, {"entries": entries}))
        worker = self._ctx.Process(
            target=_shard_worker_main,
            args=(self._arena.layout, self.model, options, task_queue,
                  result_queue),
            daemon=True,
        )
        worker.start()
        self._task_queues[shard] = task_queue
        self._result_queues[shard] = result_queue
        self._workers[shard] = worker

    def _retire_worker(self, shard: int) -> None:
        """Reap a dead worker and abandon both of its queues.

        The dead incarnation's result queue may be corrupt (the worker
        could have been killed mid-reply), so it is never read again —
        re-dispatch onto the fresh incarnation recomputes anything lost.
        """
        worker = self._workers[shard]
        if worker is not None:
            worker.join(timeout=1.0)
        for old_queue in (self._task_queues[shard], self._result_queues[shard]):
            if old_queue is None:
                continue
            try:
                old_queue.cancel_join_thread()
                old_queue.close()
            except Exception:
                pass
        self._workers[shard] = None
        self._task_queues[shard] = None
        self._result_queues[shard] = None

    def _degraded_engine_for(self, shard: int) -> ScoringEngine:
        """The in-process fallback engine, caught up on observed state.

        Built lazily over the parent's *own* arena views (the owner
        mapping is writable, so observes keep working), then brought up
        to date by replaying every shard's acknowledged observes past
        its watermark — the shared input rows already hold them, only
        the seen/representation state needs the replay.  One engine
        serves all degraded shards; requests for live shards never touch
        it, so per-shard catch-up on later degradations stays correct.
        """
        engine = self._degraded_engine
        if engine is None:
            engine = ScoringEngine.from_arrays(
                self.model, self._arena.arrays(),
                exclude_seen=self.exclude_seen,
                micro_batch_size=self.micro_batch_size)
            self._degraded_engine = engine
        for other in range(self.n_workers):
            log = self._observed_log[other]
            for user, item in log[self._replayed_upto[other]:]:
                engine.replay_observe(user, item)
            self._replayed_upto[other] = len(log)
        return engine

    def _execute_inline(self, shard: int, method: str, users, kwargs: dict):
        """Serve one sub-request of a degraded shard in-process."""
        return _execute_request(self._degraded_engine_for(shard), method,
                                users, kwargs)

    def _ensure_shard_ready(self, shard: int, deadline: float | None) -> None:
        """Pre-dispatch gate: recover a dead worker, honour the breaker.

        May leave the shard degraded (caller re-checks) and raises
        :class:`~repro.parallel.supervisor.ShardCircuitOpenError` when
        the shard's post-respawn backoff window outlives ``deadline``.
        """
        worker = self._workers[shard]
        if worker is not None and not worker.is_alive():
            self._recover({}, {}, deadline)
        if self._is_degraded(shard):
            return
        self._supervisor.wait_for_breaker(shard, deadline)

    def _recover(self, pending: dict[int, _PendingRequest],
                 results: dict[int, object], deadline: float | None) -> None:
        """Handle every dead worker: respawn + re-dispatch, or degrade.

        Called whenever a result wait comes up empty (and before
        dispatching to a shard found dead).  Idempotent in-flight
        sub-requests of a dead shard are re-dispatched onto the fresh
        incarnation — or, once the restart budget is spent, answered
        inline by the degraded fallback (into ``results``).  An
        in-flight observe aborts with ``RuntimeError`` *after* the shard
        has been recovered, so the engine stays serving.
        """
        aborted_observe: tuple[int, int | None] | None = None
        for shard in range(self.n_workers):
            worker = self._workers[shard]
            if worker is None or worker.is_alive():
                continue
            exitcode = worker.exitcode
            self._supervisor.record_death(shard, exitcode)
            self._retire_worker(shard)
            inflight = {rid: request for rid, request in pending.items()
                        if request.shard == shard and rid not in results}
            observes = [rid for rid, request in inflight.items()
                        if request.method == "observe"]
            if observes:
                self._supervisor.record_aborted(shard, len(observes))
                aborted_observe = (shard, exitcode)
            if self._supervisor.should_respawn(shard):
                self._supervisor.record_respawn(shard)
                incarnation = self._supervisor.health_of(shard).incarnation
                self._spawn_shard(shard, incarnation)
                for rid, request in inflight.items():
                    if request.method == "observe":
                        continue
                    self._task_queues[shard].put(
                        (rid, request.method, request.users, request.kwargs))
                    self._redispatched += 1
            else:
                self._supervisor.record_degraded(shard)
                for rid, request in inflight.items():
                    if request.method == "observe":
                        continue
                    results[rid] = self._execute_inline(
                        shard, request.method, request.users, request.kwargs)
        if aborted_observe is not None:
            shard, exitcode = aborted_observe
            raise RuntimeError(
                f"shard {shard} worker died (exitcode {exitcode}) with an "
                f"observe in flight; the interaction was not recorded — "
                f"the shard has been recovered, retry observe()"
            )

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #
    def _as_user_array(self, users) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be a 1-d sequence of user ids")
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            bad = users[(users < 0) | (users >= self.num_users)][0]
            raise ValueError(f"user id {bad} outside [0, {self.num_users})")
        return users

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

    def _collect(self, pending: dict[int, _PendingRequest],
                 deadline: float | None) -> dict[int, object]:
        """Drain results for the outstanding request ids in ``pending``.

        Polls the per-shard result queues in short intervals so worker
        deaths (→ :meth:`_recover`) and deadline expiries (→
        ``TimeoutError``) are noticed within ``_POLL_INTERVAL_S``.
        Results of requests this merge no longer expects — late answers
        of timed-out or re-dispatched requests — are dropped and counted
        in ``stats()['stale_results_dropped']``.
        """
        results: dict[int, object] = {}
        while len(results) < len(pending):
            timeout = _POLL_INTERVAL_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    self._deadline_timeouts += 1
                    outstanding = len(pending) - len(results)
                    raise TimeoutError(
                        f"request deadline expired with {outstanding} shard "
                        f"sub-request(s) outstanding"
                    )
                timeout = min(timeout, remaining)
            shards = sorted({request.shard
                             for request_id, request in pending.items()
                             if request_id not in results})
            received = False
            for index, shard in enumerate(shards):
                result_queue = self._result_queues[shard]
                if result_queue is None:
                    continue  # respawn/degrade already answered via _recover
                try:
                    if not received and index == len(shards) - 1:
                        # Nothing drained so far and this is the last
                        # outstanding shard: block for one poll interval
                        # instead of spinning.
                        message = result_queue.get(timeout=timeout)
                    else:
                        message = result_queue.get_nowait()
                except queue_module.Empty:
                    continue
                received = True
                request_id, payload, error = message
                if request_id not in pending or request_id in results:
                    self._stale_results += 1
                    continue
                if error is not None:
                    raise RuntimeError(
                        f"shard worker request failed:\n{error}")
                results[request_id] = payload
            if not received:
                # A slow shard is not an error: check for dead workers
                # (respawn/degrade as budget allows) and keep waiting
                # until the deadline says otherwise.
                self._recover(pending, results, deadline)
        return results

    def _fan_out(self, users: np.ndarray, kwargs: dict,
                 timeout: float | None) -> list[tuple[np.ndarray, object]]:
        """Send per-shard ``top_k_scored`` subsets, return ``(positions,
        payload)`` pairs.

        Degraded shards are served inline by the in-process fallback;
        live shards go through the breaker gate, the task queues and the
        deadline-aware collect.
        """
        self._check_open()
        deadline = self._deadline_for(timeout)
        method = "top_k_scored"
        shard_ids = self.shard_of(users)
        merged: list[tuple[np.ndarray, object]] = []
        pending: dict[int, _PendingRequest] = {}
        for shard in np.unique(shard_ids):
            shard = int(shard)
            positions = np.nonzero(shard_ids == shard)[0]
            shard_users = users[positions]
            if not self._is_degraded(shard):
                self._ensure_shard_ready(shard, deadline)
            if self._is_degraded(shard):
                merged.append((positions,
                               self._execute_inline(shard, method, shard_users,
                                                    kwargs)))
                continue
            self._request_counter += 1
            request_id = self._request_counter
            self._task_queues[shard].put(
                (request_id, method, shard_users, dict(kwargs)))
            pending[request_id] = _PendingRequest(shard, method, shard_users,
                                                 dict(kwargs), positions)
        if pending:
            results = self._collect(pending, deadline)
            merged.extend((request.tag, results[request_id])
                          for request_id, request in pending.items())
        return merged

    # ------------------------------------------------------------------ #
    # Scoring API (mirrors the serial engine)
    # ------------------------------------------------------------------ #
    def materialize(self, timeout: float | None = None) -> "ShardedScoringEngine":
        """Eagerly compute every shard's representation cache, in parallel."""
        self._check_open()
        deadline = self._deadline_for(timeout)
        pending: dict[int, _PendingRequest] = {}
        for shard in range(self.n_workers):
            span = (int(self._bounds[shard]), int(self._bounds[shard + 1]))
            if not self._is_degraded(shard):
                self._ensure_shard_ready(shard, deadline)
            if self._is_degraded(shard):
                self._execute_inline(shard, "materialize", span, {})
                continue
            self._request_counter += 1
            request_id = self._request_counter
            self._task_queues[shard].put((request_id, "materialize", span, {}))
            pending[request_id] = _PendingRequest(shard, "materialize", span,
                                                 {}, shard)
        if pending:
            self._collect(pending, deadline)
        return self

    @property
    def ann_index(self):
        """The shared ANN candidate index, or ``None`` (exact only)."""
        return self._ann

    def top_k_scored(self, users, k: int, exclude_seen: bool | None = None,
                     timeout: float | None = None, mode: str | None = None,
                     n_probe: int | None = None,
                     candidate_multiplier: int | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked top-``k`` ids per user and their float64 scores.

        ``mode`` / ``n_probe`` / ``candidate_multiplier`` select and
        tune the ANN candidate stage exactly as on the serial
        :meth:`~repro.serving.engine.ScoringEngine.top_k_scored`; each
        worker serves its shard through the same attached index, so
        sharded ANN answers match the serial engine's on the same
        snapshot.
        """
        if k < 1:
            raise ValueError("k must be positive")
        users = self._as_user_array(users)
        width = min(k, self.num_items)
        ranked = np.empty((users.size, width), dtype=np.int64)
        scores = np.empty((users.size, width), dtype=np.float64)
        if users.size == 0:
            return ranked, scores
        for positions, payload in self._fan_out(
                users,
                {"k": k, "exclude_seen": exclude_seen, "mode": mode,
                 "n_probe": n_probe,
                 "candidate_multiplier": candidate_multiplier},
                timeout):
            ranked[positions] = payload[0]
            scores[positions] = payload[1]
        return ranked, scores

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers, join them and release the shared segment."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            self._finalizer.detach()
        _cleanup(self._arena, self._workers, self._task_queues,
                 self._result_queues)
        self._workers = []
        self._task_queues = []
        self._result_queues = []
        self._arena = None
        self._degraded_engine = None

    def __enter__(self) -> "ShardedScoringEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cleanup(arena: SharedArena | None, workers: list, task_queues: list,
             result_queues: list = ()) -> None:
    """Shutdown path shared by close() and the GC finalizer.

    Sends every worker its sentinel, then alternates two steps until all
    workers have exited or ``_SHUTDOWN_WAIT_S`` has passed: drain the
    result queues without blocking, and wait on the live workers'
    process sentinels for at most ``_POLL_INTERVAL_S``.  A healthy
    worker's exit wakes the wait at once, so a clean close costs what the
    workers take to exit.  The drain matters after an error: a worker may
    still be flushing a large result into its queue and cannot exit until
    the parent reads it, so it is never force-terminated for being slow.
    Workers still alive after the deadline are joined, then terminated.
    Entries may be ``None`` (degraded shards have no worker/queue).
    """
    for queue in task_queues:
        if queue is None:
            continue
        try:
            queue.put(None)
        except Exception:
            pass
    live = [worker for worker in workers if worker is not None]
    deadline = time.monotonic() + _SHUTDOWN_WAIT_S
    running = [worker for worker in live if worker.is_alive()]
    while running and time.monotonic() < deadline:
        for queue in result_queues:
            if queue is None:
                continue
            try:
                while True:
                    queue.get_nowait()
            except Exception:  # Empty, or a queue a dead worker broke
                pass
        mp_connection.wait([worker.sentinel for worker in running],
                           timeout=_POLL_INTERVAL_S)
        running = [worker for worker in running if worker.is_alive()]
    for worker in live:
        worker.join(timeout=1.0)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=5.0)
    for queue in list(task_queues) + list(result_queues):
        if queue is None:
            continue
        try:
            queue.cancel_join_thread()
            queue.close()
        except Exception:
            pass
    if arena is not None:
        arena.close()
