"""`ClusterRouter`: consistent-hash routing with replica failover.

The client tier of the cluster: a router owns a fixed table of node
addresses, assigns every user to a **range** by consistent hash, and
serves each range from a **replica set** of nodes (primary first).
Because every node holds the complete scoring snapshot, any replica
answers any user bit-identically — replication buys availability, and
the hash assignment buys locality of the ``observe()`` write path, not
correctness.

Failure handling, end to end:

* **Heartbeats** — a background thread pings every node; a node that
  stops answering is marked down and skipped by the request path until
  a later probe (or a desperate retry) finds it again.
* **Failover** — a range request tries its primary, then each replica,
  re-trying in rounds until the caller's deadline runs out.  Each
  attempt's socket work is bounded by the *remaining* budget, so a
  retry never exceeds the caller's deadline (the PR 7 contract), and a
  request only fails when every replica is gone or the budget is spent.
* **Reconnect with backoff** — a failed node's reconnection attempts
  back off exponentially (base/factor/max mirroring
  :class:`~repro.parallel.supervisor.RestartPolicy`), so a dead host is
  not hammered while its replicas carry the load.
* **Stale-result dropping** — requests carry monotonically increasing
  ids; after a timeout the connection is kept and any late reply that
  eventually lands is matched against the *current* id and dropped
  (counted in :meth:`stats`), never delivered to the wrong caller.
* **Epoch fencing + observe replay** — every ``observe()`` is applied
  synchronously to the live replicas of the owning range and appended
  to an ordered log with per-node watermarks.  A node that was down
  catches up from its watermark before serving again; a node whose
  *epoch* changed (crash + fresh process at the same address) is
  replayed from the beginning, because its engine restarted from the
  base snapshot.  That is what keeps post-failover answers bit-identical
  even for users whose history changed mid-flight.
* **Durable observe log** — with ``wal_dir=...`` the log lives in a
  :class:`~repro.durability.wal.WriteAheadLog`: every observe appends
  exactly one fsynced ``O`` record (write-ahead) before it is applied
  anywhere.  Per-node (watermark, epoch) ``W`` records are journaled
  off the per-observe path — at a node's first contact or epoch
  change, after a catch-up that replayed entries, on the heartbeat
  (deduplicated), before compaction and in :meth:`close` — and a
  restarted router rebuilds the log and the watermarks from the WAL:
  a SIGKILLed router comes back and still serves bit-identical top-k,
  including replicated observes.  Sealed WAL segments are compacted
  once every replica's watermark passes them.  Replayed observes carry
  their log sequence number, so a node that already applied an entry
  (same epoch) deduplicates it: a journaled watermark that trails the
  node costs a successor router one re-send per observe since the
  last ``W`` record, never a double apply.

The router implements the engine duck-type (``num_users`` /
``num_items`` / ``exclude_seen`` / ``top_k_scored`` / ``observe`` /
``health`` / ``supports_deadlines``, with ``top_k`` / ``recommend_batch``
/ ``recommend`` derived by :class:`~repro.serving.engine.RankingVerbs`),
so a
:class:`~repro.serving.gateway.ServingGateway` front-ends a cluster
exactly as it front-ends a local engine — micro-batching, caching and
load shedding unchanged (see ``ServingGateway.over_cluster``).

Rejoin contract: a replacement process at a known address must boot
from the **base** snapshot (the original checkpoint/histories, without
any observed interactions); the router's full replay is what brings it
current.  Booting a rejoining node from a *current* peer snapshot would
double-apply the log.
"""

from __future__ import annotations

import bisect
import struct
import threading
import time

import numpy as np

from repro.cluster.node import DEFAULT_READ_TIMEOUT_S, _connect, raise_reply_error
from repro.cluster.protocol import (
    ConnectionClosed,
    Frame,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WalCompactedError,
    WalWriteError,
    WriteAheadLog,
    pack_observe,
    unpack_observe,
)
from repro.parallel.sharded import DEFAULT_REQUEST_TIMEOUT_S
from repro.serving.engine import RankingVerbs

__all__ = ["ClusterRouter", "NodeUnavailable", "user_range",
           "DEFAULT_REQUEST_TIMEOUT_S"]

#: Multiplicative (Fibonacci) hash constant — plain 32-bit integer
#: arithmetic, so the user→range assignment is identical on every
#: platform and every run.
_HASH_MULTIPLIER = 0x9E3779B1
_HASH_MODULUS = 1 << 32


class NodeUnavailable(ConnectionError):
    """A node could not be reached (down, refusing, or backing off).

    Internal to the failover loop: the request path treats it as "try
    the next replica", and only surfaces a failure to the caller when
    every replica is unavailable past the deadline.
    """


def user_range(user: int, n_ranges: int) -> int:
    """The consistent range of ``user`` among ``n_ranges`` ranges.

    A multiplicative hash rather than ``user % n_ranges``, so
    contiguous user ids (the common enumeration order) spread across
    ranges instead of marching through them in lockstep.
    """
    return int((int(user) * _HASH_MULTIPLIER) % _HASH_MODULUS) % int(n_ranges)


def _ranges_of(users: np.ndarray, n_ranges: int) -> np.ndarray:
    """Vectorized :func:`user_range` over an id array."""
    hashed = (users.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER)) \
        % np.uint64(_HASH_MODULUS)
    return (hashed % np.uint64(n_ranges)).astype(np.int64)


class _NodeClient:
    """One node's persistent connection, epoch and observe watermark.

    All socket state is guarded by ``lock``; the heartbeat thread uses
    a non-blocking acquire so probing never queues behind a request in
    flight (a busy connection is proof of life anyway).
    """

    def __init__(self, address: str, index: int, *, connect_timeout_s: float,
                 io_timeout_s: float, backoff_base_s: float,
                 backoff_factor: float, backoff_max_s: float):
        self.address = address
        self.index = index
        self.lock = threading.Lock()
        self.sock = None
        self.up = False
        self.epoch: str | None = None
        self.hello: dict = {}
        #: Observe-log sequence number this node is current to
        #: (exclusive: every entry with ``seq < watermark`` applied).
        self.watermark = 0
        self.rejoins = 0
        self._rid = 0
        self._connect_timeout_s = connect_timeout_s
        self._io_timeout_s = io_timeout_s
        self._backoff_base_s = backoff_base_s
        self._backoff_factor = backoff_factor
        self._backoff_max_s = backoff_max_s
        self._failures = 0
        self._next_attempt_at = 0.0

    # Callers hold self.lock for everything below. ---------------------- #
    def _record_failure(self) -> None:
        self.up = False
        backoff = min(self._backoff_base_s * (self._backoff_factor ** self._failures),
                      self._backoff_max_s)
        self._failures += 1
        self._next_attempt_at = time.monotonic() + backoff
        self._close_socket()

    def _close_socket(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def ensure_connected(self, remaining_s: float) -> bool:
        """Connect + ``hello`` if needed; ``True`` when a rejoin was seen.

        Honours the reconnect backoff gate and the caller's remaining
        budget.  A successful hello resets the failure streak; an epoch
        different from the last known one marks the node as a fresh
        process and resets its observe watermark for full replay.
        """
        if self.sock is not None:
            return False
        now = time.monotonic()
        if now < self._next_attempt_at:
            raise NodeUnavailable(
                f"{self.address} backing off for "
                f"{self._next_attempt_at - now:.3f}s")
        timeout = min(self._connect_timeout_s, remaining_s)
        if timeout <= 0:
            raise TimeoutError(f"no budget left to connect to {self.address}")
        try:
            self.sock = _connect(self.address, timeout)
            hello = self._call_locked("hello", {}, {}, remaining_s)
        except (ConnectionClosed, ProtocolError, OSError, TimeoutError):
            self._record_failure()
            raise NodeUnavailable(f"{self.address} is unreachable") from None
        self.hello = hello.meta
        self._failures = 0
        self._next_attempt_at = 0.0
        self.up = True
        rejoined = False
        epoch = hello.meta.get("epoch")
        if self.epoch is not None and epoch != self.epoch:
            # Fresh process at the same address: engine state reset to
            # the base snapshot — replay the observe log from zero.
            rejoined = True
            self.rejoins += 1
            self.watermark = 0
        self.epoch = epoch
        return rejoined

    def _call_locked(self, kind: str, meta: dict,
                     arrays: dict, remaining_s: float) -> Frame:
        """One request/reply on the live socket; drops stale replies.

        Raises ``TimeoutError`` when the budget expires (socket kept:
        the late reply will be recognized as stale and dropped on the
        next call), or a connection-level error (socket closed)."""
        self._rid += 1
        rid = self._rid
        deadline = time.monotonic() + remaining_s
        stale = 0
        try:
            self.sock.settimeout(min(self._io_timeout_s, remaining_s))
            send_frame(self.sock, kind, {**meta, "rid": rid}, arrays)
            while True:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TimeoutError(f"{self.address}: reply overdue")
                self.sock.settimeout(min(self._io_timeout_s, budget))
                reply = recv_frame(self.sock)
                if reply.meta.get("rid") == rid:
                    self.stale_dropped = stale
                    return reply
                stale += 1
        except TimeoutError:
            self.stale_dropped = stale
            raise
        except (ConnectionClosed, ProtocolError, OSError):
            self.stale_dropped = stale
            self._record_failure()
            raise

    stale_dropped = 0  # stale replies dropped by the last call

    def close(self) -> None:
        """Drop the connection (router shutdown)."""
        with self.lock:
            self._close_socket()


class ClusterRouter(RankingVerbs):
    """Routes engine requests across replicated :class:`EngineNode` s.

    Parameters
    ----------
    addresses:
        The fixed node table — ``"host:port"`` / ``"unix:/path"``
        strings, one per node.  Node *i* of the table is primary for
        the ranges that hash to *i* and replica for its neighbours'.
    replication:
        Nodes per replica set (primary included), capped at the node
        count.  ``replication=1`` disables failover.
    n_ranges:
        Hash ranges (default: one per node).
    request_timeout_s:
        Default end-to-end deadline per request (``None`` = wait
        forever); callers override per request via ``timeout=``.
    heartbeat_interval_s:
        Probe period of the background heartbeat (``0`` disables it —
        failure detection then happens only on the request path).
    connect_timeout_s / io_timeout_s:
        Per-attempt socket bounds; both are additionally clamped to the
        request's remaining budget.
    backoff_base_s / backoff_factor / backoff_max_s:
        Reconnect backoff schedule of a failed node.
    require_connect:
        Require at least one node reachable at construction (default);
        ``False`` starts fully offline and relies on heartbeats.
    wal_dir:
        Directory of the durable observe log (``repro-ham route
        --wal-dir``).  ``None`` (default) keeps the log in memory only
        — a router restart loses replay state, exactly the pre-PR 9
        behaviour.  Reopening a router on an existing ``wal_dir``
        rebuilds the log and every node's (watermark, epoch) from the
        journal.
    wal_fsync / wal_segment_bytes:
        Fsync policy (``"always"``/``"interval"``/``"never"``) and
        segment rotation threshold of the WAL; see
        :class:`~repro.durability.wal.WriteAheadLog`.
    wal_fault_injector:
        Optional :class:`~repro.durability.diskfaults.DiskFaultInjector`
        for the ``chaos_disk`` tier; production callers leave it
        ``None``.
    """

    def __init__(self, addresses: list[str], replication: int = 2,
                 n_ranges: int | None = None,
                 request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
                 heartbeat_interval_s: float = 2.0,
                 connect_timeout_s: float = 5.0,
                 io_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
                 backoff_base_s: float = 0.05, backoff_factor: float = 2.0,
                 backoff_max_s: float = 2.0,
                 require_connect: bool = True,
                 wal_dir: str | None = None, wal_fsync: str = "always",
                 wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 wal_fault_injector=None):
        if not addresses:
            raise ValueError("at least one node address is required")
        if replication < 1:
            raise ValueError("replication must be positive")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive (or None)")
        self.addresses = list(addresses)
        self.replication = min(int(replication), len(self.addresses))
        self.n_ranges = int(n_ranges) if n_ranges else len(self.addresses)
        if self.n_ranges < 1:
            raise ValueError("n_ranges must be positive")
        self.request_timeout_s = request_timeout_s
        self._clients = [
            _NodeClient(address, index,
                        connect_timeout_s=connect_timeout_s,
                        io_timeout_s=io_timeout_s,
                        backoff_base_s=backoff_base_s,
                        backoff_factor=backoff_factor,
                        backoff_max_s=backoff_max_s)
            for index, address in enumerate(self.addresses)
        ]
        # Ordered observe log: (seq, range, user, item), sorted by seq;
        # per-node watermarks are *sequence numbers* (exclusive bound:
        # the node has applied every entry with seq < watermark), so
        # they stay meaningful across compaction and — with a WAL —
        # across router restarts.  Guarded by _observe_lock.
        self._observe_log: list[tuple[int, int, int, int]] = []
        self._observe_lock = threading.Lock()
        self._next_seq = 0  # seq counter of the in-memory (no-WAL) mode
        self._compacted_below = 0  # first seq still replayable
        # Last (watermark, epoch) journaled per node; (0, None) is what
        # recovery assumes for a node the WAL never mentions.
        self._journaled_state: dict[int, tuple[int, str | None]] = {
            client.index: (0, None) for client in self._clients}

        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "range_requests": 0,
            "failovers": 0,
            "retry_rounds": 0,
            "reconnects": 0,
            "stale_replies_dropped": 0,
            "deadline_timeouts": 0,
            "observes": 0,
            "observes_replayed": 0,
            "rejoins_detected": 0,
            "wal_recovered_observes": 0,
            "wal_write_errors": 0,
            "wal_compactions": 0,
            "catch_up_impossible": 0,
        }

        self._wal: WriteAheadLog | None = None
        if wal_dir is not None:
            self._wal = WriteAheadLog(
                wal_dir, segment_bytes=wal_segment_bytes, fsync=wal_fsync,
                fault_injector=wal_fault_injector)
            self._recover_from_wal()

        self._closed = False
        self._stop = threading.Event()

        self.num_users: int | None = None
        self.num_items: int | None = None
        self.exclude_seen = True
        connected = 0
        for client in self._clients:
            with client.lock:
                try:
                    self._connect_locked(client, connect_timeout_s)
                    connected += 1
                except (NodeUnavailable, TimeoutError):
                    continue
            self._adopt_hello(client.hello)
        if require_connect and connected == 0:
            self.close()
            raise ConnectionError(
                f"none of the {len(self.addresses)} cluster nodes is reachable")

        self._heartbeat_interval_s = heartbeat_interval_s
        self._heartbeat_thread = None
        if heartbeat_interval_s > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="router-heartbeat",
                daemon=True)
            self._heartbeat_thread.start()

    # ------------------------------------------------------------------ #
    # Capability surface (the engine duck-type)
    # ------------------------------------------------------------------ #
    @property
    def supports_deadlines(self) -> bool:
        """Deadlines are enforced by the router itself — always true."""
        return True

    def _adopt_hello(self, hello: dict) -> None:
        if not hello:
            return
        num_users = int(hello["num_users"])
        num_items = int(hello["num_items"])
        if self.num_users is None:
            self.num_users = num_users
            self.num_items = num_items
            self.exclude_seen = bool(hello["exclude_seen"])
        elif (self.num_users, self.num_items) != (num_users, num_items):
            raise ValueError(
                f"node disagrees on snapshot shape: "
                f"({num_users}, {num_items}) vs "
                f"({self.num_users}, {self.num_items})")

    # ------------------------------------------------------------------ #
    # Durable observe log (WAL)
    # ------------------------------------------------------------------ #
    # Record payloads (the framing around them is the WAL's):
    #   b"O" + <qq user item>          — one observed interaction
    #   b"A" + <q  seq>                — abort: the observe journaled at
    #                                    ``seq`` was applied by no
    #                                    replica and must not replay
    #   b"W" + <qq node watermark> + epoch-utf8
    #                                  — node ``node`` is current to
    #                                    ``watermark`` under ``epoch``
    _ABORT_TAG = b"A"
    _WATERMARK_TAG = b"W"

    def _recover_from_wal(self) -> None:
        """Rebuild the observe log and node watermarks from the journal.

        Observes re-enter the in-memory log at their original sequence
        numbers (ranges recomputed — the hash is deterministic), abort
        records delete the entry they name, and the *last* watermark
        record per node wins.  A journaled watermark is trusted only if
        the node still reports the journaled epoch when we connect —
        ``ensure_connected`` resets it to zero otherwise, exactly as it
        fences a mid-flight restart.
        """
        recovered = 0
        for seq, payload in self._wal.replay():
            tag = payload[:1]
            if tag == b"O":
                user, item = unpack_observe(payload)
                self._observe_log.append(
                    (seq, user_range(user, self.n_ranges), user, item))
                recovered += 1
            elif tag == self._ABORT_TAG:
                (target,) = struct.unpack("<q", payload[1:9])
                for index in range(len(self._observe_log) - 1, -1, -1):
                    if self._observe_log[index][0] == target:
                        del self._observe_log[index]
                        recovered -= 1
                        break
            elif tag == self._WATERMARK_TAG:
                node_index, watermark = struct.unpack("<qq", payload[1:17])
                epoch = payload[17:].decode("utf-8") or None
                if 0 <= node_index < len(self._clients):
                    client = self._clients[node_index]
                    client.watermark = int(watermark)
                    client.epoch = epoch
                    self._journaled_state[node_index] = (int(watermark), epoch)
        self._compacted_below = self._wal.first_seq
        self._stats["wal_recovered_observes"] = recovered

    def _journal_node_state(self, client: _NodeClient,
                            force: bool = False) -> None:
        """Journal ``client``'s (watermark, epoch) if it changed.

        Called with ``client.lock`` held (the watermark/epoch pair must
        be read consistently).  Never per observe: the request path
        journals only a node's first contact or epoch change
        (:meth:`_connect_locked`) and a catch-up that replayed entries;
        the heartbeat, compaction and :meth:`close` journal the current
        watermark.  A stale journaled watermark is safe: a successor
        router re-sends the entries after it, and a node on the same
        epoch drops each one by sequence number (``applied_seq``) — the
        replay bound is the observes since the last journaled state.
        A failed append is counted and skipped, which only widens that
        bound.
        """
        if self._wal is None:
            return
        state = (client.watermark, client.epoch)
        if not force and self._journaled_state[client.index] == state:
            return
        payload = (self._WATERMARK_TAG
                   + struct.pack("<qq", client.index, client.watermark)
                   + (client.epoch or "").encode("utf-8"))
        try:
            self._wal.append(payload)
        except WalWriteError:
            self._bump("wal_write_errors")
            return
        self._journaled_state[client.index] = state

    def _connect_locked(self, client: _NodeClient, remaining_s: float) -> bool:
        """:meth:`_NodeClient.ensure_connected`, journaling a new epoch.

        Called with ``client.lock`` held.  The (watermark, epoch) pair
        is journaled at first contact and after every epoch change, so
        a successor router can tell a rejoined process from the one it
        journaled.  Returns ``True`` when a rejoin was seen.
        """
        rejoined = client.ensure_connected(remaining_s)
        if self._journaled_state[client.index][1] != client.epoch:
            self._journal_node_state(client)
        return rejoined

    def _maybe_compact(self) -> None:
        """Drop WAL segments every replica's watermark has passed.

        The horizon is the minimum watermark over *all* nodes (a down
        node pins it — its entries must stay replayable), and fresh
        watermark records are journaled first so the surviving suffix
        still carries every node's state.  The in-memory log is trimmed
        to match, so restart and live state agree on what is
        replayable.
        """
        if self._wal is None:
            return
        horizon = min(client.watermark for client in self._clients)
        if not self._wal.has_compactable(horizon):
            return
        for client in self._clients:
            with client.lock:
                self._journal_node_state(client, force=True)
        result = self._wal.compact(horizon)
        if result["segments_deleted"]:
            with self._observe_lock:
                self._compacted_below = self._wal.first_seq
                cut = bisect.bisect_left(self._observe_log,
                                         (self._compacted_below,))
                if cut:
                    del self._observe_log[:cut]
            self._bump("wal_compactions")

    # ------------------------------------------------------------------ #
    # Routing primitives
    # ------------------------------------------------------------------ #
    def _replica_indices(self, range_id: int) -> list[int]:
        n = len(self._clients)
        return [(range_id + j) % n for j in range(self.replication)]

    def _node_ranges(self, node_index: int) -> set[int]:
        """Ranges whose replica set includes node ``node_index``."""
        return {r for r in range(self.n_ranges)
                if node_index in self._replica_indices(r)}

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += amount

    def _deadline_for(self, timeout: float | None) -> float:
        if timeout is None:
            timeout = self.request_timeout_s
        if timeout is None:
            timeout = 365.0 * 24 * 3600  # "forever", but still a number
        return time.monotonic() + timeout

    def _catch_up_locked(self, client: _NodeClient, deadline: float,
                         upto: int | None = None) -> None:
        """Replay pending observe-log entries to ``client`` (lock held).

        Replays every entry with ``watermark <= seq < upto`` (``upto``
        defaults to the whole log).  Entries outside the node's ranges
        advance the watermark for free; relevant ones are re-applied in
        order via the ``observe`` verb, carrying their sequence number
        so the node can deduplicate anything it already applied.
        Raises on failure with the watermark pointing at the first
        unapplied entry, so a later catch-up resumes exactly there.
        Raises :class:`~repro.durability.wal.WalCompactedError` when the
        entries the node needs were compacted away — only possible for
        a fresh-epoch node joining a restarted router; such a node must
        bootstrap from a current peer snapshot instead.
        """
        log = self._observe_log
        end = (log[-1][0] + 1 if log else 0) if upto is None else upto
        if client.watermark >= end:
            return
        if client.watermark < self._compacted_below:
            self._bump("catch_up_impossible")
            raise WalCompactedError(
                f"{client.address}: watermark {client.watermark} is below "
                f"the compaction horizon {self._compacted_below}; the "
                f"entries it needs are gone — bootstrap the node from a "
                f"live peer snapshot")
        # Snapshot (atomic under the GIL): entries are append-ordered by
        # seq, so a bisect finds the resume point without _observe_lock
        # (which observe() may already hold above us, or a concurrent
        # observe may hold while waiting on another node's lock).
        snapshot = list(log)
        start = bisect.bisect_left(snapshot, (client.watermark,))
        ranges = self._node_ranges(client.index)
        replayed = 0
        try:
            for seq, range_id, user, item in snapshot[start:]:
                if seq >= end:
                    break
                if range_id in ranges:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"deadline expired replaying observes to "
                            f"{client.address}")
                    reply = client._call_locked(
                        "observe",
                        {"user": user, "item": item, "seq": seq},
                        {}, remaining)
                    if reply.kind == "error":
                        raise_reply_error(reply)
                    replayed += 1
                client.watermark = seq + 1
            client.watermark = max(client.watermark, end)
        finally:
            if replayed:
                self._bump("observes_replayed", replayed)
                self._journal_node_state(client)

    def _attempt(self, client: _NodeClient, kind: str, meta: dict,
                 arrays: dict, deadline: float) -> Frame:
        """One request attempt on one node, catch-up included."""
        with client.lock:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("request deadline expired")
            was_connected = client.sock is not None
            rejoined = self._connect_locked(client, remaining)
            if not was_connected and client.sock is not None:
                self._bump("reconnects")
            if rejoined:
                self._bump("rejoins_detected")
            self._adopt_hello(client.hello)
            self._catch_up_locked(client, deadline)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("request deadline expired")
            reply = client._call_locked(
                kind, {**meta, "timeout_s": remaining}, arrays, remaining)
            if client.stale_dropped:
                self._bump("stale_replies_dropped", client.stale_dropped)
            if reply.kind == "error":
                raise_reply_error(reply)
            client.up = True
            return reply

    def _range_request(self, range_id: int, kind: str, meta: dict,
                       arrays: dict, deadline: float) -> Frame:
        """Serve one range's sub-request with failover and retry rounds.

        Replicas are tried primary-first; connection failures and
        timeouts advance to the next replica, and exhausted rounds
        retry (after a short pause) until the deadline expires.
        Application-level remote errors propagate immediately — they
        are deterministic across bit-identical replicas.
        """
        self._bump("range_requests")
        indices = self._replica_indices(range_id)
        last_error: Exception | None = None
        first_round = True
        while True:
            for position, node_index in enumerate(indices):
                client = self._clients[node_index]
                if deadline - time.monotonic() <= 0:
                    break
                try:
                    reply = self._attempt(client, kind, meta, arrays, deadline)
                except (OSError, ProtocolError, WalCompactedError) as error:
                    # NodeUnavailable, ConnectionClosed, raw socket
                    # errors and TimeoutError all subclass OSError;
                    # ProtocolError is a garbled stream; a
                    # WalCompactedError replica cannot be caught up.
                    # All of them mean "this replica cannot answer
                    # now" — fail over.
                    last_error = error
                    continue
                if position > 0 or not first_round:
                    self._bump("failovers")
                return reply
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._bump("deadline_timeouts")
                raise TimeoutError(
                    f"range {range_id}: no replica answered before the "
                    f"deadline (last error: {last_error})")
            first_round = False
            self._bump("retry_rounds")
            time.sleep(min(0.02, remaining))

    # ------------------------------------------------------------------ #
    # Scoring API
    # ------------------------------------------------------------------ #
    def _as_user_array(self, users) -> np.ndarray:
        if self.num_users is None:
            raise RuntimeError("router has never reached a node; the "
                               "snapshot shape is unknown")
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be a 1-d sequence of user ids")
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            bad = users[(users < 0) | (users >= self.num_users)][0]
            raise ValueError(f"user id {bad} outside [0, {self.num_users})")
        return users

    def _fan_out(self, users: np.ndarray):
        """``(range_id, positions, user_ids)`` groups of a user array."""
        ranges = _ranges_of(users, self.n_ranges)
        groups = []
        for range_id in np.unique(ranges):
            positions = np.nonzero(ranges == range_id)[0]
            groups.append((int(range_id), positions, users[positions]))
        return groups

    def masked_scores(self, users, timeout: float | None = None) -> np.ndarray:
        """Seen-masked scores ``(B, num_items)`` across the cluster.

        Answered only by nodes that serve a serial engine.
        """
        users = self._as_user_array(users)
        self._bump("requests")
        deadline = self._deadline_for(timeout)
        out: np.ndarray | None = None
        if users.size == 0:
            return np.zeros((0, self.num_items), dtype=np.float64)
        for range_id, positions, ids in self._fan_out(users):
            reply = self._range_request(range_id, "masked_scores", {},
                                        {"users": ids}, deadline)
            scores = reply.array("scores")
            if out is None:
                out = np.empty((users.size, scores.shape[1]),
                               dtype=scores.dtype)
            out[positions] = scores
        return out

    def top_k_scored(self, users, k: int, exclude_seen: bool | None = None,
                     timeout: float | None = None, mode: str | None = None,
                     n_probe: int | None = None,
                     candidate_multiplier: int | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked top-``k`` ids per user and their float64 scores,
        bit-identical to one engine.

        ``mode="ann"`` (with the optional ``n_probe`` /
        ``candidate_multiplier`` dial) selects the nodes' ANN candidate
        stage; the dial travels in the request meta, so mixed exact/ANN
        traffic over one connection is fine.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if mode not in (None, "exact", "ann"):
            raise ValueError(f"mode must be 'exact' or 'ann', got {mode!r}")
        users = self._as_user_array(users)
        self._bump("requests")
        deadline = self._deadline_for(timeout)
        width = min(int(k), self.num_items)
        ranked = np.empty((users.size, width), dtype=np.int64)
        scores = np.empty((users.size, width), dtype=np.float64)
        meta: dict = {"k": int(k)}
        if exclude_seen is not None:
            meta["exclude_seen"] = bool(exclude_seen)
        if mode is not None:
            meta["mode"] = mode
        if n_probe is not None:
            meta["n_probe"] = int(n_probe)
        if candidate_multiplier is not None:
            meta["candidate_multiplier"] = int(candidate_multiplier)
        for range_id, positions, ids in self._fan_out(users):
            reply = self._range_request(range_id, "top_k_scored", meta,
                                        {"users": ids}, deadline)
            ranked[positions] = reply.array("ranked")
            scores[positions] = reply.array("scores")
        return ranked, scores

    # ------------------------------------------------------------------ #
    # Observe replication
    # ------------------------------------------------------------------ #
    def observe(self, user: int, item: int,
                timeout: float | None = None) -> None:
        """Record an interaction on every live replica of the owner range.

        The entry is journaled to the WAL (when one is configured)
        **before** it is applied anywhere — write-ahead — then appended
        to the ordered observe log; replicas that are down (or
        mid-rejoin) skip it now and catch up from their watermark
        before they serve again, which is what keeps failover answers
        bit-identical.  Raises if *no* replica applied the entry — the
        interaction is then not logged at all (a durable abort record
        cancels the journaled entry), so a caller retry cannot
        double-apply it.  A WAL append failure (disk full, I/O error)
        raises :class:`~repro.durability.wal.WalWriteError` before any
        replica is touched: what cannot be made durable is not applied.
        """
        if self.num_users is None or not 0 <= user < self.num_users:
            raise ValueError(f"user id {user} outside [0, {self.num_users})")
        if not 0 <= item < (self.num_items or 0):
            raise ValueError(f"item id {item} outside [0, {self.num_items})")
        deadline = self._deadline_for(timeout)
        range_id = user_range(user, self.n_ranges)
        with self._observe_lock:
            if self._wal is not None:
                try:
                    seq = self._wal.append(pack_observe(user, item))
                except WalWriteError:
                    self._bump("wal_write_errors")
                    raise
            else:
                seq = self._next_seq
                self._next_seq += 1
            self._observe_log.append((seq, range_id, int(user), int(item)))
            applied = 0
            for node_index in self._replica_indices(range_id):
                client = self._clients[node_index]
                with client.lock:
                    try:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError("observe deadline expired")
                        self._connect_locked(client, remaining)
                        # Older entries first, then this one, in order.
                        self._catch_up_locked(client, deadline, upto=seq)
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError("observe deadline expired")
                        reply = client._call_locked(
                            "observe", {"user": int(user), "item": int(item),
                                        "seq": seq},
                            {}, remaining)
                        if reply.kind == "error":
                            raise_reply_error(reply)
                        client.watermark = seq + 1
                        applied += 1
                    except (OSError, ProtocolError, RuntimeError):
                        continue
            if applied == 0:
                self._observe_log.pop()
                if self._wal is not None:
                    try:
                        self._wal.append(
                            self._ABORT_TAG + struct.pack("<q", seq))
                    except WalWriteError:
                        self._bump("wal_write_errors")
                raise ConnectionError(
                    f"observe({user}, {item}): no live replica of range "
                    f"{range_id} accepted the interaction")
            self._bump("observes")

    # ------------------------------------------------------------------ #
    # Heartbeats
    # ------------------------------------------------------------------ #
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_interval_s):
            self._heartbeat_pass(self._heartbeat_interval_s)

    def _heartbeat_pass(self, budget_s: float) -> None:
        """Probe every node once, each probe bounded by ``budget_s``.

        A live node is caught up on missed observes and its current
        watermark journaled (deduplicated) — both off the request path.
        """
        for client in self._clients:
            if self._stop.is_set():
                return
            # Never queue behind an in-flight request: a busy
            # connection is proof of life.
            if not client.lock.acquire(blocking=False):
                continue
            try:
                if self._connect_locked(client, budget_s):
                    self._bump("rejoins_detected")
                reply = client._call_locked("ping", {}, {}, budget_s)
                if reply.kind == "error":
                    continue
                client.up = True
                self._catch_up_locked(client, time.monotonic() + budget_s)
                self._journal_node_state(client)
            except (OSError, ProtocolError, RuntimeError):
                continue
            finally:
                client.lock.release()
        # Off every node's lock: reclaim WAL segments every replica's
        # watermark has passed.
        self._maybe_compact()

    # ------------------------------------------------------------------ #
    # Observability & lifecycle
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Cluster liveness snapshot, JSON-ready.

        ``healthy`` requires every range to have at least one node that
        is up; per-node entries report address, up/down, epoch, observe
        watermark and rejoin count.
        """
        nodes = []
        for client in self._clients:
            nodes.append({
                "address": client.address,
                "node_index": client.index,
                "up": client.up,
                "epoch": client.epoch,
                "watermark": client.watermark,
                "rejoins": client.rejoins,
            })
        ranges_covered = all(
            any(self._clients[i].up for i in self._replica_indices(r))
            for r in range(self.n_ranges))
        with self._observe_lock:
            log_len = len(self._observe_log)
        return {
            "healthy": ranges_covered and not self._closed,
            "closed": self._closed,
            "n_ranges": self.n_ranges,
            "replication": self.replication,
            "observe_log_len": log_len,
            "compacted_below": self._compacted_below,
            "wal": self._wal.stats() if self._wal is not None else None,
            "nodes": nodes,
        }

    def stats(self) -> dict:
        """Routing counters (failovers, retries, stale drops, ...)."""
        with self._stats_lock:
            return dict(self._stats)

    def close(self) -> None:
        """Stop heartbeats, journal every node's watermark, drop node
        connections, seal the WAL."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        thread = getattr(self, "_heartbeat_thread", None)
        if thread is not None:
            thread.join(timeout=5.0)
        for client in self._clients:
            with client.lock:
                self._journal_node_state(client)
            client.close()
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
