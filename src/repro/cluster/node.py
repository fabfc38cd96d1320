"""`EngineNode`: a socket server wrapping a scoring engine.

One node is one scoring process reachable over TCP or a Unix socket: it
owns an engine (a serial :class:`~repro.serving.engine.ScoringEngine`
or a sharded :class:`~repro.parallel.sharded.ShardedScoringEngine`),
accepts protocol frames (:mod:`repro.cluster.protocol`), and answers
nine verbs: the engine verbs ``top_k_scored`` / ``observe`` (plus
``masked_scores``, served by serial-engine nodes only), and the
operational verbs a cluster needs: ``hello`` (capability + epoch exchange),
``ping`` (heartbeats), ``health`` / ``stats``, ``snapshot`` (bootstrap
a fresh node from this one, see :meth:`EngineNode.from_peer`) and
``drain``.

Robustness properties:

* **Per-connection timeouts** — a peer that stalls mid-frame is cut
  after ``read_timeout_s``; writes are bounded the same way.  Idle
  connections are fine: between frames the server polls cheaply and a
  quiet client costs nothing but its file descriptor.
* **Graceful drain** — ``drain()`` (also installed on ``SIGTERM`` by
  the CLI and :func:`spawn_node`) stops accepting, lets every in-flight
  request finish and reply, then closes.  In-flight work is never
  dropped on the floor; the router sees clean connection shutdowns.
* **Epoch fencing** — each node process mints a random epoch token at
  start-up and reports it in ``hello``/``ping``.  A router that sees
  the epoch change at a known address knows it is talking to a *fresh
  process* (crash + rejoin) whose engine state has reset, and replays
  its observe log from the beginning (see
  :class:`~repro.cluster.router.ClusterRouter`).
* **Fault injection** — a :class:`~repro.cluster.faults.NetFaultPlan`
  wires deterministic connection drops, stalls, garbled replies and
  partitions directly into the serve loop, so the chaos tier exercises
  real network failures without monkeypatching sockets.
* **Durable local journal (PR 9)** — with ``journal_dir=...``
  (``repro-ham serve-node --journal``) every applied ``observe`` is
  appended to a :class:`~repro.durability.wal.WriteAheadLog` *before*
  it touches the engine, and a restarting node replays the journal
  into its engine at boot — single-node deployments keep observed
  interactions across restarts without a router.  Observes that carry
  a router log sequence number are deduplicated against the highest
  sequence already applied (restored from the journal), so a router's
  at-least-once replay after its own restart never double-applies.

One engine, many connections: engine calls are serialized under a lock
(the engines are not thread-safe); concurrency across users comes from
the *cluster* (many nodes), not from threads inside one node — the same
single-writer discipline the sharded engine applies per shard.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import secrets
import signal
import socket
import struct
import threading
import time

import numpy as np

from repro.cluster.faults import GARBLED_REPLY, NetFaultInjector, NetFaultPlan
from repro.cluster.protocol import (
    ConnectionClosed,
    Frame,
    ProtocolError,
    engine_from_arena,
    engine_from_snapshot_payload,
    recv_frame,
    send_frame,
    serialize_live_engine,
)
from repro.serving.engine import ScoringEngine

__all__ = ["EngineNode", "NodeHandle", "spawn_node", "request_reply",
           "parse_address", "DEFAULT_READ_TIMEOUT_S"]

#: Default bound on one read/write on an active connection.
DEFAULT_READ_TIMEOUT_S = 30.0

#: Poll interval of idle waits (accept loop, between-frame waits, stall
#: loops) — how quickly drain/close are noticed.
_IDLE_POLL_S = 0.1


def parse_address(address: str) -> tuple[int, object]:
    """``(family, sockaddr)`` of an ``"host:port"`` / ``"unix:..."`` string.

    ``"unix:/tmp/node.sock"`` selects ``AF_UNIX``; anything else is
    split on the last ``:`` into a TCP host and port (port ``0`` asks
    the OS for a free port; the node reports the actual one).
    """
    if address.startswith("unix:"):
        return socket.AF_UNIX, address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"address {address!r} is not host:port or unix:path")
    return socket.AF_INET, (host, int(port))


def _connect(address: str, timeout_s: float) -> socket.socket:
    """A connected, ``TCP_NODELAY`` socket to ``address``."""
    family, sockaddr = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout_s)
        sock.connect(sockaddr)
        if family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException:
        sock.close()
        raise
    return sock


def request_reply(address: str, kind: str, meta: dict | None = None,
                  arrays: dict[str, np.ndarray] | None = None,
                  timeout_s: float = DEFAULT_READ_TIMEOUT_S) -> Frame:
    """One-shot RPC: connect, send one frame, return the reply frame.

    The simple client used by :meth:`EngineNode.from_peer`, the CLI
    probes and the tests; the router keeps persistent connections
    instead (see :mod:`repro.cluster.router`).  Raises the reply's
    mapped error for ``error`` frames.
    """
    sock = _connect(address, timeout_s)
    try:
        send_frame(sock, kind, meta, arrays)
        reply = recv_frame(sock)
    finally:
        sock.close()
    if reply.kind == "error":
        raise_reply_error(reply)
    return reply


def raise_reply_error(reply: Frame) -> None:
    """Re-raise an ``error`` reply frame as a local exception.

    ``TimeoutError`` survives the wire round-trip as ``TimeoutError``
    (deadline machinery upstream depends on the type); every other
    remote failure surfaces as ``RuntimeError`` with the remote type
    name in the message.
    """
    error_type = reply.meta.get("error_type", "RuntimeError")
    message = reply.meta.get("message", "remote error")
    if error_type == "TimeoutError":
        raise TimeoutError(message)
    raise RuntimeError(f"remote {error_type}: {message}")


class EngineNode:
    """Socket server exposing one scoring engine to the cluster.

    Parameters
    ----------
    engine:
        The engine to serve — a serial :class:`ScoringEngine` or a
        sharded one; anything with the engine duck-type works.
    bind:
        ``"host:port"`` (port 0 = OS-assigned) or ``"unix:/path"``.
        The actual address is :attr:`address` once constructed.
    read_timeout_s:
        Bound on one read/write on an active connection; a peer that
        stalls mid-frame is disconnected after this long.
    fault_plan:
        Optional :class:`NetFaultPlan` for deterministic network chaos.
    node_index:
        This node's index in the plan (and in the cluster's node list).
    own_engine:
        Close the engine when the node closes.
    journal_dir:
        Directory of the node's local observe journal (``repro-ham
        serve-node --journal``).  Existing journal records are replayed
        into the engine before the node starts serving; every later
        ``observe`` is journaled before it is applied.  ``None``
        (default) disables the journal.
    journal_fsync:
        Fsync policy of the journal WAL (``"always"`` / ``"interval"``
        / ``"never"``).
    """

    def __init__(self, engine, bind: str = "127.0.0.1:0", *,
                 read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
                 fault_plan: NetFaultPlan | None = None,
                 node_index: int = 0, own_engine: bool = False,
                 journal_dir: str | None = None,
                 journal_fsync: str = "always"):
        if read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be positive")
        self.engine = engine
        self.read_timeout_s = float(read_timeout_s)
        self.node_index = int(node_index)
        self._plan = fault_plan
        self._own_engine = own_engine
        #: Fresh per process: lets routers detect crash + rejoin.
        self.epoch = secrets.token_hex(8)
        self._deadlines = bool(getattr(engine, "supports_deadlines", False))

        # Highest router log sequence number already applied (restored
        # from the journal); replayed observes at or below it are
        # acknowledged without re-applying.  -1 = none seen.
        self._applied_seq = -1
        self._observes_deduped = 0
        self._observes_journaled = 0
        self._journal = None
        if journal_dir is not None:
            from repro.durability.wal import WriteAheadLog
            self._journal = WriteAheadLog(journal_dir, fsync=journal_fsync)
            replayed = 0
            for _, payload in self._journal.replay():
                seq, user, item = struct.unpack("<qqq", payload)
                engine.observe(int(user), int(item))
                if seq > self._applied_seq:
                    self._applied_seq = seq
                replayed += 1
            self._journal_replayed = replayed
        else:
            self._journal_replayed = 0

        self._engine_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self._unix_path: str | None = None
        self._connections = 0
        self._conn_threads: set[threading.Thread] = set()
        self._arena = None  # kept alive for from_arena() nodes

        self._requests_served = 0
        self._connections_refused = 0
        self._protocol_errors = 0
        self._faults_fired = {"drop": 0, "stall": 0, "garble": 0}

        family, sockaddr = parse_address(bind)
        listener = socket.socket(family, socket.SOCK_STREAM)
        try:
            if family == socket.AF_INET:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            else:
                self._unix_path = sockaddr
                try:  # a crashed predecessor may have left the path behind
                    os.unlink(sockaddr)
                except OSError:
                    pass
            listener.bind(sockaddr)
            listener.listen(64)
            listener.settimeout(_IDLE_POLL_S)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        if family == socket.AF_INET:
            host, port = listener.getsockname()
            self.address = f"{host}:{port}"
        else:
            self.address = f"unix:{sockaddr}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"node-{self.node_index}-accept",
            daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    # Alternate constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_peer(cls, peer_address: str, bind: str = "127.0.0.1:0",
                  timeout_s: float = DEFAULT_READ_TIMEOUT_S,
                  **node_kwargs) -> "EngineNode":
        """Bootstrap a node from a running peer's ``snapshot`` verb.

        Fetches the peer's complete scoring snapshot (current padded
        rows and seen arrays included, so acknowledged ``observe``
        traffic carries over) and serves it from a fresh engine — no
        checkpoint file required on this host.
        """
        reply = request_reply(peer_address, "snapshot", timeout_s=timeout_s)
        engine = engine_from_snapshot_payload(reply.meta, reply.arrays)
        return cls(engine, bind=bind, own_engine=True, **node_kwargs)

    @classmethod
    def from_arena(cls, model, layout, bind: str = "127.0.0.1:0",
                   exclude_seen: bool = True, micro_batch_size: int = 1024,
                   **node_kwargs) -> "EngineNode":
        """Zero-copy node over a same-host published ``SharedArena``.

        Co-located nodes skip snapshot serialization entirely and attach
        the publisher's shared segment by name (the picklable ``layout``
        is the hand-off token), exactly like in-process shard workers.
        """
        engine, arena = engine_from_arena(
            model, layout, exclude_seen=exclude_seen,
            micro_batch_size=micro_batch_size)
        node = cls(engine, bind=bind, own_engine=True, **node_kwargs)
        node._arena = arena
        return node

    # ------------------------------------------------------------------ #
    # Serve loop
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            with self._state_lock:
                if self._draining or self._closed:
                    return
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed under us: shutdown
            with self._state_lock:
                if self._draining or self._closed:
                    conn.close()
                    return
                connection = self._connections
                self._connections += 1
            injector = (NetFaultInjector(self._plan, self.node_index, connection)
                        if self._plan is not None else None)
            if injector is not None and injector.refuses_connections:
                # Partition: the node is alive but unreachable for new
                # connections, exactly what a router's heartbeat sees.
                with self._state_lock:
                    self._connections_refused += 1
                conn.close()
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, injector),
                name=f"node-{self.node_index}-conn-{connection}", daemon=True)
            with self._state_lock:
                self._conn_threads.add(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket,
                          injector: NetFaultInjector | None) -> None:
        try:
            if isinstance(conn.getsockname(), tuple):
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                if not self._await_frame_start(conn):
                    return
                conn.settimeout(self.read_timeout_s)
                try:
                    frame = recv_frame(conn)
                except (ConnectionClosed, OSError):
                    return
                except (ProtocolError, TimeoutError):
                    with self._state_lock:
                        self._protocol_errors += 1
                    return
                verdict = injector.on_request() if injector else None
                if verdict == "drop":
                    self._faults_fired["drop"] += 1
                    return
                if verdict == "stall":
                    self._faults_fired["stall"] += 1
                    self._stall_until_close()
                    return
                reply_kind, meta, arrays = self._handle(frame)
                action, delay = (injector.reply_action() if injector
                                 else (NetFaultInjector.REPLY, 0.0))
                if delay > 0.0:
                    time.sleep(delay)
                conn.settimeout(self.read_timeout_s)
                try:
                    if action == NetFaultInjector.GARBLE:
                        self._faults_fired["garble"] += 1
                        conn.sendall(GARBLED_REPLY)
                        return
                    send_frame(conn, reply_kind, meta, arrays)
                except (ConnectionClosed, OSError, TimeoutError):
                    return
                with self._state_lock:
                    self._requests_served += 1
        finally:
            conn.close()
            with self._state_lock:
                self._conn_threads.discard(threading.current_thread())

    def _await_frame_start(self, conn: socket.socket) -> bool:
        """Poll until the next frame's first byte is available.

        Returns ``False`` on EOF, connection error, or drain/close —
        the caller ends the connection.  Idle connections sit in this
        loop indefinitely without tripping the read timeout; the
        timeout only governs reads *inside* a frame.
        """
        conn.settimeout(_IDLE_POLL_S)
        while True:
            with self._state_lock:
                if self._draining or self._closed:
                    return False
            try:
                first = conn.recv(1, socket.MSG_PEEK)
            except TimeoutError:
                continue
            except OSError:
                return False
            return bool(first)  # b"" = EOF

    def _stall_until_close(self) -> None:
        """A stalled connection stays open, silent, until shutdown."""
        while True:
            with self._state_lock:
                if self._draining or self._closed:
                    return
            time.sleep(_IDLE_POLL_S)

    # ------------------------------------------------------------------ #
    # Verb dispatch
    # ------------------------------------------------------------------ #
    def _handle(self, frame: Frame) -> tuple[str, dict, dict[str, np.ndarray]]:
        rid = frame.meta.get("rid")
        try:
            meta, arrays = self._dispatch(frame)
        except Exception as error:  # noqa: BLE001 - faulted into the reply
            meta = {"error_type": type(error).__name__, "message": str(error)}
            retry_after = getattr(error, "retry_after_s", None)
            if retry_after is not None:
                meta["retry_after_s"] = float(retry_after)
            if rid is not None:
                meta["rid"] = rid
            return "error", meta, {}
        if rid is not None:
            meta["rid"] = rid
        return "ok", meta, arrays

    def _engine_kwargs(self, frame: Frame) -> dict:
        timeout = frame.meta.get("timeout_s")
        if timeout is not None and self._deadlines:
            return {"timeout": float(timeout)}
        return {}

    def _serial_engine(self, verb: str) -> ScoringEngine:
        """The served engine, if serial; ``verb`` needs one."""
        if not isinstance(self.engine, ScoringEngine):
            raise RuntimeError(
                f"{verb} requires a serial ScoringEngine "
                f"(this node serves {type(self.engine).__name__})")
        return self.engine

    def _dispatch(self, frame: Frame) -> tuple[dict, dict[str, np.ndarray]]:
        kind = frame.kind
        engine = self.engine
        if kind == "hello":
            return {
                "num_users": int(engine.num_users),
                "num_items": int(engine.num_items),
                "exclude_seen": bool(engine.exclude_seen),
                "epoch": self.epoch,
                "node_index": self.node_index,
                "supports_deadlines": self._deadlines,
            }, {}
        if kind == "ping":
            with self._state_lock:
                draining = self._draining
            return {"epoch": self.epoch, "draining": draining}, {}
        if kind == "masked_scores":
            users = frame.array("users")
            with self._engine_lock:
                scores = self._serial_engine(kind).masked_scores(users)
            return {}, {"scores": scores}
        if kind == "top_k_scored":
            users = frame.array("users")
            k = int(frame.meta["k"])
            exclude = frame.meta.get("exclude_seen")
            kwargs = self._engine_kwargs(frame)
            if exclude is not None:
                kwargs["exclude_seen"] = bool(exclude)
            # Retrieval dial: mode/n_probe/candidate_multiplier pass
            # straight through to the engine (exact stays the default).
            mode = frame.meta.get("mode")
            if mode is not None:
                kwargs["mode"] = str(mode)
            if frame.meta.get("n_probe") is not None:
                kwargs["n_probe"] = int(frame.meta["n_probe"])
            if frame.meta.get("candidate_multiplier") is not None:
                kwargs["candidate_multiplier"] = int(
                    frame.meta["candidate_multiplier"])
            with self._engine_lock:
                ranked, scores = engine.top_k_scored(users, k, **kwargs)
            return {}, {"ranked": np.asarray(ranked),
                        "scores": np.asarray(scores)}
        if kind == "observe":
            user = int(frame.meta["user"])
            item = int(frame.meta["item"])
            seq = frame.meta.get("seq")
            seq = int(seq) if seq is not None else None
            with self._engine_lock:
                if seq is not None and seq <= self._applied_seq:
                    # Already applied (router at-least-once replay after
                    # a crash between "applied" and "watermark
                    # journaled"): acknowledge without re-applying.
                    self._observes_deduped += 1
                    return {"deduped": True}, {}
                if self._journal is not None:
                    # Write-ahead: what is not durable is not applied.
                    self._journal.append(
                        struct.pack("<qqq", -1 if seq is None else seq,
                                    user, item))
                    self._observes_journaled += 1
                engine.observe(user, item)
                if seq is not None:
                    self._applied_seq = seq
            return {}, {}
        if kind == "health":
            return {"health": self.health()}, {}
        if kind == "stats":
            return {"stats": self.stats()}, {}
        if kind == "snapshot":
            with self._engine_lock:
                meta, arrays = serialize_live_engine(self._serial_engine(kind))
            return meta, arrays
        if kind == "drain":
            # Ack first; the drain flag is set after this reply is sent
            # via a short timer so the requester gets its answer.
            threading.Timer(0.0, self.drain).start()
            return {"draining": True}, {}
        raise ValueError(f"unknown verb {kind!r}")

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Liveness snapshot of this node (JSON-ready).

        ``healthy`` is ``False`` while draining/closed or when the
        wrapped engine reports degraded shards or an open breaker —
        the bit liveness probes and the CLI exit code key off.
        """
        with self._state_lock:
            payload = {
                "address": self.address,
                "node_index": self.node_index,
                "epoch": self.epoch,
                "draining": self._draining,
                "closed": self._closed,
            }
        healthy = not payload["draining"] and not payload["closed"]
        engine_health = getattr(self.engine, "health", None)
        if engine_health is not None:
            nested = engine_health()
            payload["engine"] = nested
            if nested.get("degraded_shards"):
                healthy = False
            if any(shard.get("breaker_open_s", 0) > 0
                   for shard in nested.get("shards", [])):
                healthy = False
        payload["healthy"] = healthy
        return payload

    def stats(self) -> dict:
        """Operational counters of this node (JSON-ready)."""
        with self._state_lock:
            payload = {
                "address": self.address,
                "connections_accepted": self._connections,
                "connections_refused": self._connections_refused,
                "requests_served": self._requests_served,
                "protocol_errors": self._protocol_errors,
                "faults_fired": dict(self._faults_fired),
                "applied_seq": self._applied_seq,
                "observes_deduped": self._observes_deduped,
                "observes_journaled": self._observes_journaled,
                "journal_replayed": self._journal_replayed,
            }
        if self._journal is not None:
            payload["journal"] = self._journal.stats()
        engine_stats = getattr(self.engine, "stats", None)
        if engine_stats is not None:
            payload["engine"] = engine_stats()
        return payload

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def install_sigterm_drain(self) -> None:
        """Drain gracefully on ``SIGTERM`` (main thread only).

        Installed by ``repro-ham serve-node`` and :func:`spawn_node`
        children so orchestrators get finish-in-flight semantics from a
        plain ``terminate()``.
        """
        signal.signal(signal.SIGTERM, lambda signum, sigframe: self.drain())

    def serve_forever(self) -> None:
        """Block until the node drains or closes."""
        while self._accept_thread.is_alive():
            self._accept_thread.join(timeout=_IDLE_POLL_S)

    def drain(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Every request already received is answered before its
        connection closes; new connections are refused.  Safe to call
        from signal handlers and from multiple threads.
        """
        with self._state_lock:
            if self._draining or self._closed:
                return
            self._draining = True
            threads = list(self._conn_threads)
        deadline = time.monotonic() + timeout_s
        for thread in threads:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if thread is not threading.current_thread():
                thread.join(timeout=remaining)
        self.close()

    def close(self) -> None:
        """Immediate shutdown: close the listener and every connection."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._listener.close()
        if self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=5.0)
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        if self._journal is not None:
            self._journal.close()
        if self._own_engine:
            self.engine.close()

    def __enter__(self) -> "EngineNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Process-per-node helper
# ---------------------------------------------------------------------- #
class NodeHandle:
    """A spawned node process and its serving address.

    The chaos tier's handle on real node death: :meth:`kill` SIGKILLs
    the process mid-stream (the crash scenario), :meth:`terminate`
    sends SIGTERM (graceful drain), :meth:`close` is terminate + join.
    """

    def __init__(self, process: mp.Process, address: str):
        self.process = process
        self.address = address

    @property
    def pid(self) -> int:
        """OS pid of the node process."""
        return self.process.pid

    def alive(self) -> bool:
        """Whether the node process is still running."""
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the node process (no drain, no goodbye — a crash)."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def terminate(self) -> None:
        """SIGTERM the node process (drains gracefully, then exits)."""
        self.process.terminate()

    def join(self, timeout_s: float | None = None) -> None:
        """Wait for the node process to exit."""
        self.process.join(timeout=timeout_s)

    def close(self) -> None:
        """Graceful stop: SIGTERM, wait, escalate to SIGKILL if needed."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=10.0)

    def __enter__(self) -> "NodeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _node_main(model, histories, options: dict, address_queue) -> None:
    """Entry point of a spawned node process."""
    engine = ScoringEngine(model, histories,
                           exclude_seen=options["exclude_seen"],
                           micro_batch_size=options["micro_batch_size"],
                           precompute=options["precompute"])
    node = EngineNode(engine, bind=options["bind"],
                      read_timeout_s=options["read_timeout_s"],
                      fault_plan=options["fault_plan"],
                      node_index=options["node_index"], own_engine=True,
                      journal_dir=options.get("journal_dir"),
                      journal_fsync=options.get("journal_fsync", "always"))
    node.install_sigterm_drain()
    address_queue.put(node.address)
    node.serve_forever()
    node.close()


def spawn_node(model, histories, *, bind: str = "127.0.0.1:0",
               exclude_seen: bool = True, micro_batch_size: int = 1024,
               precompute: bool = True,
               read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
               fault_plan: NetFaultPlan | None = None,
               node_index: int = 0,
               journal_dir: str | None = None,
               journal_fsync: str = "always",
               start_timeout_s: float = 60.0) -> NodeHandle:
    """Fork a child process serving ``EngineNode(ScoringEngine(...))``.

    Blocks until the child reports its bound address (so callers can
    immediately connect), and returns a :class:`NodeHandle` whose
    :meth:`~NodeHandle.kill` / :meth:`~NodeHandle.terminate` drive the
    crash and drain scenarios of the chaos tier.
    """
    ctx = mp.get_context("fork")
    address_queue = ctx.Queue()
    options = {
        "bind": bind,
        "exclude_seen": exclude_seen,
        "micro_batch_size": micro_batch_size,
        "precompute": precompute,
        "read_timeout_s": read_timeout_s,
        "fault_plan": fault_plan,
        "node_index": node_index,
        "journal_dir": journal_dir,
        "journal_fsync": journal_fsync,
    }
    process = ctx.Process(target=_node_main,
                          args=(model, histories, options, address_queue),
                          daemon=True)
    process.start()
    try:
        address = address_queue.get(timeout=start_timeout_s)
    except Exception as error:
        process.kill()
        process.join(timeout=10.0)
        raise RuntimeError("node process failed to report an address") from error
    return NodeHandle(process, address)
