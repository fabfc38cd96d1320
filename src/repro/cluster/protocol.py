"""Length-prefixed binary framing of the cluster serving protocol.

The in-process sharded engine already speaks a message protocol — task
queues carry ``(request_id, method, users, kwargs)`` tuples, result
queues carry ``(request_id, payload, error)`` — but both ends share an
address space, so "serialization" is a pickle inside one host.  This
module takes the promised last step and puts the same messages on a
byte stream, so an engine and its callers can live on different
machines.

A **frame** is one message::

    +----------------+---------+---------+------------+----------------+
    | payload length | magic   | version | header len | header (JSON)  |
    | 4 bytes BE     | 2 bytes | 1 byte  | 4 bytes BE | UTF-8          |
    +----------------+---------+---------+------------+----------------+
    | array payloads, back to back, in header order                    |
    +------------------------------------------------------------------+

The header carries the message ``kind`` (the RPC verb), a JSON ``meta``
dict of scalar parameters, and the name/dtype/shape of each appended
array.  Arrays travel as raw C-contiguous bytes — a ``(B, num_items)``
score matrix costs exactly its ``nbytes``, with no pickle or base64
overhead — and are rebuilt bit-for-bit on the far side, which is what
keeps cluster answers bit-identical to the serial engine.

Defensive properties the chaos tier leans on:

* every read is bounded by a socket timeout (a slow or stalled peer
  surfaces as ``socket.timeout``/``TimeoutError``, never a hang);
* a short read (peer died mid-frame) raises :class:`ConnectionClosed`;
* a corrupt prefix — wrong magic, wrong version, absurd length, header
  that does not parse — raises :class:`ProtocolError` *before* any
  large allocation, so one garbled frame can poison at most its own
  connection.

Snapshot hand-off
-----------------
:func:`serialize_live_engine` / :func:`engine_from_snapshot_payload`
move a complete scoring snapshot through one frame, so a fresh node can
be bootstrapped from a running peer (``EngineNode.from_peer``) without
touching the original checkpoint.  The frame's meta is exactly
``{exclude_seen, micro_batch_size}``; its arrays are the pickled model
(``model_pickle``) plus the snapshot layout of
:func:`~repro.serving.engine.snapshot_arrays` — ``inputs``,
``seen_indptr``, ``seen_items`` and, when present, ``candidates``,
``item_bias`` and the ``ann_*`` index arrays.  Key presence alone
describes the snapshot, so a frame that still carries the older
``has_*`` meta flags (head, bias, ANN index) decodes the same.
Same-host nodes skip the copy entirely: :func:`engine_from_arena`
attaches a published :class:`~repro.parallel.shm.SharedArena` by name
for a zero-copy engine, exactly like the in-process shard workers.  Both
readers go through :meth:`ScoringEngine.from_arrays`, which validates
the arrays before serving from them.

The pickle inside a snapshot frame means snapshot hand-off (like the
rest of this protocol) is for **trusted cluster links only** — the same
trust the ``multiprocessing`` substrate already assumes.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct

import numpy as np

from repro.models.base import SequentialRecommender
from repro.parallel.shm import ArenaLayout, SharedArena
from repro.serving.engine import ScoringEngine, snapshot_arrays

__all__ = [
    "ProtocolError",
    "ConnectionClosed",
    "Frame",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "serialize_live_engine",
    "engine_from_snapshot_payload",
    "engine_from_arena",
    "MAX_FRAME_BYTES",
]

#: First bytes of every payload; a peer speaking anything else (or a
#: frame corrupted in flight) is detected here.
MAGIC = b"RH"
VERSION = 1

#: Upper bound on one frame (1 GiB).  A garbled length prefix must not
#: talk the receiver into allocating unbounded memory.
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct("!I")
_PREFIX = struct.Struct("!2sBI")  # magic, version, header length


class ProtocolError(RuntimeError):
    """The byte stream does not parse as a protocol frame.

    Raised on a wrong magic/version, an implausible length, or a header
    that fails to decode — the signature of a corrupt or garbled frame.
    The connection that produced it must be torn down (the stream offset
    is no longer trustworthy); other connections are unaffected.
    """


class ConnectionClosed(ConnectionError):
    """The peer closed (or died on) the connection mid-frame or between
    frames.  Routers treat it as a failover trigger, servers as a normal
    client departure."""


class Frame:
    """One decoded protocol message: ``kind`` + ``meta`` + named arrays."""

    __slots__ = ("kind", "meta", "arrays")

    def __init__(self, kind: str, meta: dict | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        self.kind = kind
        self.meta = meta or {}
        self.arrays = arrays or {}

    def array(self, name: str) -> np.ndarray:
        """The named array payload (raises ``KeyError`` when absent)."""
        return self.arrays[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Frame(kind={self.kind!r}, meta={self.meta!r}, "
                f"arrays={list(self.arrays)})")


def encode_frame(kind: str, meta: dict | None = None,
                 arrays: dict[str, np.ndarray] | None = None) -> bytes:
    """Serialize one message into its on-wire bytes (prefix included)."""
    arrays = arrays or {}
    contiguous = {name: np.ascontiguousarray(value)
                  for name, value in arrays.items()}
    header = json.dumps({
        "kind": kind,
        "meta": meta or {},
        "arrays": [
            {"name": name, "dtype": value.dtype.str,
             "shape": list(value.shape)}
            for name, value in contiguous.items()
        ],
    }, sort_keys=True).encode("utf-8")
    payload = bytearray()
    payload += _PREFIX.pack(MAGIC, VERSION, len(header))
    payload += header
    for value in contiguous.values():
        payload += value.tobytes()
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return _LENGTH.pack(len(payload)) + bytes(payload)


def send_frame(sock: socket.socket, kind: str, meta: dict | None = None,
               arrays: dict[str, np.ndarray] | None = None) -> None:
    """Encode and write one frame; partial writes are completed or raise."""
    try:
        sock.sendall(encode_frame(kind, meta, arrays))
    except (BrokenPipeError, ConnectionResetError) as error:
        raise ConnectionClosed(f"peer closed during send: {error}") from error


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`.

    Socket timeouts (``settimeout`` on ``sock``) propagate as
    ``TimeoutError`` — the caller's deadline machinery handles them.
    """
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except ConnectionResetError as error:
            raise ConnectionClosed(f"peer reset mid-frame: {error}") from error
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {n} frame bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Frame:
    """Read and decode one frame from ``sock``.

    Raises :class:`ConnectionClosed` on EOF / peer death,
    :class:`ProtocolError` on a garbled stream and ``TimeoutError`` when
    the socket's configured timeout expires first.
    """
    (length,) = _LENGTH.unpack(_read_exact(sock, _LENGTH.size))
    if length < _PREFIX.size or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {length}")
    payload = _read_exact(sock, length)
    magic, version, header_len = _PREFIX.unpack_from(payload, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    header_end = _PREFIX.size + header_len
    if header_len <= 0 or header_end > length:
        raise ProtocolError(f"implausible header length {header_len}")
    try:
        header = json.loads(payload[_PREFIX.size:header_end].decode("utf-8"))
        kind = header["kind"]
        meta = header["meta"]
        specs = header["arrays"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as error:
        raise ProtocolError(f"unparseable frame header: {error}") from error
    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    for spec in specs:
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
            name = spec["name"]
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"bad array spec {spec!r}: {error}") from error
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        if offset + nbytes > length:
            raise ProtocolError(
                f"array {name!r} overruns the frame by "
                f"{offset + nbytes - length} bytes")
        # Copy out of the receive buffer: the returned arrays own their
        # memory (and stay writable) once the frame bytes are released.
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
            offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != length:
        raise ProtocolError(f"{length - offset} trailing bytes after arrays")
    return Frame(kind, meta, arrays)


# ---------------------------------------------------------------------- #
# Snapshot hand-off
# ---------------------------------------------------------------------- #
def serialize_live_engine(engine: ScoringEngine) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` snapshot of a *running* serial engine.

    The engine may already have absorbed ``observe()`` traffic: the
    shipped padded rows and seen arrays are its *current* state, so a
    node bootstrapped from the result (``EngineNode.from_peer``) scores
    bit-identically to the donor at the moment of the snapshot.  A
    donor's trained ANN index travels with it, so the recipient serves
    identical ANN candidates from frame one.
    """
    engine._ensure_seen_arrays()
    seen = engine._seen_items
    indptr = np.zeros(engine.num_users + 1, dtype=np.int64)
    np.cumsum([view.shape[0] for view in seen], out=indptr[1:])
    items = (np.concatenate(seen).astype(np.int64, copy=False)
             if indptr[-1] else np.zeros(0, dtype=np.int64))
    meta = {"exclude_seen": bool(engine.exclude_seen),
            "micro_batch_size": int(engine.micro_batch_size)}
    arrays = {"model_pickle": np.frombuffer(
        pickle.dumps(engine.model, protocol=pickle.HIGHEST_PROTOCOL),
        dtype=np.uint8)}
    arrays.update(snapshot_arrays(np.ascontiguousarray(engine._inputs),
                                  indptr, items, engine._frozen,
                                  engine.ann_index))
    return meta, arrays


def engine_from_snapshot_payload(meta: dict, arrays: dict[str, np.ndarray],
                                 ) -> ScoringEngine:
    """Rebuild a :class:`ScoringEngine` from a snapshot frame.

    The inverse of :func:`serialize_live_engine`: unpickles the model
    and hands the shipped arrays to :meth:`ScoringEngine.from_arrays`
    (the reader the shard workers use), returning an engine whose
    answers are bit-identical to the origin's.  Decoded frame arrays
    are writable copies, so the engine accepts ``observe``.
    """
    model = pickle.loads(arrays["model_pickle"].tobytes())
    return ScoringEngine.from_arrays(
        model, arrays, exclude_seen=bool(meta.get("exclude_seen", True)),
        micro_batch_size=int(meta.get("micro_batch_size", 1024)))


def engine_from_arena(model: SequentialRecommender, layout: ArenaLayout,
                      exclude_seen: bool = True, micro_batch_size: int = 1024,
                      ) -> tuple[ScoringEngine, SharedArena]:
    """Zero-copy engine over a same-host published :class:`SharedArena`.

    A node co-located with the snapshot owner skips the serialization
    step entirely and attaches the already-published segment by name —
    the picklable ``layout`` is the only thing that crosses the process
    boundary, exactly as for the in-process shard workers.  The engine
    accepts ``observe`` when the arena publishes ``inputs`` writable.

    Returns ``(engine, arena)``; the caller owns the arena mapping and
    must ``close()`` it when the engine is retired.
    """
    arena = SharedArena.attach(layout)
    try:
        engine = ScoringEngine.from_arrays(
            model, arena.arrays(), exclude_seen=exclude_seen,
            micro_batch_size=micro_batch_size)
    except Exception:
        arena.close()
        raise
    return engine, arena
