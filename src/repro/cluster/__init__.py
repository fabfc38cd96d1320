"""Multi-node serving: the arena protocol over sockets.

``repro.cluster`` turns the in-process :mod:`repro.parallel` substrate
into a real serving cluster — the "one serialization step" the arena
protocol was always away from the network:

* :mod:`repro.cluster.protocol` — length-prefixed binary framing of
  the shard request/response messages, plus snapshot hand-off (remote
  bootstrap) and zero-copy same-host :class:`SharedArena` attach;
* :mod:`repro.cluster.node` — :class:`EngineNode`, a TCP/Unix-socket
  server around a scoring engine with health/stats verbs, graceful
  SIGTERM drain and per-connection timeouts;
* :mod:`repro.cluster.router` — :class:`ClusterRouter`, consistent
  user-hash routing over replica sets with heartbeats, failover,
  backoff reconnect, deadline-respecting retries and stale-result
  dropping;
* :mod:`repro.cluster.faults` — the deterministic network fault plans
  (drop/stall/partition/garbled-frame) behind the ``chaos_net`` tier.

The invariant carried over from the sharded engine: ``top_k`` through
``EngineNode`` + ``ClusterRouter`` is **bit-identical** to the serial
engine, including immediately after a primary is SIGKILLed mid-stream.
See ``docs/cluster.md``.
"""

from repro.cluster.faults import NetFaultInjector, NetFaultPlan, NodeFault
from repro.cluster.node import (
    EngineNode,
    NodeHandle,
    parse_address,
    request_reply,
    spawn_node,
)
from repro.cluster.protocol import (
    ConnectionClosed,
    Frame,
    ProtocolError,
    encode_frame,
    engine_from_arena,
    engine_from_snapshot_payload,
    recv_frame,
    send_frame,
    serialize_live_engine,
)
from repro.cluster.router import ClusterRouter, NodeUnavailable, user_range

__all__ = [
    "ClusterRouter",
    "ConnectionClosed",
    "EngineNode",
    "Frame",
    "NetFaultInjector",
    "NetFaultPlan",
    "NodeFault",
    "NodeHandle",
    "NodeUnavailable",
    "ProtocolError",
    "encode_frame",
    "engine_from_arena",
    "engine_from_snapshot_payload",
    "parse_address",
    "recv_frame",
    "request_reply",
    "send_frame",
    "serialize_live_engine",
    "spawn_node",
    "user_range",
]
