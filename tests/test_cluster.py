"""Network chaos suite: the cluster tier under injected socket faults.

Drives :mod:`repro.cluster` through the scenarios ``docs/cluster.md``
promises, all deterministic and single-core safe:

* protocol framing — bit-exact array round-trips, garbled-frame and
  short-read detection before any large allocation;
* node serving — ``EngineNode`` parity with the serial engine over TCP
  and Unix sockets, graceful drain (verb and SIGTERM), health/stats;
* snapshot hand-off — the frame's golden layout, every snapshot reader
  bit-identical to the serial engine before and after ``observe``,
  malformed snapshots refused, ``from_peer`` bootstrap carrying live
  ``observe`` state, zero-copy same-host ``from_arena`` attach;
* routing — ``ClusterRouter`` failover across replicas under SIGKILL,
  dropped connections, garbled replies, partitions and stalls; retry
  budgets that respect the caller's deadline; stale-reply dropping;
  observe replication with epoch-fenced replay after a node rejoin;
* the gateway front — ``ServingGateway.over_cluster`` batching over
  the wire unchanged;
* seed stability — the shared ``fault_rng`` stream family and the
  user→range hash pinned to golden values.

Select with ``pytest -m chaos_net`` or ``make chaos-net``.  Every test
runs under the hard SIGALRM timeout installed by ``conftest.py``.
"""

from __future__ import annotations

import gc
import os
import socket
import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterRouter,
    ConnectionClosed,
    EngineNode,
    NetFaultPlan,
    ProtocolError,
    encode_frame,
    engine_from_arena,
    engine_from_snapshot_payload,
    recv_frame,
    request_reply,
    send_frame,
    serialize_live_engine,
    spawn_node,
    user_range,
)
from repro.cluster.faults import _NET_STREAM, GARBLED_REPLY
from repro.cluster.router import _ranges_of
from repro.models import Popularity, create_model
from repro.parallel.faults import fault_rng
from repro.retrieval import RetrievalConfig
from repro.parallel.shm import SHM_PREFIX, SharedArena
from repro.serving import ScoringEngine, ServingGateway

from test_gateway import GateEngine, submit_and_hold

pytestmark = pytest.mark.chaos_net

NUM_USERS = 12
NUM_ITEMS = 40
ALL_USERS = np.arange(NUM_USERS, dtype=np.int64)


def _shm_entries() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}


@pytest.fixture(autouse=True)
def shm_guard():
    """Every scenario must leave /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    gc.collect()
    leaked = _shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _workload(seed: int = 0):
    """Small untrained model + histories (parity needs no training)."""
    rng = np.random.default_rng(seed)
    model = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(1),
                         embedding_dim=8, n_h=4, n_l=2)
    model.eval()
    histories = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(8, 14)).tolist()
        for _ in range(NUM_USERS)
    ]
    return model, histories


def _serial_engine(model, histories) -> ScoringEngine:
    return ScoringEngine(model, histories, exclude_seen=True, precompute=True)


def _in_process_nodes(model, histories, n_nodes=2, tmp_path=None,
                      fault_plans=None, **node_kwargs):
    """``n_nodes`` thread-served EngineNodes over one workload."""
    nodes = []
    for index in range(n_nodes):
        engine = _serial_engine(model, histories)
        bind = (f"unix:{tmp_path}/node{index}.sock"
                if tmp_path is not None else "127.0.0.1:0")
        plan = fault_plans[index] if fault_plans else None
        nodes.append(EngineNode(engine, bind=bind, own_engine=True,
                                fault_plan=plan, node_index=index,
                                **node_kwargs))
    return nodes


# ---------------------------------------------------------------------- #
# Protocol framing
# ---------------------------------------------------------------------- #
def test_frame_roundtrip_is_bit_exact():
    left, right = socket.socketpair()
    try:
        arrays = {
            "scores": np.random.default_rng(0).normal(size=(3, 7)),
            "users": np.arange(5, dtype=np.int64),
            "flags": np.array([1, 0, 1], dtype=np.uint8),
        }
        send_frame(left, "top_k", {"k": 3, "rid": 9}, arrays)
        frame = recv_frame(right)
    finally:
        left.close()
        right.close()
    assert frame.kind == "top_k"
    assert frame.meta == {"k": 3, "rid": 9}
    for name, value in arrays.items():
        got = frame.array(name)
        assert got.dtype == value.dtype and got.shape == value.shape
        assert np.array_equal(got, value)
        assert got.flags.owndata or got.base is None  # safe to keep


def test_recv_frame_rejects_garbage_before_allocating():
    # Wrong magic (the canonical garbled reply).
    left, right = socket.socketpair()
    try:
        left.sendall(GARBLED_REPLY)
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()
    # An absurd length prefix must not be trusted.
    left, right = socket.socketpair()
    try:
        left.sendall((1 << 31).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()
    # Peer death mid-frame is a connection error, not a parse error.
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame("ping", {})[:7])
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)
    finally:
        right.close()


def test_snapshot_payload_rebuilds_bit_identical_engine():
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    meta, arrays = serialize_live_engine(ScoringEngine(model, histories))
    # Survive an actual framing round-trip, as from_peer does.
    left, right = socket.socketpair()
    try:
        send_frame(left, "ok", meta, arrays)
        frame = recv_frame(right)
    finally:
        left.close()
        right.close()
    rebuilt = engine_from_snapshot_payload(frame.meta, frame.arrays)
    assert np.array_equal(rebuilt.top_k(ALL_USERS, 5),
                          serial.top_k(ALL_USERS, 5))
    assert np.array_equal(rebuilt.masked_scores(ALL_USERS),
                          serial.masked_scores(ALL_USERS))


def _snapshot(name: str = "Caser", ann: bool = True):
    """Model, histories and the snapshot frame of a fresh serial engine."""
    rng = np.random.default_rng(0)
    histories = [rng.integers(0, NUM_ITEMS, size=rng.integers(8, 14)).tolist()
                 for _ in range(NUM_USERS)]
    if name == "POP":
        model = Popularity(NUM_USERS, NUM_ITEMS).fit_counts(histories)
    else:
        model = create_model(name, NUM_USERS, NUM_ITEMS,
                             rng=np.random.default_rng(1), embedding_dim=8)
    engine = ScoringEngine(model, histories)
    if ann:
        engine.build_ann_index(RetrievalConfig())
    meta, arrays = serialize_live_engine(engine)
    return model, histories, meta, arrays


def _assert_scored_equal(engine, serial) -> None:
    """Every item's id and score, masked and unmasked, bit for bit."""
    for exclude in (True, False):
        ours = engine.top_k_scored(ALL_USERS, NUM_ITEMS, exclude_seen=exclude)
        theirs = serial.top_k_scored(ALL_USERS, NUM_ITEMS, exclude_seen=exclude)
        assert np.array_equal(ours[0], theirs[0])
        assert np.array_equal(ours[1], theirs[1])


@pytest.mark.fast
def test_snapshot_frame_golden_layout():
    """The frame's names, dtypes and meta keys, pinned: a change here
    breaks every peer that decodes an older or newer frame."""
    _model, _histories, meta, arrays = _snapshot()
    assert set(meta) == {"exclude_seen", "micro_batch_size"}
    assert {name: value.dtype.str for name, value in arrays.items()} == {
        "model_pickle": "|u1",
        "inputs": "<i8",
        "seen_indptr": "<i8",
        "seen_items": "<i8",
        "candidates": "<f8",
        "item_bias": "<f8",
        "ann_header": "|u1",
        "ann_hyperplanes": "<f8",
        "ann_bucket_indptr": "<i8",
        "ann_bucket_items": "<i8",
        "ann_dials": "<i8",
    }
    assert arrays["inputs"].shape[0] == NUM_USERS
    assert arrays["seen_indptr"].shape == (NUM_USERS + 1,)
    assert arrays["candidates"].shape[0] == NUM_ITEMS + 1  # pad row kept
    assert arrays["item_bias"].shape == (NUM_ITEMS + 1,)
    # Optional keys are simply absent: no flag rides beside them.
    _model, _histories, meta, arrays = _snapshot("POP", ann=False)
    assert set(arrays) == {"model_pickle", "inputs", "seen_indptr", "seen_items"}


@pytest.mark.fast
def test_snapshot_frame_with_legacy_flags_decodes_unchanged():
    """Frames from before the layout had one reader carried ``has_*``
    flags for the head, the bias and the ANN index in their meta; key
    presence alone decides now, so those frames decode to the same
    engine."""
    model, histories, meta, arrays = _snapshot()
    legacy = dict(meta, **{f"has_{part}": True
                           for part in ("frozen", "bias", "ann")})
    frame = recv_frame_of(encode_frame("ok", legacy, arrays))
    engine = engine_from_snapshot_payload(frame.meta, frame.arrays)
    serial = ScoringEngine(model, histories)
    serial.build_ann_index(RetrievalConfig())
    _assert_scored_equal(engine, serial)
    assert np.array_equal(engine.top_k(ALL_USERS, 5, mode="ann"),
                          serial.top_k(ALL_USERS, 5, mode="ann"))


def recv_frame_of(data: bytes):
    """Decode ``data`` through a real socket pair, as a peer would."""
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        return recv_frame(right)
    finally:
        left.close()
        right.close()


@pytest.mark.fast
@pytest.mark.parametrize("name", ["HAMs_m", "Caser", "POP"])
def test_snapshot_payload_matches_serial_before_and_after_observes(name):
    model, histories, meta, arrays = _snapshot(name, ann=False)
    frame = recv_frame_of(encode_frame("ok", meta, arrays))
    engine = engine_from_snapshot_payload(frame.meta, frame.arrays)
    serial = ScoringEngine(model, histories)
    _assert_scored_equal(engine, serial)
    for user, item in [(0, 3), (5, 17), (0, 21)]:
        engine.observe(user, item)
        serial.observe(user, item)
    _assert_scored_equal(engine, serial)


@pytest.mark.fast
@pytest.mark.parametrize("writable", [True, False])
def test_engine_from_arena_matches_serial_and_observes_only_when_writable(writable):
    from repro.parallel.shm import SharedArena

    model, histories, _meta, arrays = _snapshot("HAMs_m", ann=False)
    del arrays["model_pickle"]
    serial = ScoringEngine(model, histories)
    arena = SharedArena.publish(arrays,
                                writable_keys={"inputs"} if writable else set())
    engine, attached = engine_from_arena(model, arena.layout)
    try:
        _assert_scored_equal(engine, serial)
        if writable:
            for user, item in [(0, 3), (5, 17), (0, 21)]:
                engine.observe(user, item)
                serial.observe(user, item)
            _assert_scored_equal(engine, serial)
        else:
            with pytest.raises(RuntimeError, match="read-only"):
                engine.observe(0, 3)
            _assert_scored_equal(engine, serial)
    finally:
        attached.close()
        arena.close()


def _corrupt(arrays: dict, key: str, value) -> dict:
    return dict(arrays, **{key: np.asarray(value)})


@pytest.mark.fast
@pytest.mark.parametrize("key,mutate", [
    # A -1 would silently mask item N-1 and leave the real item unmasked.
    ("seen_items", lambda a: _corrupt(a, "seen_items",
                                      np.where(np.arange(a["seen_items"].size) == 0,
                                               -1, a["seen_items"]))),
    # An id >= N would raise IndexError in the middle of a request.
    ("seen_items", lambda a: _corrupt(a, "seen_items",
                                      np.where(np.arange(a["seen_items"].size) == 0,
                                               NUM_ITEMS, a["seen_items"]))),
    ("seen_indptr", lambda a: _corrupt(a, "seen_indptr", a["seen_indptr"][:-1])),
    ("seen_indptr", lambda a: _corrupt(a, "seen_indptr", a["seen_indptr"] + 1)),
    ("seen_indptr", lambda a: _corrupt(  # decreasing: users 1 and 2 swapped
        a, "seen_indptr",
        a["seen_indptr"][[0, 2, 1, *range(3, NUM_USERS + 1)]])),
    ("seen_indptr", lambda a: _corrupt(a, "seen_indptr",
                                       np.r_[a["seen_indptr"][:-1], a["seen_indptr"][-1] - 1])),
    ("inputs", lambda a: _corrupt(a, "inputs", a["inputs"][:-1])),
    ("inputs", lambda a: _corrupt(a, "inputs", a["inputs"][:, :-1])),
    ("candidates", lambda a: _corrupt(a, "candidates", a["candidates"][:-1])),
    ("item_bias", lambda a: _corrupt(a, "item_bias", a["item_bias"][:-1])),
], ids=["seen-item-minus-one", "seen-item-past-catalogue", "indptr-too-short",
        "indptr-not-from-zero", "indptr-decreasing", "indptr-short-of-items",
        "inputs-missing-user", "inputs-short-rows", "candidates-no-pad-row",
        "bias-no-pad-row"])
def test_malformed_snapshot_is_refused_naming_the_key(key, mutate):
    _model, _histories, meta, arrays = _snapshot(ann=False)
    with pytest.raises(ValueError, match=repr(key)):
        engine_from_snapshot_payload(meta, mutate(arrays))


# ---------------------------------------------------------------------- #
# Seed stability (golden values)
# ---------------------------------------------------------------------- #
def test_fault_rng_schedule_is_stable_across_runs():
    """The shared fault stream family is pinned to golden draws.

    Both the shard-worker injector (``(seed, shard, incarnation)``) and
    the network injector (``(seed, _NET_STREAM, node, connection)``)
    derive their schedules from ``fault_rng``; these literals lock the
    schedule across runs, platforms and refactors.
    """
    golden = {
        (7, 0, 0): [0.625095466604667, 0.8972138009695755,
                    0.7756856902451935],
        (7, 0, 1): [0.8331748283767769, 0.4843365712551232,
                    0.7256603335850057],
        (7, 1, 0): [0.7701409510034741, 0.1119272443176843,
                    0.18909773329712753],
        (11, 3, 2): [0.5809013835840022, 0.21937447207599847,
                     0.5066789119596135],
        (7, _NET_STREAM, 0, 0): [0.8478337519102058, 0.6145184497935583,
                                 0.8724792852325858],
    }
    for key, expected in golden.items():
        draws = fault_rng(*key).uniform(size=3)
        np.testing.assert_allclose(draws, expected, rtol=0, atol=0)
    # Distinct coordinates yield distinct streams (no accidental reuse).
    assert not np.array_equal(fault_rng(7, 0, 0).uniform(size=3),
                              fault_rng(7, 0, 1).uniform(size=3))


def test_user_range_hash_is_stable_and_vectorized():
    golden = {0: 0, 1: 5, 2: 6, 3: 4, 1000: 1, 123456789: 1}
    for user, expected in golden.items():
        assert user_range(user, 7) == expected
    users = np.array(sorted(golden), dtype=np.int64)
    assert np.array_equal(_ranges_of(users, 7),
                          [golden[int(user)] for user in users])
    spread = {user_range(user, 4) for user in range(NUM_USERS)}
    assert len(spread) > 1, "contiguous ids collapsed onto one range"


# ---------------------------------------------------------------------- #
# EngineNode serving
# ---------------------------------------------------------------------- #
def test_engine_node_parity_over_tcp_and_unix(tmp_path):
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    expected = serial.top_k(ALL_USERS, 5)
    for bind in ("127.0.0.1:0", f"unix:{tmp_path}/node.sock"):
        engine = _serial_engine(model, histories)
        with EngineNode(engine, bind=bind, own_engine=True) as node:
            hello = request_reply(node.address, "hello")
            assert hello.meta["num_users"] == NUM_USERS
            assert hello.meta["epoch"] == node.epoch
            ranked = request_reply(node.address, "top_k_scored", {"k": 5},
                                   {"users": ALL_USERS}).array("ranked")
            scores = request_reply(node.address, "masked_scores", {},
                                   {"users": ALL_USERS}).array("scores")
            health = request_reply(node.address, "health").meta["health"]
        assert np.array_equal(ranked, expected)
        assert np.array_equal(scores, serial.masked_scores(ALL_USERS))
        assert health["healthy"] is True


def test_engine_node_answers_only_the_remaining_verbs():
    """The derived verbs never reach the wire: a node answers them with
    an ``unknown verb`` error and keeps serving the same connection."""
    from repro.cluster.node import _connect

    model, histories = _workload()
    serial = _serial_engine(model, histories)
    with EngineNode(_serial_engine(model, histories),
                    own_engine=True) as node:
        sock = _connect(node.address, 10.0)
        try:
            for verb in ("top_k", "score_all", "recommend_batch"):
                send_frame(sock, verb, {"k": 5, "rid": verb},
                           {"users": ALL_USERS})
                reply = recv_frame(sock)
                assert reply.kind == "error"
                assert reply.meta["rid"] == verb
                assert reply.meta["message"] == f"unknown verb {verb!r}"
            send_frame(sock, "top_k_scored", {"k": 5}, {"users": ALL_USERS})
            reply = recv_frame(sock)
        finally:
            sock.close()
    assert reply.kind == "ok"
    ranked, scores = serial.top_k_scored(ALL_USERS, 5)
    assert np.array_equal(reply.array("ranked"), ranked)
    assert np.array_equal(reply.array("scores"), scores)


def test_masked_scores_verb_needs_a_serial_engine():
    from repro.parallel.sharded import ShardedScoringEngine

    model, histories = _workload()
    engine = ShardedScoringEngine(model, histories, n_workers=2)
    with EngineNode(engine, own_engine=True) as node:
        with pytest.raises(RuntimeError,
                           match="masked_scores requires a serial ScoringEngine"):
            request_reply(node.address, "masked_scores", {},
                          {"users": ALL_USERS})
        # The node keeps serving the verb every backend implements.
        ranked = request_reply(node.address, "top_k_scored", {"k": 5},
                               {"users": ALL_USERS}).array("ranked")
    assert np.array_equal(ranked,
                          _serial_engine(model, histories).top_k(ALL_USERS, 5))


def test_engine_node_drain_verb_refuses_new_work():
    model, histories = _workload()
    with EngineNode(_serial_engine(model, histories),
                    own_engine=True) as node:
        reply = request_reply(node.address, "drain")
        assert reply.meta["draining"] is True
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not node._closed:
            time.sleep(0.02)
        assert node._closed, "drain verb never completed"
        with pytest.raises((ConnectionError, OSError)):
            request_reply(node.address, "ping", timeout_s=1.0)


def test_from_peer_snapshot_carries_observes():
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    donor = _serial_engine(model, histories)
    with EngineNode(donor, own_engine=True) as node:
        for user, item in [(0, 3), (5, 17), (0, 21)]:
            request_reply(node.address, "observe",
                          {"user": user, "item": item})
            serial.observe(user, item)
        with EngineNode.from_peer(node.address) as clone:
            ranked = request_reply(clone.address, "top_k_scored", {"k": 5},
                                   {"users": ALL_USERS}).array("ranked")
    assert np.array_equal(ranked, serial.top_k(ALL_USERS, 5))


def test_from_arena_serves_zero_copy_snapshot():
    from repro.data.seen import SeenIndex
    from repro.data.windows import pad_histories, pad_id_for

    model, histories = _workload()
    serial = _serial_engine(model, histories)
    inputs = pad_histories(histories, model.input_length,
                           pad_id_for(NUM_ITEMS),
                           users=np.arange(NUM_USERS, dtype=np.int64))
    seen = SeenIndex.from_histories(histories, NUM_ITEMS)
    frozen = model.freeze(copy=True)
    arrays = {"inputs": inputs, "seen_indptr": seen.indptr,
              "seen_items": seen.items,
              "candidates": frozen.candidate_embeddings}
    if frozen.item_bias is not None:
        arrays["item_bias"] = frozen.item_bias
    arena = SharedArena.publish(arrays, writable_keys={"inputs"})
    try:
        with EngineNode.from_arena(model, arena.layout) as node:
            ranked = request_reply(node.address, "top_k_scored", {"k": 5},
                                   {"users": ALL_USERS}).array("ranked")
        assert np.array_equal(ranked, serial.top_k(ALL_USERS, 5))
    finally:
        arena.close()


# ---------------------------------------------------------------------- #
# ClusterRouter: parity, observes, failover under injected faults
# ---------------------------------------------------------------------- #
def test_recommend_agrees_across_backends_when_k_exceeds_unseen():
    """User 0 has seen 10 of 12 items, so ``recommend(0, 5)`` must fill
    its tail with seen items.  Every backend masks them to ``-inf``
    before ranking and reports the masked score, so all four lists are
    identical and score-sorted."""
    from repro.parallel.sharded import ShardedScoringEngine

    num_users, num_items = 4, 12
    rng = np.random.default_rng(3)
    model = create_model("HAMs_m", num_users, num_items,
                         rng=np.random.default_rng(1),
                         embedding_dim=8, n_h=4, n_l=2)
    histories = [list(range(10))] + [
        rng.integers(0, num_items, size=6).tolist()
        for _ in range(num_users - 1)]
    expected = ScoringEngine(model, histories).recommend(0, 5)
    with ShardedScoringEngine(model, histories, n_workers=2) as sharded:
        assert sharded.recommend(0, 5) == expected
    nodes = [EngineNode(ScoringEngine(model, histories), own_engine=True,
                        node_index=index) for index in range(2)]
    try:
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0) as router:
            assert router.recommend(0, 5) == expected
    finally:
        for node in nodes:
            node.close()
    with ServingGateway(ScoringEngine(model, histories),
                        own_engine=True) as gateway:
        assert gateway.recommend(0, 5) == expected
    assert sorted(entry.item for entry in expected[:2]) == [10, 11]
    assert [(entry.item, entry.score, entry.rank) for entry in expected[2:]] \
        == [(0, -np.inf, 2), (1, -np.inf, 3), (2, -np.inf, 4)]


def test_router_parity_and_observe_replication(tmp_path):
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _in_process_nodes(model, histories, tmp_path=tmp_path)
    try:
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0) as router:
            assert (router.num_users, router.num_items) == (NUM_USERS,
                                                            NUM_ITEMS)
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            assert np.array_equal(router.masked_scores(ALL_USERS),
                                  serial.masked_scores(ALL_USERS))
            assert router.recommend_batch(ALL_USERS, k=3) == \
                serial.recommend_batch(ALL_USERS, k=3)

            # Observes replicate synchronously to every live replica.
            for user, item in [(2, 9), (2, 11), (7, 30)]:
                router.observe(user, item)
                serial.observe(user, item)
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            health = router.health()
            assert health["healthy"] is True
            assert health["observe_log_len"] == 3
            assert router.stats()["observes"] == 3
        # Replication means *either* node alone answers identically.
        for node in nodes:
            assert np.array_equal(
                node.engine.top_k(ALL_USERS, 5), serial.top_k(ALL_USERS, 5))
    finally:
        for node in nodes:
            node.close()


def test_router_fails_over_on_dropped_connection():
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    # Node 0 drops its first connection at the first request frame (the
    # TCP-reset shape of a crash); reconnects serve normally.
    nodes = _in_process_nodes(
        model, histories,
        fault_plans=[NetFaultPlan.drop_connection(node=0), None])
    try:
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0,
                           backoff_base_s=0.01) as router:
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            stats = router.stats()
            assert stats["failovers"] >= 1
        assert nodes[0].stats()["faults_fired"]["drop"] == 1
    finally:
        for node in nodes:
            node.close()


def test_router_fails_over_on_garbled_reply():
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _in_process_nodes(
        model, histories,
        fault_plans=[NetFaultPlan.garble_reply(node=0), None])
    try:
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0,
                           backoff_base_s=0.01) as router:
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            assert router.stats()["failovers"] >= 1
        assert nodes[0].stats()["faults_fired"]["garble"] == 1
    finally:
        for node in nodes:
            node.close()


def test_router_fails_over_on_partitioned_primary():
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _in_process_nodes(
        model, histories,
        fault_plans=[NetFaultPlan.partition(node=0), None])
    try:
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0, connect_timeout_s=1.0,
                           backoff_base_s=0.01) as router:
            # Every range is served by node 1; answers stay identical.
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            router.observe(0, 13)
            serial.observe(0, 13)
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            health = router.health()
        assert health["healthy"] is True  # replicas cover every range
        assert not health["nodes"][0]["up"]
        assert nodes[0].stats()["connections_refused"] >= 1
    finally:
        for node in nodes:
            node.close()


def test_router_deadline_expires_on_stalled_cluster():
    """A wedged node cannot out-wait the caller: TimeoutError on budget.

    Replication 1 and a permanently stalled node leave no replica to
    fail over to — the deadline machinery must surface the timeout in
    bounded time instead of hanging on the silent connection.
    """
    model, histories = _workload()
    nodes = _in_process_nodes(
        model, histories, n_nodes=1,
        fault_plans=[NetFaultPlan.stall_node(node=0, at_request=2,
                                             every_connection=True)])
    try:
        with ClusterRouter([nodes[0].address], replication=1,
                           heartbeat_interval_s=0.0, io_timeout_s=0.2,
                           backoff_base_s=0.01) as router:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                router.top_k(ALL_USERS, 5, timeout=0.5)
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, f"deadline overshot: {elapsed:.1f}s"
            assert router.stats()["deadline_timeouts"] == 1
    finally:
        for node in nodes:
            node.close()


def test_router_drops_stale_reply_after_timeout():
    """A late reply lands on the *next* call and is dropped by rid.

    The first request times out while the node sleeps on its reply; the
    connection is kept, so the delayed frame eventually arrives in
    front of the second request's reply and must be discarded, not
    delivered as the wrong answer.
    """
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _in_process_nodes(
        model, histories, n_nodes=1,
        fault_plans=[NetFaultPlan.delay_node(node=0, delay_s=0.4)])
    try:
        with ClusterRouter([nodes[0].address], replication=1,
                           heartbeat_interval_s=0.0,
                           backoff_base_s=0.01) as router:
            with pytest.raises(TimeoutError):
                router.top_k(ALL_USERS[:4], 5, timeout=0.15)
            ranked = router.top_k(ALL_USERS[:4], 5, timeout=30.0)
            assert np.array_equal(ranked, serial.top_k(ALL_USERS[:4], 5))
            assert router.stats()["stale_replies_dropped"] >= 1
    finally:
        for node in nodes:
            node.close()


def test_router_retry_never_exceeds_caller_deadline():
    model, histories = _workload()
    nodes = _in_process_nodes(model, histories)
    addresses = [node.address for node in nodes]
    router = ClusterRouter(addresses, heartbeat_interval_s=0.0,
                           backoff_base_s=0.01)
    try:
        for node in nodes:  # the whole cluster goes away
            node.close()
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            router.top_k(ALL_USERS, 5, timeout=0.4)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"retries overshot the deadline: {elapsed:.1f}s"
    finally:
        router.close()
        for node in nodes:
            node.close()


# ---------------------------------------------------------------------- #
# Real process death: SIGKILL failover, SIGTERM drain, epoch rejoin
# ---------------------------------------------------------------------- #
def test_sigkill_failover_and_epoch_fenced_rejoin(tmp_path):
    """The acceptance scenario: kill the primary, lose nothing.

    With a replica up and budget left, zero requests fail and every
    answer — including users whose history changed mid-outage — stays
    bit-identical.  A fresh process rejoining at the dead node's address
    is detected by its epoch and replayed the observe log from zero.
    """
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    binds = [f"unix:{tmp_path}/node{i}.sock" for i in range(2)]
    handles = [spawn_node(model, histories, bind=binds[i], node_index=i)
               for i in range(2)]
    router = ClusterRouter([handle.address for handle in handles],
                           heartbeat_interval_s=0.2, connect_timeout_s=2.0,
                           backoff_base_s=0.01)
    try:
        assert np.array_equal(router.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))

        handles[0].kill()  # SIGKILL: no drain, no goodbye
        assert not handles[0].alive()
        # Zero failed requests: the very next sweep must succeed.
        ranked = router.top_k(ALL_USERS, 5, timeout=30.0)
        assert np.array_equal(ranked, serial.top_k(ALL_USERS, 5))
        assert router.stats()["failovers"] >= 1

        # Observes during the outage land on the surviving replica.
        for user, item in [(1, 7), (4, 22)]:
            router.observe(user, item)
            serial.observe(user, item)
        assert np.array_equal(router.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))

        # Rejoin: a fresh process at the same address, booted from the
        # BASE snapshot (the rejoin contract) — the router must notice
        # the epoch change and replay the missed observes.
        handles[0] = spawn_node(model, histories, bind=binds[0],
                                node_index=0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stats = router.stats()
            if stats["rejoins_detected"] >= 1 and \
                    stats["observes_replayed"] >= 2:
                break
            time.sleep(0.05)
        stats = router.stats()
        assert stats["rejoins_detected"] >= 1, stats
        assert stats["observes_replayed"] >= 2, stats
        assert np.array_equal(router.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))
        # And the rejoined node answers for itself, observes included.
        ranked = request_reply(handles[0].address, "top_k_scored", {"k": 5},
                               {"users": ALL_USERS}).array("ranked")
        assert np.array_equal(ranked, serial.top_k(ALL_USERS, 5))
    finally:
        router.close()
        for handle in handles:
            handle.close()


def test_sigterm_drains_node_process_cleanly(tmp_path):
    model, histories = _workload()
    handle = spawn_node(model, histories,
                        bind=f"unix:{tmp_path}/node.sock")
    try:
        reply = request_reply(handle.address, "ping")
        assert reply.meta["draining"] is False
        handle.terminate()  # SIGTERM → graceful drain → exit
        handle.join(timeout_s=30.0)
        assert not handle.alive()
        assert handle.process.exitcode == 0, (
            f"drain exited with {handle.process.exitcode}")
    finally:
        handle.close()


# ---------------------------------------------------------------------- #
# Gateway front
# ---------------------------------------------------------------------- #
def test_gateway_over_cluster_batches_unchanged(tmp_path):
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    expected = serial.top_k(ALL_USERS, 4)
    nodes = _in_process_nodes(model, histories, tmp_path=tmp_path)
    try:
        with ServingGateway.over_cluster(
                [node.address for node in nodes],
                heartbeat_interval_s=0.0, max_batch=8,
                cache_size=0) as gateway:
            # Gate the router the gateway built, to see its batches.
            gate = gateway.engine = GateEngine(gateway.engine)
            futures = [submit_and_hold(gateway, gate, 0, 4)]
            futures += [gateway.submit(int(user), 4) for user in ALL_USERS[1:]]
            gate.release()
            rows = [future.result(timeout=60.0) for future in futures]
            stats = gateway.stats()
        assert np.array_equal(np.stack(rows), expected)
        # Requests coalesce behind a router call as behind a local one.
        assert gate.calls == [[0], list(range(1, 9)), [9, 10, 11]]
        assert (stats.batches, stats.flush_full) == (3, 1)
    finally:
        for node in nodes:
            node.close()
