"""Disk chaos suite: the durability tier under injected disk faults.

Drives :mod:`repro.durability` through the scenarios
``docs/robustness.md`` promises, all deterministic and single-core
safe:

* WAL framing — the on-disk record bytes pinned to a golden value
  (logs written today must stay replayable by every future version),
  append/replay parity, segment rotation and compaction;
* WAL recovery — a torn tail record is truncated away (every record
  before the tear survives), a flipped bit is detected by CRC and the
  untrusted suffix dropped, appends resume at the recovered sequence;
* write faults — ENOSPC/EIO surface as typed
  :class:`~repro.durability.wal.WalWriteError` with the log intact, an
  injected torn write recovers to the pre-crash prefix;
* atomic publication — crash-before-rename never exposes a partial
  file at the target path, the checksummed envelope detects tears and
  bit flips;
* checkpoints — ``save_checkpoint`` is atomic + checksummed, every
  corruption surfaces as a typed
  :class:`~repro.training.checkpoint.CheckpointCorruptError`, legacy
  plain ``.npz`` files still load, ``repro-ham serve --checkpoint``
  exits non-zero with a one-line diagnosis;
* node journal — an :class:`~repro.cluster.node.EngineNode` with
  ``journal_dir`` restores observed interactions across a restart and
  deduplicates at-least-once sequence replay;
* router WAL — the acceptance scenario: a router with ``wal_dir``
  journals every replicated observe, a killed-and-restarted router
  rebuilds its replay state from the WAL and serves bit-identical
  top-k (fresh nodes are caught up by epoch-fenced replay), sealed
  segments compact once every watermark passes them, and a watermark
  below the compaction horizon raises
  :class:`~repro.durability.wal.WalCompactedError`.

Select with ``pytest -m chaos_disk`` or ``make chaos-disk``.  Every
test runs under the hard SIGALRM timeout installed by ``conftest.py``.
"""

from __future__ import annotations

import errno
import time

import numpy as np
import pytest

from repro.cli import CORRUPT_CHECKPOINT_EXIT_CODE, main
from repro.cluster import ClusterRouter, EngineNode, request_reply
from repro.durability import (
    DiskFaultInjector,
    DiskFaultPlan,
    EnvelopeCorruptError,
    SimulatedCrash,
    WalCompactedError,
    WalWriteError,
    WriteAheadLog,
    flip_bit,
    pack_observe,
    read_checksummed,
    unpack_observe,
    write_checksummed,
)
from repro.models import create_model
from repro.serving import ScoringEngine
from repro.training.checkpoint import (CheckpointCorruptError,
                                       load_checkpoint, save_checkpoint)

pytestmark = pytest.mark.chaos_disk

NUM_USERS = 12
NUM_ITEMS = 40
ALL_USERS = np.arange(NUM_USERS, dtype=np.int64)

#: One observe record (user 3, item 17) exactly as stored: magic,
#: u32 length, u32 CRC32, payload — little-endian.  Golden: a change
#: here breaks replay of every log already on disk.
GOLDEN_RECORD = bytes.fromhex(
    "57414c3111000000db22f2cb4f03000000000000001100000000000000")

RECORD_BYTES = 29  # 12-byte header + 17-byte observe payload


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


def _fresh_nodes(model, histories, tmp_path, n_nodes=2):
    """``n_nodes`` thread-served EngineNodes on fixed Unix socket paths."""
    return [
        EngineNode(_serial_engine(model, histories),
                   bind=f"unix:{tmp_path}/node{index}.sock",
                   own_engine=True, node_index=index)
        for index in range(n_nodes)
    ]


# ---------------------------------------------------------------------- #
# WAL framing and basic mechanics
# ---------------------------------------------------------------------- #
def test_wal_record_framing_matches_golden_bytes(tmp_path):
    """The on-disk record framing is pinned, byte for byte."""
    payload = pack_observe(3, 17)
    assert unpack_observe(payload) == (3, 17)
    with WriteAheadLog(tmp_path / "wal") as wal:
        assert wal.append(payload) == 0
    (segment,) = sorted((tmp_path / "wal").iterdir())
    assert segment.name == "wal-00000000000000000000.log"
    assert segment.read_bytes() == GOLDEN_RECORD
    assert len(GOLDEN_RECORD) == RECORD_BYTES


def test_wal_append_replay_rotation_and_compaction(tmp_path):
    directory = tmp_path / "wal"
    payloads = [pack_observe(user, user * 3 + 1) for user in range(7)]
    # Two records per segment: the third append would exceed 64 bytes.
    with WriteAheadLog(directory, fsync="never", segment_bytes=64) as wal:
        for index, payload in enumerate(payloads):
            assert wal.append(payload) == index
        assert [seq for seq, _ in wal.replay()] == list(range(7))
        assert wal.stats()["segments"] == 4

    # A cold reopen recovers everything and resumes the numbering.
    with WriteAheadLog(directory, fsync="never", segment_bytes=64) as wal:
        assert wal.stats()["recovered_records"] == 7
        assert wal.first_seq == 0 and wal.next_seq == 7
        assert [payload for _, payload in wal.replay()] == payloads

        # Compaction deletes exactly the sealed segments wholly below
        # the bound; sequence numbers survive (encoded in filenames).
        assert wal.has_compactable(4)
        result = wal.compact(keep_from_seq=4)
        assert result["segments_deleted"] == 2
        assert result["bytes_reclaimed"] == 4 * RECORD_BYTES
        assert wal.first_seq == 4
        assert [seq for seq, _ in wal.replay()] == [4, 5, 6]
        assert not wal.has_compactable(4)


# ---------------------------------------------------------------------- #
# WAL recovery: torn tails, bit flips, write faults
# ---------------------------------------------------------------------- #
def test_wal_recovery_truncates_torn_tail(tmp_path):
    directory = tmp_path / "wal"
    with WriteAheadLog(directory, fsync="never") as wal:
        for user in range(5):
            wal.append(pack_observe(user, user + 20))
    (segment,) = sorted(directory.iterdir())
    data = segment.read_bytes()
    segment.write_bytes(data[:-10])  # power loss mid-write of record 4

    wal = WriteAheadLog(directory, fsync="never")
    try:
        stats = wal.stats()
        assert stats["recovered_records"] == 4
        assert stats["truncated_tail_bytes"] == RECORD_BYTES - 10
        replayed = [unpack_observe(payload) for _, payload in wal.replay()]
        assert replayed == [(user, user + 20) for user in range(4)]
        # Appends resume at the truncated slot; the log is whole again.
        assert wal.append(pack_observe(9, 9)) == 4
    finally:
        wal.close()


def test_wal_recovery_detects_bit_flip_and_drops_later_segments(tmp_path):
    directory = tmp_path / "wal"
    with WriteAheadLog(directory, fsync="never",
                       segment_bytes=4 * RECORD_BYTES) as wal:
        for user in range(10):
            wal.append(pack_observe(user, user))
    segments = sorted(directory.iterdir())
    assert len(segments) == 3
    # Flip one payload bit of record 2 (inside the first segment): the
    # CRC must catch it, keep records 0-1 and drop the whole suffix —
    # later segments cannot be trusted to be contiguous with it.
    flip_bit(segments[0], byte=2 * RECORD_BYTES + 12, bit=3)

    wal = WriteAheadLog(directory, fsync="never")
    try:
        stats = wal.stats()
        assert stats["recovered_records"] == 2
        assert stats["dropped_segments"] == 2
        assert wal.next_seq == 2
        assert [seq for seq, _ in wal.replay()] == [0, 1]
    finally:
        wal.close()


def test_flip_bit_is_deterministic_for_a_seed(tmp_path):
    for name in ("a.bin", "b.bin"):
        (tmp_path / name).write_bytes(bytes(range(64)))
    first = flip_bit(tmp_path / "a.bin", seed=7, key=(1,))
    second = flip_bit(tmp_path / "b.bin", seed=7, key=(1,))
    assert first == second
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_wal_enospc_is_typed_and_leaves_log_intact(tmp_path):
    directory = tmp_path / "wal"
    injector = DiskFaultInjector(DiskFaultPlan.no_space(at_op=3))
    wal = WriteAheadLog(directory, fsync="never", fault_injector=injector)
    try:
        wal.append(pack_observe(0, 1))
        wal.append(pack_observe(1, 2))
        with pytest.raises(WalWriteError) as excinfo:
            wal.append(pack_observe(2, 3))
        assert excinfo.value.errno == errno.ENOSPC
        assert str(directory) in str(excinfo.value.path.parent) or \
            excinfo.value.path.parent == directory
        # The failed append was truncated away; the log keeps working
        # and the sequence number is reused by the next success.
        assert wal.append(pack_observe(2, 3)) == 2
    finally:
        wal.close()
    with WriteAheadLog(directory, fsync="never") as wal:
        assert wal.stats()["recovered_records"] == 3


def test_wal_injected_torn_write_recovers_prefix(tmp_path):
    directory = tmp_path / "wal"
    injector = DiskFaultInjector(DiskFaultPlan.torn_write(at_op=2, at_byte=7))
    wal = WriteAheadLog(directory, fsync="never", fault_injector=injector)
    wal.append(pack_observe(5, 6))
    with pytest.raises(SimulatedCrash):
        wal.append(pack_observe(7, 8))
    # No close(): the "process" died with 7 torn bytes on disk.
    reopened = WriteAheadLog(directory, fsync="never")
    try:
        stats = reopened.stats()
        assert stats["recovered_records"] == 1
        assert stats["truncated_tail_bytes"] == 7
        assert [unpack_observe(p) for _, p in reopened.replay()] == [(5, 6)]
        assert reopened.append(pack_observe(7, 8)) == 1
    finally:
        reopened.close()


# ---------------------------------------------------------------------- #
# Atomic publication + checksummed envelope
# ---------------------------------------------------------------------- #
def test_crash_before_rename_never_exposes_partial_file(tmp_path):
    target = tmp_path / "state.bin"
    write_checksummed(target, b"generation-1")
    injector = DiskFaultInjector(DiskFaultPlan.crash_before_rename())
    with pytest.raises(SimulatedCrash):
        write_checksummed(target, b"generation-2", fault_injector=injector)
    # The target still reads the previous generation, fully intact —
    # the torn attempt lives only in the (crash-orphaned) temp file.
    assert read_checksummed(target) == b"generation-1"
    orphans = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert orphans, "the crash should have orphaned a temp file"


def test_envelope_detects_tear_and_bit_flip(tmp_path):
    target = tmp_path / "state.bin"
    write_checksummed(target, b"payload-bytes")
    assert read_checksummed(target) == b"payload-bytes"

    flip_bit(target, byte=target.stat().st_size - 1, bit=0)
    with pytest.raises(EnvelopeCorruptError, match="CRC32 mismatch"):
        read_checksummed(target)

    write_checksummed(target, b"payload-bytes")
    target.write_bytes(target.read_bytes()[:-4])  # torn write
    with pytest.raises(EnvelopeCorruptError, match="torn envelope"):
        read_checksummed(target)

    target.write_bytes(b"not an envelope at all")
    with pytest.raises(EnvelopeCorruptError, match="bad envelope magic"):
        read_checksummed(target)


# ---------------------------------------------------------------------- #
# Checkpoints: atomic, checksummed, typed corruption errors
# ---------------------------------------------------------------------- #
def test_checkpoint_roundtrip_and_crash_mid_save_preserves_previous(tmp_path):
    model, _ = _workload()
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, metadata={"generation": 1})

    clone = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(99),
                         embedding_dim=8, n_h=4, n_l=2)
    metadata = load_checkpoint(clone, path)
    assert metadata == {"generation": 1}
    for name, value in model.state_dict().items():
        assert np.array_equal(clone.state_dict()[name], value), name

    # A crash between the temp write and the rename must leave the
    # previous checkpoint untouched at the target path.
    injector = DiskFaultInjector(DiskFaultPlan.crash_before_rename())
    with pytest.raises(SimulatedCrash):
        save_checkpoint(model, path, metadata={"generation": 2},
                        fault_injector=injector)
    assert load_checkpoint(clone, path) == {"generation": 1}

    # So must a torn write of the temp file itself.
    injector = DiskFaultInjector(DiskFaultPlan.torn_write(at_op=1, at_byte=64))
    with pytest.raises(SimulatedCrash):
        save_checkpoint(model, path, metadata={"generation": 3},
                        fault_injector=injector)
    assert load_checkpoint(clone, path) == {"generation": 1}


def test_corrupt_checkpoint_raises_typed_error(tmp_path):
    model, _ = _workload()
    path = save_checkpoint(model, tmp_path / "model.npz")
    flip_bit(path, byte=path.stat().st_size // 2, bit=5)
    clone = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(99),
                         embedding_dim=8, n_h=4, n_l=2)
    with pytest.raises(CheckpointCorruptError) as excinfo:
        load_checkpoint(clone, path)
    assert str(path) in str(excinfo.value)
    assert excinfo.value.path == path

    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"\x00" * 200)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(clone, garbage)


def test_legacy_plain_npz_checkpoint_still_loads(tmp_path):
    model, _ = _workload()
    import json

    legacy = tmp_path / "legacy.npz"
    state = dict(model.state_dict())
    state["__metadata__"] = np.frombuffer(
        json.dumps({"legacy": True}).encode("utf-8"), dtype=np.uint8)
    with open(legacy, "wb") as handle:
        np.savez(handle, **state)  # pre-envelope format: a bare zip
    clone = create_model("HAMs_m", NUM_USERS, NUM_ITEMS,
                         rng=np.random.default_rng(99),
                         embedding_dim=8, n_h=4, n_l=2)
    assert load_checkpoint(clone, legacy) == {"legacy": True}
    for name, value in model.state_dict().items():
        assert np.array_equal(clone.state_dict()[name], value), name


def test_cli_serve_exits_nonzero_on_corrupt_checkpoint(tmp_path, capsys):
    corrupt = tmp_path / "model.npz"
    corrupt.write_bytes(b"\xde\xad\xbe\xef" * 50)
    code = main(["serve", "--checkpoint", str(corrupt), "--scale", "tiny"])
    captured = capsys.readouterr()
    assert code == CORRUPT_CHECKPOINT_EXIT_CODE
    assert captured.err.startswith("error: ")
    assert "corrupt checkpoint" in captured.err
    assert str(corrupt) in captured.err


# ---------------------------------------------------------------------- #
# EngineNode: local journal and sequence dedup
# ---------------------------------------------------------------------- #
def test_engine_node_journal_restores_observes_across_restart(tmp_path):
    model, histories = _workload()
    mirror = _serial_engine(model, histories)
    journal = tmp_path / "journal"
    observed = [(0, 3), (5, 17), (0, 21)]

    with EngineNode(_serial_engine(model, histories), own_engine=True,
                    bind=f"unix:{tmp_path}/node.sock",
                    journal_dir=str(journal)) as node:
        for user, item in observed:
            request_reply(node.address, "observe",
                          {"user": user, "item": item})
            mirror.observe(user, item)
        assert node.stats()["observes_journaled"] == len(observed)

    # A fresh process: base engine + the journal = the old state.
    with EngineNode(_serial_engine(model, histories), own_engine=True,
                    bind=f"unix:{tmp_path}/node.sock",
                    journal_dir=str(journal)) as node:
        assert node.stats()["journal_replayed"] == len(observed)
        ranked = request_reply(node.address, "top_k_scored", {"k": 5},
                               {"users": ALL_USERS}).array("ranked")
    assert np.array_equal(ranked, mirror.top_k(ALL_USERS, 5))


def test_engine_node_dedups_sequence_replay(tmp_path):
    model, histories = _workload()
    mirror = _serial_engine(model, histories)
    mirror.observe(2, 9)
    with EngineNode(_serial_engine(model, histories),
                    own_engine=True) as node:
        first = request_reply(node.address, "observe",
                              {"user": 2, "item": 9, "seq": 4})
        assert "deduped" not in first.meta
        # At-least-once redelivery of the same sequence number (the
        # router replaying after its own crash) must not double-apply.
        second = request_reply(node.address, "observe",
                               {"user": 2, "item": 9, "seq": 4})
        assert second.meta["deduped"] is True
        stats = node.stats()
        assert stats["applied_seq"] == 4
        assert stats["observes_deduped"] == 1
        ranked = request_reply(node.address, "top_k_scored", {"k": 5},
                               {"users": ALL_USERS}).array("ranked")
    assert np.array_equal(ranked, mirror.top_k(ALL_USERS, 5))


# ---------------------------------------------------------------------- #
# ClusterRouter over a WAL: the acceptance scenarios
# ---------------------------------------------------------------------- #
def test_router_restart_restores_watermarks_without_replay(tmp_path):
    """Clean restart, nodes stayed up: watermarks come from the WAL.

    The journaled (watermark, epoch) pairs match the live nodes, so the
    restarted router neither loses the observe log nor re-replays it.
    """
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _fresh_nodes(model, histories, tmp_path)
    addresses = [node.address for node in nodes]
    observed = [(2, 9), (2, 11), (7, 30)]
    try:
        with ClusterRouter(addresses, heartbeat_interval_s=0.0,
                           wal_dir=str(tmp_path / "wal")) as router:
            for user, item in observed:
                router.observe(user, item)
                serial.observe(user, item)
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))

        with ClusterRouter(addresses, heartbeat_interval_s=0.0,
                           wal_dir=str(tmp_path / "wal")) as router:
            stats = router.stats()
            assert stats["wal_recovered_observes"] == len(observed)
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            health = router.health()
            assert health["observe_log_len"] == len(observed)
            assert health["wal"]["directory"] == str(tmp_path / "wal")
            # Same epochs, journaled watermarks: nothing to replay.
            assert router.stats()["observes_replayed"] == 0
    finally:
        for node in nodes:
            node.close()


def test_router_killed_midstream_replays_wal_to_fresh_nodes(tmp_path):
    """The tentpole acceptance test: SIGKILL the router, lose nothing.

    The first router journals replicated observes to its WAL and dies
    without any shutdown (no close, no final sync — ``fsync="always"``
    made every append durable at append time).  Both nodes are then
    replaced by fresh processes booted from the base snapshot.  A new
    router on the same ``wal_dir`` must rebuild the observe log, fence
    the fresh epochs, replay every observe — and serve top-k
    bit-identical to a serial engine that saw the same interactions.
    """
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _fresh_nodes(model, histories, tmp_path)
    addresses = [node.address for node in nodes]
    observed = [(2, 9), (2, 11), (7, 30), (0, 13)]
    crashed = ClusterRouter(addresses, heartbeat_interval_s=0.0,
                            wal_dir=str(tmp_path / "wal"), wal_fsync="always")
    try:
        assert np.array_equal(crashed.top_k(ALL_USERS, 5),
                              serial.top_k(ALL_USERS, 5))
        for user, item in observed:
            crashed.observe(user, item)
            serial.observe(user, item)
        # --- SIGKILL: the router object is abandoned mid-stream. ------ #

        # The whole cluster is also replaced: fresh processes, fresh
        # epochs, base snapshot (the rejoin contract).
        for node in nodes:
            node.close()
        nodes = _fresh_nodes(model, histories, tmp_path)

        with ClusterRouter(addresses, heartbeat_interval_s=0.0,
                           wal_dir=str(tmp_path / "wal")) as router:
            stats = router.stats()
            assert stats["wal_recovered_observes"] == len(observed)
            # Epoch fencing reset every fresh node's watermark to zero;
            # the request path replays the log before answering.
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            stats = router.stats()
            assert stats["observes_replayed"] >= len(observed)
            health = router.health()
            assert all(entry["rejoins"] >= 1 for entry in health["nodes"])
            # And each fresh node answers for itself, observes included.
            for node in nodes:
                ranked = request_reply(node.address, "top_k_scored", {"k": 5},
                                       {"users": ALL_USERS}).array("ranked")
                assert np.array_equal(ranked, serial.top_k(ALL_USERS, 5))
    finally:
        crashed.close()
        for node in nodes:
            node.close()


def test_router_wal_write_error_fails_observe_before_any_replica(tmp_path):
    """What cannot be made durable is not applied anywhere."""
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _fresh_nodes(model, histories, tmp_path)
    # Writes 1-2 are the W records of each node's first contact; after
    # that every observe appends exactly one O record, so write 3 is
    # observe #1's O and write 4 is observe #2's O.
    injector = DiskFaultInjector(DiskFaultPlan.no_space(at_op=4))
    try:
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0,
                           wal_dir=str(tmp_path / "wal"),
                           wal_fault_injector=injector) as router:
            router.observe(2, 9)
            serial.observe(2, 9)
            with pytest.raises(WalWriteError) as excinfo:
                router.observe(2, 11)  # journal append hits ENOSPC
            assert excinfo.value.errno == errno.ENOSPC
            router.observe(7, 30)
            serial.observe(7, 30)
            stats = router.stats()
            assert stats["wal_write_errors"] == 1
            assert stats["observes"] == 2
            # The failed observe reached no replica: parity holds with
            # a serial engine that never saw it.
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
    finally:
        for node in nodes:
            node.close()


def _wal_tags(wal_dir) -> str:
    """The record tags of a router WAL in append order (``O``/``W``/``A``)."""
    wal = WriteAheadLog(str(wal_dir))
    try:
        return "".join(chr(payload[0]) for _, payload in wal.replay())
    finally:
        wal.close()


def test_router_appends_one_wal_record_per_observe(tmp_path):
    """N observes on a healthy replicated cluster are N ``O`` records.

    Node watermarks are journaled at first contact and on ``close()``,
    never per observe (nor per request).
    """
    model, histories = _workload()
    nodes = _fresh_nodes(model, histories, tmp_path)
    wal_dir = tmp_path / "wal"
    observes = 7
    try:
        with ClusterRouter([node.address for node in nodes], replication=2,
                           heartbeat_interval_s=0.0,
                           wal_dir=str(wal_dir)) as router:
            for index in range(observes):
                router.observe(index % NUM_USERS, (5 * index) % NUM_ITEMS)
                router.top_k(ALL_USERS, 5)
            assert router.stats()["observes"] == observes
        assert _wal_tags(wal_dir) == "WW" + "O" * observes + "WW"
    finally:
        for node in nodes:
            node.close()


def _recover_after_abandoned_router(tmp_path, heartbeat_after: int | None):
    """Abandon a router (no ``close()``), recover a successor, compare.

    Nine observes; with ``heartbeat_after`` set, one heartbeat pass
    runs after that many of them.  The nodes stay up on their epochs,
    so the successor re-sends exactly the entries after the last
    journaled watermark and every node drops each one by ``seq``.
    """
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _fresh_nodes(model, histories, tmp_path)
    addresses = [node.address for node in nodes]
    wal_dir = str(tmp_path / "wal")
    rng = np.random.default_rng(11)
    observed = [(int(rng.integers(0, NUM_USERS)), int(rng.integers(0, NUM_ITEMS)))
                for _ in range(9)]
    abandoned = ClusterRouter(addresses, replication=2,
                              heartbeat_interval_s=0.0, wal_dir=wal_dir)
    try:
        for index, (user, item) in enumerate(observed):
            if index == heartbeat_after:
                abandoned._heartbeat_pass(5.0)
            abandoned.observe(user, item)
            serial.observe(user, item)
        # --- abandoned: no close(), so no final watermark record. ------ #
        resent = len(observed) - (heartbeat_after or 0)
        deduped = [node.stats()["observes_deduped"] for node in nodes]

        with ClusterRouter(addresses, replication=2, heartbeat_interval_s=0.0,
                           wal_dir=wal_dir) as successor:
            assert successor.stats()["wal_recovered_observes"] == len(observed)
            assert np.array_equal(successor.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))
            # Replication 2 of 2: every node holds every range.
            assert successor.stats()["observes_replayed"] == resent * len(nodes)
            assert successor.stats()["rejoins_detected"] == 0
        for node, before in zip(nodes, deduped):
            assert node.stats()["observes_deduped"] - before == resent
            for user in range(NUM_USERS):
                assert node.engine.history(user) == serial.history(user)
    finally:
        abandoned.close()
        for node in nodes:
            node.close()


def test_router_successor_replay_is_bounded_without_heartbeat(tmp_path):
    # Only first contact was journaled: all nine entries are re-sent.
    _recover_after_abandoned_router(tmp_path, heartbeat_after=None)


def test_router_successor_replay_is_bounded_by_last_heartbeat(tmp_path):
    # The heartbeat journaled the watermarks after six observes: only
    # the last three are re-sent.
    _recover_after_abandoned_router(tmp_path, heartbeat_after=6)


def test_router_compacts_wal_and_fences_stale_watermarks(tmp_path):
    model, histories = _workload()
    serial = _serial_engine(model, histories)
    nodes = _fresh_nodes(model, histories, tmp_path)
    rng = np.random.default_rng(3)
    try:
        # Tiny segments: every couple of records seals one, so the
        # watermarks pass whole segments quickly.
        with ClusterRouter([node.address for node in nodes],
                           heartbeat_interval_s=0.0,
                           wal_dir=str(tmp_path / "wal"),
                           wal_segment_bytes=128) as router:
            for _ in range(8):
                user = int(rng.integers(0, NUM_USERS))
                item = int(rng.integers(0, NUM_ITEMS))
                router.observe(user, item)
                serial.observe(user, item)
            before = router.health()["wal"]["segments"]
            router._maybe_compact()  # the heartbeat's idle-time sweep
            health = router.health()
            assert router.stats()["wal_compactions"] >= 1
            assert health["wal"]["segments"] < before
            assert health["compacted_below"] > 0
            assert health["observe_log_len"] < 8
            assert np.array_equal(router.top_k(ALL_USERS, 5),
                                  serial.top_k(ALL_USERS, 5))

            # A node whose watermark predates the horizon cannot be
            # caught up by replay — the typed error tells the operator
            # to bootstrap it from a live peer snapshot instead.
            router.observe(1, 5)  # a live entry above the horizon
            serial.observe(1, 5)
            client = router._clients[0]
            with client.lock:
                client.watermark = 0
                with pytest.raises(WalCompactedError):
                    router._catch_up_locked(client,
                                            time.monotonic() + 5.0)
            assert router.stats()["catch_up_impossible"] == 1
    finally:
        for node in nodes:
            node.close()
