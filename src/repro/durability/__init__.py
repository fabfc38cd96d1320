"""Durable state for the serving stack: WAL, atomic files, disk faults.

The PR 7/8 robustness arc covered process death and network failure;
everything the router knew still lived in memory.  This package makes
state survive the process:

* :mod:`repro.durability.wal` — an append-only, CRC32-framed,
  segmented :class:`~repro.durability.wal.WriteAheadLog` with
  pluggable fsync policy and a recovery scan that truncates a torn or
  corrupt tail instead of crashing.  The
  :class:`~repro.cluster.router.ClusterRouter` journals every
  replicated observe (and per-node watermarks) here when built with
  ``wal_dir=...``, so a SIGKILLed router restarts with bit-identical
  replay state.
* :mod:`repro.durability.atomic` — atomic file publication
  (same-directory temp + fsync + ``os.replace`` + parent-dir fsync)
  and a checksummed envelope; checkpoints publish through both, so a
  crash mid-save never leaves a torn ``.npz`` at the target path and
  silent corruption is detected at load time.
* :mod:`repro.durability.diskfaults` — seeded, deterministic disk
  fault injection (torn writes, bit flips, ``EIO``/``ENOSPC``,
  crash-before-rename) driving the ``chaos_disk`` test tier, built on
  the same :func:`~repro.parallel.faults.fault_rng` stream family as
  the shard and network fault plans.

See ``docs/robustness.md`` for the disk failure model and the
recovery/truncation contract.
"""

from repro.durability.atomic import (
    ENVELOPE_MAGIC,
    EnvelopeCorruptError,
    atomic_write_bytes,
    atomic_writer,
    fsync_dir,
    is_checksummed,
    read_checksummed,
    unwrap_checksummed,
    wrap_checksummed,
    write_checksummed,
)
from repro.durability.diskfaults import (
    DiskFault,
    DiskFaultInjector,
    DiskFaultPlan,
    SimulatedCrash,
    flip_bit,
)
from repro.durability.wal import (
    FSYNC_POLICIES,
    RECORD_HEADER,
    RECORD_MAGIC,
    WalCompactedError,
    WalWriteError,
    WriteAheadLog,
    pack_observe,
    unpack_observe,
)

__all__ = [
    "ENVELOPE_MAGIC",
    "EnvelopeCorruptError",
    "FSYNC_POLICIES",
    "RECORD_HEADER",
    "RECORD_MAGIC",
    "DiskFault",
    "DiskFaultInjector",
    "DiskFaultPlan",
    "SimulatedCrash",
    "WalCompactedError",
    "WalWriteError",
    "WriteAheadLog",
    "atomic_write_bytes",
    "atomic_writer",
    "flip_bit",
    "fsync_dir",
    "is_checksummed",
    "pack_observe",
    "read_checksummed",
    "unpack_observe",
    "unwrap_checksummed",
    "wrap_checksummed",
    "write_checksummed",
]
