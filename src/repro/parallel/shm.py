"""Shared-memory publication of read-only numpy arrays.

The multi-process substrate rests on one observation: everything a
scoring or data-loading worker needs is a set of *read-only* arrays — the
frozen candidate table, the padded per-user inputs, the CSR
``SeenIndex`` arrays, the sliding-window training instances.  Instead of
pickling those arrays into every worker (linear cost per worker, double
memory), the parent publishes them **once** into a single
``multiprocessing.shared_memory`` segment and workers attach zero-copy
views.

:class:`SharedArena` packs any ``{key: ndarray}`` mapping back-to-back
(64-byte aligned) into one segment, so there is exactly one OS object to
create, attach and unlink per engine — leaked-segment accounting
stays trivial and the shutdown fixture in the tests can assert that
``/dev/shm`` is clean afterwards.

The picklable :class:`ArenaLayout` is the hand-off token: the parent
sends it to workers (cheap — names, shapes and dtypes only) and each
worker rebuilds the identical views with :meth:`SharedArena.attach`.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArraySpec", "ArenaLayout", "SharedArena", "SHM_PREFIX"]

#: Prefix of every segment this module creates; tests use it to check for
#: leaked segments in /dev/shm.
SHM_PREFIX = "repro-shm"

_ALIGNMENT = 64  # cache-line alignment for each packed array


@dataclass(frozen=True)
class SharedArraySpec:
    """Location of one array inside a shared segment (picklable).

    ``writable`` marks the array as mutable from attached workers —
    the exception to the arena's read-only rule, used for state that is
    owned exclusively by one worker (e.g. the sharded engine's padded
    input rows, evolved by shard-routed ``observe()`` calls).
    """

    offset: int
    shape: tuple[int, ...]
    dtype: str
    writable: bool = False

    @property
    def nbytes(self) -> int:
        """Payload size of the array in bytes (alignment padding excluded)."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ArenaLayout:
    """Everything a worker needs to attach to a published arena."""

    segment_name: str
    specs: dict[str, SharedArraySpec]


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class SharedArena:
    """One shared-memory segment holding a named set of read-only arrays.

    Parameters are not passed directly — use the two constructors:

    * :meth:`publish` (parent side): copy arrays into a fresh segment.
      The parent owns the segment and must call :meth:`unlink` (or
      :meth:`close` with ``unlink=True``) when the consumers are gone.
    * :meth:`attach` (worker side): map an existing segment from its
      :class:`ArenaLayout`.  Workers only ever :meth:`close`.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 layout: ArenaLayout, owner: bool):
        self._segment = segment
        self.layout = layout
        self._owner = owner
        self._closed = False
        self._arrays: dict[str, np.ndarray] = {}
        for key, spec in layout.specs.items():
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                              buffer=segment.buf, offset=spec.offset)
            if not owner and not spec.writable:
                view.flags.writeable = False
            self._arrays[key] = view
        # Crashed-owner insurance: if the owning process exits (normally
        # or via an unhandled exception unwinding the stack) without
        # close(), the finalizer unlinks the segment so /dev/shm cannot
        # accumulate leaked arenas.  weakref.finalize runs both on GC and
        # at interpreter shutdown, unlike __del__ alone.  Deliberately
        # bound to the raw segment, not self, so it cannot keep the arena
        # alive.
        self._segment_finalizer = None
        if owner:
            self._segment_finalizer = weakref.finalize(
                self, _unlink_segment, segment)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def publish(cls, arrays: dict[str, np.ndarray],
                writable_keys: frozenset[str] | set[str] = frozenset()) -> "SharedArena":
        """Copy ``arrays`` into one new shared segment (parent side).

        Keys listed in ``writable_keys`` stay writable in attached
        workers (see :class:`SharedArraySpec`); everything else is
        mapped read-only on the worker side.
        """
        unknown = set(writable_keys) - set(arrays)
        if unknown:
            raise KeyError(f"writable_keys not in arrays: {sorted(unknown)}")
        specs: dict[str, SharedArraySpec] = {}
        offset = 0
        contiguous = {key: np.ascontiguousarray(value) for key, value in arrays.items()}
        for key, value in contiguous.items():
            offset = _aligned(offset)
            specs[key] = SharedArraySpec(offset=offset, shape=tuple(value.shape),
                                         dtype=value.dtype.str,
                                         writable=key in writable_keys)
            offset += value.nbytes
        name = f"{SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
        layout = ArenaLayout(segment_name=segment.name, specs=specs)
        arena = cls(segment, layout, owner=True)
        for key, value in contiguous.items():
            arena._arrays[key][...] = value
        return arena

    @classmethod
    def attach(cls, layout: ArenaLayout) -> "SharedArena":
        """Map an already-published segment (worker side)."""
        segment = shared_memory.SharedMemory(name=layout.segment_name)
        return cls(segment, layout, owner=False)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def array(self, key: str) -> np.ndarray:
        """Zero-copy view of the published array ``key``."""
        if self._closed:
            raise RuntimeError("arena is closed")
        return self._arrays[key]

    def arrays(self) -> dict[str, np.ndarray]:
        """Every published array by name (zero-copy views)."""
        if self._closed:
            raise RuntimeError("arena is closed")
        return dict(self._arrays)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop this process's mapping; owners also unlink the segment."""
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        if self._segment_finalizer is not None:
            self._segment_finalizer.detach()
        self._segment.close()
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best effort; explicit close() is the contract
        try:
            self.close()
        except Exception:
            pass


def _unlink_segment(segment: shared_memory.SharedMemory) -> None:
    """Owner-death cleanup: close the mapping and unlink the OS object."""
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except Exception:
        pass
