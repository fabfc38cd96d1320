"""Shared pieces of the benchmark: paths, statistics, host record,
calibration kernel, span tracer, timing proxy and leak checks.

Everything here is measurement code that lives in the benchmark's own
directory; nothing under ``src/`` is changed or told that it is being
measured.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = BENCH_DIR / "out"

#: BLAS/OpenMP pools are pinned to one thread so that a run measures the
#: code and not the pool's scheduling; recorded in every artefact.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

now = time.perf_counter


def load_spec() -> dict:
    """``BENCHMARK.json``: the one table of workload and metric names."""
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def spread(values) -> dict:
    """Median, quartiles and IQR/median of a sample (the driver's rule)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}


# ---------------------------------------------------------------------- #
# Host record and resources
# ---------------------------------------------------------------------- #
def host_record() -> dict:
    """Where the numbers came from: cores, BLAS, thread pins."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def calibrate(chunks: int = 5, units: int = 300) -> float:
    """Units/s of a fixed NumPy + Python kernel, median of ``chunks`` chunks.

    Timed before and after a workload: if the two differ by more than
    15 % something else was using the machine and the run is marked
    ``disturbed``.
    """
    import numpy as np

    left = np.full((96, 96), 0.5, dtype=np.float32)
    right = np.full((96, 96), 0.25, dtype=np.float32)
    rates = []
    for _ in range(chunks):
        start = now()
        for _ in range(units):
            (left @ right)[0, 0] + sum(range(2000))
        rates.append(units / (now() - start))
    return statistics.median(rates)


# ---------------------------------------------------------------------- #
# Leak checks
# ---------------------------------------------------------------------- #
def shm_entries() -> set[str]:
    """Names in ``/dev/shm`` owned by this user."""
    found = set()
    try:
        with os.scandir("/dev/shm") as entries:
            for entry in entries:
                try:
                    if entry.stat(follow_symlinks=False).st_uid == os.getuid():
                        found.add(entry.name)
                except FileNotFoundError:
                    continue
    except FileNotFoundError:
        pass
    return found


def child_processes() -> list[tuple[int, str]]:
    """``(pid, cmdline)`` of the live children of this process.

    The ``multiprocessing`` resource tracker is a helper the standard
    library keeps for the life of the process; it is not a leak.
    """
    parent = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            fields = stat.rsplit(")", 1)[1].split()
            state, ppid = fields[0], int(fields[1])
            if ppid != parent or state == "Z":
                continue
            cmdline = Path("/proc", entry, "cmdline").read_bytes() \
                .replace(b"\0", b" ").decode(errors="replace")
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            continue
        if "resource_tracker" in cmdline:
            continue
        children.append((int(entry), cmdline.strip()))
    return children


class LeakCheck:
    """Snapshot before a workload; :meth:`leaks` lists what survived it."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self._shm = shm_entries()
        self._children = {pid for pid, _ in child_processes()}

    def leaks(self) -> list[str]:
        found = [f"child process {pid}: {cmd}" for pid, cmd in child_processes()
                 if pid not in self._children]
        found += [f"/dev/shm/{name}" for name in sorted(shm_entries() - self._shm)]
        if self.scratch.exists():
            found.append(f"scratch dir {self.scratch}")
        return found


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder, written out when the run ends.

    A span is ``(name, start, end, parent, op)``: ``parent`` is the id
    of the span that caused it (``None`` for a root) and ``op`` the id
    of the request it belongs to, so that the spans of one request share
    an identifier.  With ``enabled`` false every call is a no-op, which
    is how the traced pass measures its own overhead.
    """

    def __init__(self):
        self.enabled = True
        self._lock = threading.Lock()
        self.spans: list[list] = []

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, op: int | None = None,
               **attrs) -> int | None:
        if not self.enabled:
            return None
        with self._lock:
            self.spans.append([name, start, end, parent, op, attrs or None])
            return len(self.spans) - 1

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, *_) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def dump(self, path: Path, origin: float) -> None:
        """Write spans as JSON, times in ms relative to ``origin``."""
        rows = []
        for index, (name, start, end, parent, op, attrs) in enumerate(self.spans):
            row = {"id": index, "name": name,
                   "start_ms": (start - origin) * 1e3,
                   "end_ms": (end - origin) * 1e3,
                   "parent": parent, "op": op}
            if attrs:
                row.update(attrs)
            rows.append(row)
        payload = {"unit": "ms", "self_time_ms": {
            name: value * 1e3 for name, value in self.self_times().items()},
            "spans": rows}
        path.write_text(json.dumps(payload))


class TimingProxy:
    """Delegating wrapper that times calls into an engine-like object.

    Handed to ``ServingGateway`` in place of the engine or router.  Every
    attribute is forwarded; calls to the methods in ``TIMED`` are
    recorded as ``<layer>.<method>`` spans with the user ids they served,
    which is what lets a request be matched to the engine call that
    answered it.
    """

    TIMED = ("masked_scores", "score_all", "top_k", "top_k_scored", "observe")

    def __init__(self, target, tracer: Tracer, layer: str):
        self._target = target
        for name in self.TIMED:
            if hasattr(target, name):
                setattr(self, name, self._timed(getattr(target, name), tracer,
                                                f"{layer}.{name}"))

    def __getattr__(self, name):  # everything that is not timed
        return getattr(self._target, name)

    @staticmethod
    def _timed(call, tracer: Tracer, label: str):
        def timed(users, *args, **kwargs):
            if not tracer.enabled:
                return call(users, *args, **kwargs)
            start = now()
            try:
                return call(users, *args, **kwargs)
            finally:
                end = now()
                if label.endswith(".observe"):
                    tracer.record(label, start, end, user=int(users))
                else:
                    tracer.record(label, start, end,
                                  users=[int(user) for user in users])
        return timed
