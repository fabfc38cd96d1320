"""Load generator for the serving workloads and the reference check.

One process, two threads: the scheduler (the caller's thread) submits
ops, a collector waits on ``GatewayFuture.result`` in submit order.

* **Open loop** (``rate``): op *i* is due at ``start + i / rate`` whatever
  the system does; latency runs from the due time, so a stall is charged
  to every op it delays, and how late the generator itself ran is
  reported as lateness.  The scheduler sleeps to each due time and never
  spins: a spinning scheduler holds the interpreter lock and starves the
  gateway's flusher thread.
* **Closed loop** (``window``): at most ``window`` requests outstanding;
  the next is sent when a reply frees a slot.

``observe`` is synchronous in the public API, so the scheduler issues it
inline and whatever it delays pays for it.
"""

from __future__ import annotations

import bisect
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import now
from fixtures import K

#: How long the collector waits for one reply before counting it failed.
REPLY_TIMEOUT_S = 20.0


@dataclass
class PhaseLog:
    """What one phase sent and what came back, in issue order."""

    name: str
    started: float = 0.0
    ended: float = 0.0
    # requests
    users: list[int] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    submit_start: list[float] = field(default_factory=list)
    submit_end: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    replies: list = field(default_factory=list)  # ndarray | Exception
    #: observes started before the request was submitted / collected
    observes_at_submit: list[int] = field(default_factory=list)
    observes_at_done: list[int] = field(default_factory=list)
    # observes: (user, item, start, end, error)
    observes: list[tuple] = field(default_factory=list)

    def latencies(self) -> np.ndarray:
        return np.asarray(self.done) - np.asarray(self.due)

    def lateness(self) -> np.ndarray:
        return np.asarray(self.submit_start) - np.asarray(self.due)


def run_phase(gateway, stream, name: str, duration: float,
              rate: float | None = None, window: int | None = None) -> PhaseLog:
    """Drive ``gateway`` for ``duration`` seconds, open or closed loop."""
    if (rate is None) == (window is None):
        raise ValueError("pass exactly one of rate (open loop) or window (closed loop)")
    log = PhaseLog(name)
    pending: queue.SimpleQueue = queue.SimpleQueue()
    slots = threading.Semaphore(window) if window else None
    observes_started = [0]

    def collect() -> None:
        while True:
            future = pending.get()
            if future is None:
                return
            try:
                reply = future.result(REPLY_TIMEOUT_S)
            except Exception as error:  # counted as a failed op below
                reply = error
            log.done.append(now())
            log.replies.append(reply)
            log.observes_at_done.append(observes_started[0])
            if slots is not None:
                slots.release()

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    log.started = start = now()
    deadline = start + duration
    issued = 0
    try:
        while True:
            if rate is not None:
                due = start + issued / rate
                if due >= deadline:
                    break
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
            else:
                if now() >= deadline:
                    break
                if not slots.acquire(timeout=REPLY_TIMEOUT_S):
                    break  # replies stopped coming; the collector reports them
                due = now()
            is_observe, user, item = stream.next()
            issued += 1
            if is_observe:
                if slots is not None:
                    slots.release()
                observes_started[0] += 1
                begin, error = now(), None
                try:
                    gateway.observe(user, item)
                except Exception as failure:
                    error = failure
                log.observes.append((user, item, begin, now(), error))
                continue
            begin = now()
            try:
                future = gateway.submit(user, K)
            except Exception as failure:
                # Refused at the door (shed): a reply that is an error.
                future = _Failed(failure)
            log.users.append(user)
            log.due.append(due)
            log.submit_start.append(begin)
            log.submit_end.append(now())
            log.observes_at_submit.append(len(log.observes))
            pending.put(future)
    finally:
        pending.put(None)
        collector.join()
    log.ended = now()
    return log


class _Failed:
    """Stands in for a future when ``submit`` itself raised."""

    def __init__(self, error: Exception):
        self._error = error

    def result(self, timeout=None):
        raise self._error


def segment_throughput(done: list[float], start: float, duration: float,
                       segments: int = 5) -> list[float]:
    """Replies per second in each of ``segments`` equal slices of a phase."""
    edges = start + np.linspace(0.0, duration, segments + 1)
    counts, _ = np.histogram(np.asarray(done), bins=edges)
    return (counts / (duration / segments)).tolist()


# ---------------------------------------------------------------------- #
# Reference check
# ---------------------------------------------------------------------- #
@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    near_ties: int = 0
    correct: list[bool] = field(default_factory=list)  # per request, all phases
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _near_tie(reply: np.ndarray, expected: np.ndarray, row: np.ndarray) -> bool:
    """Same scores position by position, different ids.

    A one-row request goes through BLAS ``gemv`` and a batched one
    through ``gemm``; their float32 sums can differ in the last bit, so
    two items whose scores tie to that precision may swap.  The ids are
    otherwise required to be identical.
    """
    if reply.shape != expected.shape or len(set(reply.tolist())) != reply.size:
        return False
    return bool(np.allclose(row[reply], row[expected], rtol=1e-5, atol=1e-7))


def verify(reference, phases: list[PhaseLog]) -> Verdict:
    """Compare every reply with a serial ``ScoringEngine`` reference.

    Observes are mirrored into ``reference`` in issue order.  A request
    that was in flight while an observe for its user was applied may
    legitimately see the state before or after it, so a reply is correct
    if it equals the reference answer at any history version of its user
    between submit and collect.
    """
    verdict = Verdict()
    # Flatten: requests carry the index of the first observe after them.
    requests = []  # (user, reply, first_version, last_version)
    observes = []
    for log in phases:
        base = len(observes)
        observes.extend(log.observes)
        for index, user in enumerate(log.users):
            requests.append((user, log.replies[index],
                             base + log.observes_at_submit[index],
                             base + log.observes_at_done[index]))
    per_user: dict[int, list[int]] = {}
    for position, (user, *_rest) in enumerate(observes):
        per_user.setdefault(user, []).append(position)

    waiting: dict[tuple[int, int], list[int]] = {}
    verdict.correct = [False] * len(requests)
    for index, (user, reply, submitted, collected) in enumerate(requests):
        verdict.attempted += 1
        if isinstance(reply, Exception):
            continue
        positions = per_user.get(user, ())
        first = bisect.bisect_left(positions, submitted)
        last = bisect.bisect_left(positions, collected)
        for version in range(first, last + 1):
            waiting.setdefault((user, version), []).append(index)

    def check(users: list[int], version_of) -> None:
        if not users:
            return
        expected = reference.top_k(np.asarray(users, dtype=np.int64), K)
        for row, user in enumerate(users):
            scores = None
            for index in waiting.pop((user, version_of[user]), ()):
                if verdict.correct[index]:
                    continue
                reply = requests[index][1]
                if np.array_equal(reply, expected[row]):
                    verdict.correct[index] = True
                    continue
                if scores is None:
                    scores = reference.masked_scores([user])[0]
                if _near_tie(reply, expected[row], scores):
                    verdict.correct[index] = True
                    verdict.near_ties += 1

    version = {user: 0 for user in per_user}
    for user, item, _begin, _end, error in observes:
        verdict.attempted += 1
        if error is not None:
            verdict.fail(f"observe({user}, {item}) raised {error!r}")
            version[user] += 1  # keeps later version numbers aligned
            continue
        if (user, version[user]) in waiting:
            check([user], version)
        reference.observe(user, item)
        version[user] += 1
    remaining = sorted({user for user, _ in waiting})
    final = {user: version.get(user, 0) for user in remaining}
    check(remaining, final)

    for index, ok in enumerate(verdict.correct):
        if not ok:
            reply = requests[index][1]
            what = repr(reply) if isinstance(reply, Exception) else "differs from reference"
            verdict.fail(f"top_k(user={requests[index][0]}) {what}")
    return verdict
