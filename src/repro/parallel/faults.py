"""Deterministic fault injection for the multi-process substrate.

Chaos testing a multi-process engine is only useful when the chaos is
*reproducible*: a test that kills a worker "sometimes around request 10"
cannot assert recovery behaviour bit-for-bit.  This module makes faults
first-class, seedable configuration instead of ad-hoc monkeypatching:

* :class:`ShardFault` describes what goes wrong on one shard — die with
  ``SIGKILL`` upon receiving the N-th request, delay every response by a
  fixed amount (plus seeded jitter), or stall outright (stop answering
  while staying alive, the shape of a wedged queue).
* :class:`FaultPlan` bundles the per-shard faults with a seed.  The plan
  is a picklable frozen dataclass, so it travels to workers through the
  normal ``multiprocessing`` start-up path — injection requires no
  cooperation from the code under test beyond accepting the plan.
* :class:`FaultInjector` is the worker-side executor: it counts the
  requests its shard receives and applies the configured fault at the
  exact, deterministic point.

Kills happen *after* a request has been consumed from the task queue and
*before* it is answered — the worst case for the supervisor, which must
re-dispatch the in-flight request to the respawned worker.  By default a
kill/stall fires only in the worker's first incarnation so a respawned
worker recovers cleanly; ``every_incarnation=True`` makes the fault
permanent, which is how the restart-budget-exhaustion path is driven.

The chaos test suite (``tests/test_resilience.py``, ``make chaos``) is
built on these plans.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ShardFault", "FaultPlan", "FaultInjector", "fault_rng"]

#: How long a stalled worker sleeps per stall round (it never answers
#: again, but stays interruptible for terminate()).
_STALL_NAP_S = 0.5


def fault_rng(seed: int, *key: int) -> np.random.Generator:
    """The fault-schedule RNG for one ``(seed, *key)`` stream.

    Every fault injector in the repo — the shard-worker
    :class:`FaultInjector` here and the per-connection network injector
    in :mod:`repro.cluster.faults` — derives its random decisions from
    this one helper, so a chaos schedule is reproducible from the plan
    seed plus the injector's coordinates alone.  The integer tuple seeds
    ``numpy``'s ``SeedSequence``, whose spawning arithmetic is fixed by
    the numpy API (platform- and run-independent); the golden-value
    tests in the chaos tier pin exactly that stability.
    """
    return np.random.default_rng(
        (int(seed),) + tuple(int(part) for part in key))


@dataclass(frozen=True)
class ShardFault:
    """The fault configuration of one shard worker (picklable).

    Parameters
    ----------
    shard:
        Index of the shard worker this fault applies to.
    kill_at_request:
        Send ``SIGKILL`` to the worker's own process upon *receiving*
        its N-th request (1-based), i.e. after the request left the task
        queue but before any result is produced.  ``None`` disables.
    stall_at_request:
        Upon receiving the N-th request, stop answering forever while
        staying alive — the queue-wedge scenario that only request
        deadlines can unblock.  ``None`` disables.
    delay_response_s:
        Sleep this long before answering every request (a slow shard).
    delay_jitter_s:
        Add a seeded uniform ``[0, jitter)`` component to each delay;
        deterministic for a fixed ``FaultPlan.seed`` and shard.
    every_incarnation:
        Apply ``kill_at_request`` / ``stall_at_request`` in every worker
        incarnation (respawns included) instead of only the first.
        Response delays always apply to every incarnation.
    """

    shard: int
    kill_at_request: int | None = None
    stall_at_request: int | None = None
    delay_response_s: float = 0.0
    delay_jitter_s: float = 0.0
    every_incarnation: bool = False


@dataclass(frozen=True)
class FaultPlan:
    """A seedable, picklable set of per-shard faults.

    Pass a plan to :class:`~repro.parallel.sharded.ShardedScoringEngine`
    (``fault_plan=...``) and every worker builds a
    :class:`FaultInjector` for its own shard at start-up.  Shards
    without a configured fault run normally.
    """

    faults: tuple[ShardFault, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        shards = [fault.shard for fault in self.faults]
        if len(shards) != len(set(shards)):
            raise ValueError("at most one ShardFault per shard")

    def for_shard(self, shard: int) -> ShardFault | None:
        """The fault configured for ``shard``, or ``None``."""
        for fault in self.faults:
            if fault.shard == shard:
                return fault
        return None

    # ------------------------------------------------------------------ #
    # Convenience constructors for the common single-fault plans
    # ------------------------------------------------------------------ #
    @classmethod
    def kill_worker(cls, shard: int, at_request: int = 1,
                    every_incarnation: bool = False, seed: int = 0) -> "FaultPlan":
        """Plan that SIGKILLs ``shard``'s worker at its N-th request."""
        return cls(faults=(ShardFault(shard=shard, kill_at_request=at_request,
                                      every_incarnation=every_incarnation),),
                   seed=seed)

    @classmethod
    def delay_shard(cls, shard: int, delay_s: float,
                    jitter_s: float = 0.0, seed: int = 0) -> "FaultPlan":
        """Plan that delays every response of ``shard`` by ``delay_s``."""
        return cls(faults=(ShardFault(shard=shard, delay_response_s=delay_s,
                                      delay_jitter_s=jitter_s),),
                   seed=seed)

    @classmethod
    def stall_worker(cls, shard: int, at_request: int = 1,
                     every_incarnation: bool = False, seed: int = 0) -> "FaultPlan":
        """Plan that wedges ``shard``'s worker at its N-th request."""
        return cls(faults=(ShardFault(shard=shard, stall_at_request=at_request,
                                      every_incarnation=every_incarnation),),
                   seed=seed)


class FaultInjector:
    """Worker-side executor of a :class:`FaultPlan`.

    Built once per worker process; :meth:`on_request` is called after a
    request is consumed from the task queue and :meth:`before_reply`
    just before its result is enqueued.  Both are no-ops for shards the
    plan does not target.
    """

    def __init__(self, plan: FaultPlan, shard: int, incarnation: int = 0):
        self._fault = plan.for_shard(shard)
        self._incarnation = incarnation
        self._requests = 0
        # Seeded per (plan seed, shard, incarnation): jittered delays are
        # reproducible for a fixed plan, and differ across respawns only
        # through the incarnation component.
        self._rng = fault_rng(plan.seed, shard, incarnation)

    @property
    def active(self) -> bool:
        """Whether this worker's shard has a configured fault."""
        return self._fault is not None

    def _terminal_faults_apply(self) -> bool:
        return self._fault.every_incarnation or self._incarnation == 0

    def on_request(self) -> None:
        """Apply receipt-time faults (kill/stall) for the next request."""
        if self._fault is None:
            return
        self._requests += 1
        if not self._terminal_faults_apply():
            return
        fault = self._fault
        if (fault.kill_at_request is not None
                and self._requests >= fault.kill_at_request):
            # SIGKILL ourselves mid-request: the request has been taken
            # off the queue but will never be answered — exactly the
            # in-flight loss the supervisor must re-dispatch.
            os.kill(os.getpid(), signal.SIGKILL)
        if (fault.stall_at_request is not None
                and self._requests >= fault.stall_at_request):
            while True:  # pragma: no cover - terminated by the parent
                time.sleep(_STALL_NAP_S)

    def before_reply(self) -> None:
        """Apply the configured response delay (plus seeded jitter)."""
        if self._fault is None:
            return
        delay = self._fault.delay_response_s
        if self._fault.delay_jitter_s > 0.0:
            delay += float(self._rng.uniform(0.0, self._fault.delay_jitter_s))
        if delay > 0.0:
            time.sleep(delay)
