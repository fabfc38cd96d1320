"""Multi-process execution substrate.

Parallelizes serving (``serve --workers``, ``make_scoring_engine``)
across worker processes while keeping the single-process results
bit-for-bit reproducible.  The evaluators do not use it: their sweep
runs on threads over one in-process engine
(:func:`~repro.serving.engine.threaded_top_k_scored`).

* :class:`~repro.parallel.shm.SharedArena` — publish a set of read-only
  numpy arrays into one ``multiprocessing.shared_memory`` segment;
  workers attach zero-copy views.
* :class:`~repro.parallel.sharded.ShardedScoringEngine` — the frozen
  candidate table, cached padded inputs and CSR seen-item arrays are
  shared once, and ``top_k_scored`` requests (and the ``top_k`` /
  ``recommend_batch`` verbs derived from it) fan out to persistent workers
  by user-range shard, bit-identical to the serial
  :class:`~repro.serving.engine.ScoringEngine`; ``observe()`` routes
  incremental updates to the owning worker (no snapshot rebuild).
* Fault tolerance (``docs/robustness.md``):
  :class:`~repro.parallel.supervisor.ShardSupervisor` +
  :class:`~repro.parallel.supervisor.RestartPolicy` respawn dead shard
  workers against the already-published arena (bounded budget,
  exponential-backoff circuit breaker) and degrade exhausted shards to
  an in-process serial fallback;
  :class:`~repro.parallel.faults.FaultPlan` injects deterministic
  worker crashes/delays/stalls for the chaos suite.
"""

from repro.parallel.shm import ArenaLayout, SharedArena, SharedArraySpec
from repro.parallel.sharded import (
    DEFAULT_REQUEST_TIMEOUT_S,
    ShardedScoringEngine,
    default_start_method,
    make_scoring_engine,
    shard_bounds,
)
from repro.parallel.supervisor import (
    RestartPolicy,
    ShardCircuitOpenError,
    ShardHealth,
    ShardSupervisor,
)
from repro.parallel.faults import FaultInjector, FaultPlan, ShardFault

__all__ = [
    "ArenaLayout",
    "SharedArena",
    "SharedArraySpec",
    "ShardedScoringEngine",
    "DEFAULT_REQUEST_TIMEOUT_S",
    "default_start_method",
    "make_scoring_engine",
    "shard_bounds",
    "RestartPolicy",
    "ShardCircuitOpenError",
    "ShardHealth",
    "ShardSupervisor",
    "FaultInjector",
    "FaultPlan",
    "ShardFault",
]
