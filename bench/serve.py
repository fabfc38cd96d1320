"""The two serving workloads: ``serve_hot`` and ``serve_cluster``.

Both drive ``ServingGateway.submit`` / ``observe`` with the load
generator and check every reply against a serial ``ScoringEngine``.
They differ in what does the work: on ``serve_hot`` the gateway's queue,
micro-batching and row cache (Zipf users repeat); on ``serve_cluster``
the wire protocol, router, node processes and WAL (uniform users, cache
off, more writes).
"""

from __future__ import annotations

import bisect
import os
import shutil
import statistics
from pathlib import Path

import numpy as np

import probes
from common import TimingProxy, Tracer, now
from fixtures import F_ITEMS, F_USERS, OpStream, fixture_f
from loadgen import PhaseLog, run_phase, segment_throughput, verify

from repro.cluster.node import request_reply, spawn_node
from repro.cluster.router import ClusterRouter
from repro.serving.engine import ScoringEngine
from repro.serving.gateway import ServingGateway

WINDOW = 64  # outstanding requests of the closed-loop phase
WARMUP_SHARE = 0.05


class ServeWorkload:
    """Open-loop ``paced`` phase for latency, closed-loop ``saturate``
    phase for throughput; see ``README.md`` for the phase definitions."""

    name: str
    rate: float          # ops/s offered in the paced phase
    limit_ms: float      # latency limit of the paced phase
    zipf: float
    observe_share: float
    layer: str           # span prefix of the proxy around the gateway's backend
    probe_batch = 32     # the gateway's max_batch
    gateway_options: dict = {}  # everything else at the shipped defaults
    pinned = True        # generator, gateway, router and nodes share one CPU

    def __init__(self, seed: int, scratch: Path, tracer: Tracer | None):
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.gateway = None
        self.setup_details: dict = {}

    # -- stack ---------------------------------------------------------- #
    def open_backend(self):
        """The engine-like object the gateway fronts."""
        raise NotImplementedError

    def close_backend(self) -> None:
        pass

    def setup(self, seconds: float) -> None:
        self.model, self.histories = fixture_f(self.seed)
        self.stream = OpStream(self.seed, F_USERS, F_ITEMS, self.zipf,
                               self.observe_share)
        backend = self.open_backend()
        if self.tracer is not None:
            backend = TimingProxy(backend, self.tracer, self.layer)
        self.gateway = ServingGateway(backend, **self.gateway_options)
        # Fills the representation cache and touches the score pages.
        self.warmup = run_phase(self.gateway, self.stream, "warmup",
                                WARMUP_SHARE * seconds, window=WINDOW)

    def prepare_reference(self) -> None:
        """The serial engine every reply is compared with.

        Built from the same generated inputs; the observes of all phases,
        warm-up included, are replayed into it by ``verify``.  Small
        chunks keep its score blocks in reused memory: a 1024-user block
        is 80 MB of freshly mapped pages per call.
        """
        self.reference = ScoringEngine(self.model, self.histories,
                                       precompute=True, micro_batch_size=64)

    def teardown(self) -> None:
        try:
            if self.gateway is not None:
                self.gateway.close()
        finally:
            self.gateway = None
            self.close_backend()

    # -- untraced pass --------------------------------------------------- #
    def measure(self, seconds: float) -> dict:
        paced = run_phase(self.gateway, self.stream, "paced", 0.4 * seconds,
                          rate=self.rate)
        saturate = run_phase(self.gateway, self.stream, "saturate",
                             0.6 * seconds, window=WINDOW)
        verdict = verify(self.reference, [self.warmup, paced, saturate])
        segments = segment_throughput(saturate.done, saturate.started,
                                      0.6 * seconds)
        return self._end_to_end(paced, segments, verdict)

    def _end_to_end(self, paced: PhaseLog, segments: list[float], verdict) -> dict:
        latencies_ms = paced.latencies() * 1e3
        first = len(self.warmup.users)
        correct = np.asarray(verdict.correct[first:first + len(paced.users)])
        met = int(np.sum(correct & (latencies_ms <= self.limit_ms)))
        lateness_p99_ms = float(np.percentile(paced.lateness() * 1e3, 99))
        return {
            "metrics": {
                "throughput_per_s": statistics.median(segments),
                "latency_p50_ms": float(np.median(latencies_ms)),
                "slo_met_share": met / len(paced.users),
            },
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "details": {
                "paced": {"ops": len(paced.users) + len(paced.observes),
                          "rate_per_s": self.rate, "limit_ms": self.limit_ms,
                          "latency_p95_ms": float(np.percentile(latencies_ms, 95)),
                          "latency_p99_ms": float(np.percentile(latencies_ms, 99)),
                          "lateness_p99_ms": lateness_p99_ms,
                          "valid": lateness_p99_ms <= 0.2 * self.limit_ms},
                "saturate": {"window": WINDOW, "segments_per_s": segments},
                "near_ties": verdict.near_ties,
                "failures": verdict.reasons,
            },
        }

    # -- traced pass ----------------------------------------------------- #
    def trace(self, seconds: float) -> dict:
        tracer = self.tracer
        paced = run_phase(self.gateway, self.stream, "paced", 0.3 * seconds,
                          rate=self.rate)
        before = self.gateway.stats()
        plain, traced = [], []
        for _ in range(5):  # alternating, so that both see the same machine
            tracer.enabled = False
            plain.append(run_phase(self.gateway, self.stream, "saturate-untraced",
                                   0.05 * seconds, window=WINDOW))
            tracer.enabled = True
            traced.append(run_phase(self.gateway, self.stream, "saturate",
                                    0.05 * seconds, window=WINDOW))
        after = self.gateway.stats()
        slices = [log for pair in zip(plain, traced) for log in pair]
        verdict = verify(self.reference, [self.warmup, paced, *slices])

        def rates(logs):
            return [len(log.done) / (log.ended - log.started) for log in logs]

        result = self._end_to_end(paced, rates(traced), verdict)
        calls = sorted((end, start, span_id, set(attrs["users"]))
                       for span_id, (name, start, end, _p, _o, attrs)
                       in enumerate(tracer.spans)
                       if name == f"{self.layer}.masked_scores")
        served_by = self._record_requests(paced, calls, first_op=0)
        first_op = len(paced.users)
        for log in traced:
            self._record_requests(log, calls, first_op)
            first_op += len(log.users)
        traced_wall = sum(log.ended - log.started for log in traced)
        busy = sum(end - start for name, start, end, *_ in tracer.spans
                   if name.startswith(self.layer + ".")
                   and any(log.started <= start < log.ended for log in traced))
        overheads = [(paced.done[i] - paced.due[i] - call) * 1e3
                     for i, call in served_by.items()]
        batches = after.batches - before.batches
        details = result["details"]
        layers = {
            "loadgen.lateness_p99_ms": details["paced"]["lateness_p99_ms"],
            "loadgen.latency_p95_ms": details["paced"]["latency_p95_ms"],
            "loadgen.latency_p99_ms": details["paced"]["latency_p99_ms"],
            "trace.overhead_share": statistics.median(rates(plain))
                / statistics.median(rates(traced)) - 1.0,
            "gateway.mean_batch_size":
                (after.mean_batch_size * after.batches
                 - before.mean_batch_size * before.batches) / max(batches, 1),
            "gateway.flush_deadline_share":
                (after.flush_deadline - before.flush_deadline) / max(batches, 1),
            "gateway.engine_busy_share": busy / traced_wall,
            "gateway.overhead_p50_ms":
                statistics.median(overheads) if overheads else 0.0,
            "gateway.shed": float(after.shed),
            "gateway.expired": float(after.expired),
        }
        if after.cache is not None:
            lookups = after.cache.requests - before.cache.requests
            layers.update({
                "cache.hit_rate":
                    (after.cache.hits - before.cache.hits) / max(lookups, 1),
                "cache.evictions_per_request":
                    (after.cache.evictions - before.cache.evictions) / max(lookups, 1),
                "cache.invalidations":
                    float(after.cache.invalidations - before.cache.invalidations),
            })
        layers.update(self.layer_probes())
        details["latency_samples"] = len(paced.users)
        details["overhead_samples"] = len(overheads)
        result["metrics"] = layers
        return result

    def _record_requests(self, log: PhaseLog, calls: list,
                         first_op: int) -> dict[int, float]:
        """Turn a phase log into request spans; match each to its engine call.

        ``calls`` are the proxy's ``masked_scores`` spans as ``(end,
        start, span id, users)``, sorted.  Returns ``{request index:
        duration of the backend call that served it}`` for requests a
        backend call served (cache hits have none).
        """
        tracer = self.tracer
        ends = [call[0] for call in calls]
        served: dict[int, float] = {}
        for index, user in enumerate(log.users):
            attrs = {"phase": log.name}
            # The flusher resolves futures right after the call returns:
            # look back from the collect time for the call with this user.
            position = bisect.bisect_right(ends, log.done[index])
            for end, start, span_id, users in reversed(calls[max(0, position - 4):position]):
                if start >= log.submit_start[index] and user in users:
                    attrs["served_by"] = span_id
                    served[index] = end - start
                    break
            parent = tracer.record("request", log.due[index], log.done[index],
                                   op=first_op + index, **attrs)
            tracer.record("gateway.submit", log.submit_start[index],
                          log.submit_end[index], parent=parent,
                          op=first_op + index)
        return served

    def layer_probes(self) -> dict:
        return {}


class ServeHot(ServeWorkload):
    name = "serve_hot"
    rate, limit_ms = 1200.0, 10.0
    zipf, observe_share = 1.1, 0.05
    layer = "engine"

    def open_backend(self):
        return ScoringEngine(self.model, self.histories, precompute=True)

    def layer_probes(self) -> dict:
        users = np.asarray(self.stream.users[:self.probe_batch])
        return probes.engine_stages(self.model, self.histories, users, self.seed)


class ServeCluster(ServeWorkload):
    name = "serve_cluster"
    rate, limit_ms = 300.0, 50.0
    zipf, observe_share = 0.0, 0.10
    layer = "router"
    nodes_wanted = 2
    gateway_options = {"cache_size": 0}
    nodes: tuple | list = ()
    router = None

    def open_backend(self):
        self.scratch.mkdir(parents=True)
        # Relative socket paths: AF_UNIX paths are limited to 108 bytes
        # and the checkout may sit under a long prefix.
        sockets = Path(os.path.relpath(self.scratch))
        self.nodes = []
        start = now()
        for index in range(self.nodes_wanted):
            self.nodes.append(spawn_node(
                self.model, self.histories,
                bind=f"unix:{sockets}/node{index}.sock", node_index=index))
        self.setup_details["node.spawn_s"] = now() - start
        self.router = ClusterRouter(
            [node.address for node in self.nodes], replication=2,
            wal_dir=str(self.scratch / "wal"))
        return self.router

    def close_backend(self) -> None:
        try:
            if self.router is not None:
                self.router.close()
        finally:
            for node in self.nodes:
                node.close()
            self.nodes, self.router = (), None
            shutil.rmtree(self.scratch, ignore_errors=True)

    def layer_probes(self) -> dict:
        router = self.router
        rng = np.random.default_rng([self.seed, 0xC1])
        users = rng.integers(0, F_USERS, size=100)
        lone = [probes.median_seconds(lambda: router.top_k([user], 10), 1)
                for user in users.tolist()]
        batch = users[:self.probe_batch]
        served = [request_reply(node.address, "stats").meta["stats"]["requests_served"]
                  for node in self.nodes]
        wal = router.health()["wal"]
        counters = router.stats()
        metrics = {
            "router.rpc_p50_ms": statistics.median(lone) * 1e3,
            "router.batch32_ms":
                probes.median_seconds(lambda: router.masked_scores(batch)) * 1e3,
            "node.spawn_s": self.setup_details["node.spawn_s"],
            "node.requests_served": float(sum(served)),
            "router.failovers": float(counters["failovers"]),
            "router.retry_rounds": float(counters["retry_rounds"]),
            "router.stale_replies_dropped": float(counters["stale_replies_dropped"]),
            "wal.records": float(wal["records"]),
            "wal.bytes": float(wal["bytes"]),
        }
        # Last: these writes are not mirrored into the reference.
        items = rng.integers(0, F_ITEMS, size=30).tolist()
        metrics["router.observe_ms"] = statistics.median(
            probes.median_seconds(lambda: router.observe(user, item), 1)
            for user, item in zip(users.tolist(), items)) * 1e3
        metrics.update(probes.protocol_frames(F_ITEMS, self.probe_batch))
        metrics.update(probes.wal_appends(self.scratch / "wal-probe"))
        self.setup_details["node.requests_served_each"] = served
        return metrics


WORKLOADS = {cls.name: cls for cls in (ServeHot, ServeCluster)}
