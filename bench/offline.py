"""The four workloads without a gateway: evaluation sweeps (serial and
sharded), ANN retrieval and training.

One client, closed loop: the next call starts when the previous one
returns.  Each workload reports the rate of its own op (a user ranked,
an ANN request answered, a training instance consumed) and the median
latency of its own call (one ``evaluate``, one request, one epoch).
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

import probes
from common import Tracer, now
from fixtures import (A_USERS, F_ITEMS, K, fixture_a, fixture_f, fixture_t)

from repro.autograd import (Adam, embedding_index_check, no_grad,
                            sparse_embedding_grads)
from repro.data.batching import BatchIterator
from repro.data.dataset import InteractionDataset
from repro.data.seen import SeenIndex
from repro.data.splits import split_setting
from repro.data.windows import build_training_instances, pad_histories, pad_id_for
from repro.evaluation.evaluator import RankingEvaluator
from repro.evaluation.metrics import (batch_hits, batch_ndcg_at_k,
                                      batch_recall_at_k, truth_matrix)
from repro.parallel.sharded import (ShardedScoringEngine, make_scoring_engine,
                                    shard_bounds)
from repro.retrieval import RetrievalConfig
from repro.serving.engine import ScoringEngine
from repro.training.config import TrainingConfig
from repro.training.losses import get_loss
from repro.training.negative_sampling import NegativeSampler
from repro.training.trainer import Trainer


def timed_calls(call, seconds: float, at_least: int = 1) -> list[float]:
    """Call repeatedly for ``seconds``; the wall time of each call."""
    times = []
    start = now()
    while len(times) < at_least or now() - start < seconds:
        begin = now()
        call()
        times.append(now() - begin)
    return times


class Offline:
    """Set-up/measure/trace protocol shared with the serving workloads."""

    name: str
    limit_ms: float  # latency limit of one call, for slo_met_share
    pinned = True    # single-threaded: one CPU, no migrations

    def __init__(self, seed: int, scratch: Path, tracer: Tracer | None):
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.setup_details: dict = {}

    def teardown(self) -> None:
        pass

    def prepare_reference(self) -> None:
        """Build what replies are checked against; not part of ``setup_s``."""

    def _end_to_end(self, call_seconds: list[float], ops_per_call: float,
                    attempted: int, failed: int, details: dict) -> dict:
        latencies_ms = np.asarray(call_seconds) * 1e3
        rates = ops_per_call / np.asarray(call_seconds)
        return {
            "metrics": {
                "throughput_per_s": float(np.median(rates)),
                "latency_p50_ms": float(np.median(latencies_ms)),
                "slo_met_share": float(np.mean(latencies_ms <= self.limit_ms))
                if not failed else 0.0,
            },
            "attempted": attempted,
            "failed": failed,
            "details": {"calls": len(call_seconds), "limit_ms": self.limit_ms,
                        **details},
        }


# ---------------------------------------------------------------------- #
# Evaluation sweeps
# ---------------------------------------------------------------------- #
def independent_metrics(ranked: np.ndarray, targets: list[list[int]]) -> dict:
    """Recall@k / NDCG@k written from the definitions, one user at a time."""
    totals = {f"{metric}@{k}": 0.0 for metric in ("Recall", "NDCG") for k in (5, 10)}
    for row, target in zip(ranked.tolist(), targets):
        wanted = set(target)
        hits = [item in wanted for item in row]
        for k in (5, 10):
            totals[f"Recall@{k}"] += sum(hits[:k]) / len(wanted)
            dcg = sum(hit / math.log2(rank + 2) for rank, hit in enumerate(hits[:k]))
            ideal = sum(1.0 / math.log2(rank + 2) for rank in range(min(len(wanted), k)))
            totals[f"NDCG@{k}"] += dcg / ideal
    return {name: value / len(targets) for name, value in totals.items()}


class EvalSweep(Offline):
    """``RankingEvaluator.evaluate`` in one process: the paper's
    test-time measurement."""

    name = "eval_sweep"
    n_workers = 0
    limit_ms = 1500.0

    def setup(self, seconds: float) -> None:
        self.model, histories = fixture_f(self.seed)
        dataset = InteractionDataset.from_sequences(histories, num_items=F_ITEMS)
        self.split = split_setting(dataset, "80-20-CUT")
        self.evaluator = RankingEvaluator(self.split, n_workers=self.n_workers)
        self.inputs = self.split.train_plus_valid()
        self.users = [user for user, target in enumerate(self.split.test) if target]
        self.expected = self.exact = None
        self.mismatches: list[str] = []
        self.evaluate()  # warm-up: first sweep touches every score page

    def prepare_reference(self) -> None:
        """Expected metrics from a serial ``ScoringEngine``, scored by hand."""
        # 64-user blocks stay in reused memory; the default 1024-user
        # block is 80 MB of fresh pages per call and four times slower.
        reference = ScoringEngine(self.model, self.inputs, micro_batch_size=64)
        ranked = reference.top_k(self.users, K)
        self.expected = independent_metrics(
            ranked, [self.split.test[user] for user in self.users])
        if self.n_workers:
            # The sharded sweep must reproduce the serial one bit for bit.
            self.exact = RankingEvaluator(self.split).evaluate(self.model).metrics

    def evaluate(self) -> None:
        metrics = self.evaluator.evaluate(self.model).metrics
        self.last_metrics = metrics
        if self.expected is None:
            return  # the warm-up call of setup()
        close = all(math.isclose(metrics[name], value, rel_tol=1e-9, abs_tol=1e-12)
                    for name, value in self.expected.items())
        if not close or (self.exact is not None and metrics != self.exact):
            self.mismatches.append(f"{metrics} != {self.exact or self.expected}")

    def measure(self, seconds: float) -> dict:
        calls = timed_calls(self.evaluate, seconds)
        return self._result(calls)

    def _result(self, calls: list[float]) -> dict:
        users = len(self.users)
        return self._end_to_end(
            calls, users, attempted=users * len(calls),
            failed=users * len(self.mismatches),
            details={"users_per_call": users, "metrics": self.last_metrics,
                     "failures": self.mismatches[:5]})

    def trace(self, seconds: float) -> dict:
        tracer = self.tracer
        plain, traced = [], []
        start = now()
        while len(traced) < 2 or now() - start < 0.5 * seconds:
            plain += timed_calls(self.evaluate, 0.0)
            begin = now()
            self.evaluate()
            traced.append(now() - begin)
            tracer.record("evaluation.evaluate", begin, begin + traced[-1],
                          op=len(traced) - 1)
        result = self._result(plain + traced)
        layers = {"trace.overhead_share":
                  statistics.median(traced) / statistics.median(plain) - 1.0}
        layers.update(self.layer_probes())
        result["metrics"] = layers
        return result

    def layer_probes(self) -> dict:
        tracer = self.tracer
        stages: dict[str, list[float]] = {"engine_build": [], "topk": [], "metrics": []}
        targets = self.split.test
        for repeat in range(3):
            begin = now()
            engine = make_scoring_engine(
                self.model, self.inputs, n_workers=0, exclude_seen=True,
                micro_batch_size=self.evaluator.batch_size, copy_weights=False)
            built = now()
            ranked = engine.top_k(self.users, K)
            swept = now()
            for first in range(0, len(self.users), self.evaluator.batch_size):
                batch = self.users[first:first + self.evaluator.batch_size]
                truth = truth_matrix([targets[user] for user in batch], F_ITEMS)
                hits = batch_hits(ranked[first:first + len(batch)], truth)
                counts = truth.sum(axis=1)
                for k in (5, 10):
                    batch_recall_at_k(hits, counts, k)
                    batch_ndcg_at_k(hits, counts, k)
            done = now()
            parent = tracer.record("evaluation.probe", begin, done, op=repeat)
            for name, lo, hi in (("engine_build", begin, built),
                                 ("topk", built, swept), ("metrics", swept, done)):
                stages[name].append(hi - lo)
                tracer.record(f"evaluation.{name}", lo, hi, parent=parent, op=repeat)
        layers = {f"evaluation.{name}_s": statistics.median(times)
                  for name, times in stages.items()}
        batch = np.asarray(self.users[:self.evaluator.batch_size])
        layers.update(probes.engine_stages(self.model, self.inputs, batch, self.seed))
        return layers


class EvalSweepSharded(EvalSweep):
    """The same sweep through ``make_scoring_engine``'s multi-process path."""

    name = "eval_sweep_sharded"
    n_workers = 2
    limit_ms = 3000.0
    pinned = False  # the shard workers are forked by evaluate() and need the CPUs

    def layer_probes(self) -> dict:
        tracer = self.tracer
        users = np.asarray(self.users, dtype=np.int64)
        batch_size = self.evaluator.batch_size
        begin = now()
        engine = ShardedScoringEngine(self.model, self.inputs,
                                      n_workers=self.n_workers,
                                      micro_batch_size=batch_size)
        try:
            engine.top_k(users[:1], K)
            spawned = now()
            engine.top_k(users, K)
            swept = now()
            roundtrip = probes.median_seconds(lambda: engine.top_k(users[:1], K), 50)
            counters = engine.stats()
        finally:
            closing = now()
            engine.close()
            closed = now()
        serial = ScoringEngine(self.model, self.inputs, micro_batch_size=batch_size,
                               copy_weights=False)
        serial_sweep = probes.median_seconds(lambda: serial.top_k(users, K), 1)
        for name, lo, hi in (("sharded.spawn", begin, spawned),
                             ("sharded.sweep", spawned, swept),
                             ("sharded.close", closing, closed)):
            tracer.record(name, lo, hi)
        self.setup_details["sharded.users_per_shard"] = np.diff(
            shard_bounds(self.model.num_users, self.n_workers)).tolist()
        return {
            "sharded.spawn_s": spawned - begin,
            "sharded.roundtrip_ms": roundtrip * 1e3,
            "sharded.sweep_s": swept - spawned,
            "sharded.close_s": closed - closing,
            "sharded.parallel_efficiency":
                serial_sweep / (self.n_workers * (swept - spawned)),
            "sharded.restarts": float(counters["restarts"]),
            "sharded.stale_results_dropped": float(counters["stale_results_dropped"]),
        }


# ---------------------------------------------------------------------- #
# ANN retrieval
# ---------------------------------------------------------------------- #
class RetrieveAnn(Offline):
    """``ScoringEngine.top_k(mode="ann")``, one user per request."""

    name = "retrieve_ann"
    limit_ms = 5.0
    sample = 500  # replies checked against the exact engine

    def setup(self, seconds: float) -> None:
        self.model, self.histories = fixture_a(self.seed)
        self.engine = ScoringEngine(self.model, self.histories, precompute=True)
        begin = now()
        self.engine.build_ann_index(RetrievalConfig(
            kmeans_iters=3, train_sample=10_000, seed=self.seed))
        self.setup_details["ann.build_s"] = now() - begin
        rng = np.random.default_rng([self.seed, 0xA22])
        self.request_users = rng.integers(0, A_USERS, size=1 << 16).tolist()
        self.position = 0
        self.replies: list[tuple[int, np.ndarray]] = []
        self.request_loop(0.05 * seconds)
        self.replies.clear()

    def request_loop(self, seconds: float, span: bool = False) -> list[float]:
        engine, users, tracer = self.engine, self.request_users, self.tracer
        latencies = []
        start = now()
        while True:
            user = users[self.position % len(users)]
            begin = now()
            if begin - start >= seconds:
                return latencies
            ranked = engine.top_k([user], K, mode="ann")
            end = now()
            if span:
                tracer.record("ann.top_k", begin, end, op=self.position)
            self.position += 1
            latencies.append(end - begin)
            self.replies.append((user, ranked[0]))

    def check(self) -> tuple[list[str], float]:
        """Replies of a user sample against the exact engine: failures, recall."""
        rng = np.random.default_rng([self.seed, 0xC4EC])
        picks = rng.choice(len(self.replies), size=min(self.sample, len(self.replies)),
                           replace=False)
        users = np.asarray([self.replies[i][0] for i in picks], dtype=np.int64)
        again = self.engine.top_k(users, K, mode="ann")
        exact = self.engine.top_k(users, K, mode="exact")
        failures, overlap = [], 0
        for row, pick in enumerate(picks.tolist()):
            reply = self.replies[pick][1]
            scores = self.engine.masked_scores(users[row:row + 1])[0][reply]
            if not np.array_equal(reply, again[row]):
                failures.append(f"user {users[row]}: reply not reproducible")
            elif len(set(reply.tolist())) != K or not np.all(np.isfinite(scores)):
                failures.append(f"user {users[row]}: duplicate or already-seen item")
            elif np.any(np.diff(scores) > 1e-5 * np.abs(scores).max()):
                # (tolerance: the re-rank sums a gathered sub-table, the
                # exact path the whole table; float32 near-ties may swap)
                failures.append(f"user {users[row]}: not ordered by exact score")
            overlap += len(set(reply.tolist()) & set(exact[row].tolist()))
        recall = overlap / (K * len(picks))
        if recall < 0.9:
            failures.append(f"recall@10 {recall:.3f} below 0.9")
        return failures, recall

    def measure(self, seconds: float) -> dict:
        # Five segments: the median one is reported.
        return self._result([self.request_loop(seconds / 5) for _ in range(5)])

    def _result(self, segments: list[list[float]]) -> dict:
        failures, recall = self.check()
        flat = [latency for segment in segments for latency in segment]
        result = self._end_to_end(flat, 1.0, attempted=len(flat),
                                  failed=len(failures),
                                  details={"recall_at_10": recall,
                                           "failures": failures[:5]})
        rates = [len(segment) / sum(segment) for segment in segments]
        result["metrics"]["throughput_per_s"] = statistics.median(rates)
        result["details"]["segments_per_s"] = rates
        return result

    def trace(self, seconds: float) -> dict:
        plain, traced = [], []
        for _ in range(3):  # alternating, so both see the same machine
            plain.append(self.request_loop(seconds / 10))
            traced.append(self.request_loop(seconds / 10, span=True))
        result = self._result(traced)
        plain_rate = statistics.median(len(s) / sum(s) for s in plain)
        layers = {
            "trace.overhead_share":
                plain_rate / result["metrics"]["throughput_per_s"] - 1.0,
            "recall_at_10": result["details"]["recall_at_10"],
            "ann.build_s": self.setup_details["ann.build_s"],
        }
        layers.update(self.layer_probes(
            statistics.median(l for s in traced for l in s)))
        result["metrics"] = layers
        return result

    def layer_probes(self, request_s: float) -> dict:
        users = np.asarray(self.request_users[:300], dtype=np.int64)
        inputs = pad_histories([self.histories[user] for user in users],
                               self.model.input_length,
                               pad_id_for(self.model.num_items))
        with no_grad():
            reps = self.model.sequence_representation(users, inputs).data
        bias = self.model.freeze(copy=False).item_bias
        if bias is not None:
            bias = bias[:self.model.num_items]
        index = self.engine.ann_index
        times, sizes = [], []
        for rep in reps:
            begin = now()
            found = index.candidates(rep, K, bias=bias)
            times.append(now() - begin)
            sizes.append(found.size)
        candidates_s = statistics.median(times)
        exact = [probes.median_seconds(
            lambda: self.engine.top_k([user], K, mode="exact"), 1)
            for user in users.tolist()]
        return {
            "ann.candidates_us": candidates_s * 1e6,
            "ann.rerank_us": (request_s - candidates_s) * 1e6,
            "ann.candidates_per_query": statistics.fmean(sizes),
            "ann.candidate_yield": K / statistics.fmean(sizes),
            "ann.exact_p50_ms": statistics.median(exact) * 1e3,
        }


# ---------------------------------------------------------------------- #
# Training
# ---------------------------------------------------------------------- #
class TrainEpoch(Offline):
    """``Trainer.fit`` on the autograd substrate; op = one training instance."""

    name = "train_epoch"
    limit_ms = 3000.0
    #: ``Trainer.fit`` cannot be stopped by the clock, so the run length
    #: is a number of epochs: one per second asked for (an epoch took
    #: about 0.9 s when the fixture was sized).
    epochs_per_second = 1.0

    def config(self, epochs: int) -> TrainingConfig:
        return TrainingConfig(num_epochs=epochs, batch_size=256, seed=self.seed,
                              keep_best=False)

    def setup(self, seconds: float) -> None:
        self.model, self.histories = fixture_t(self.seed)
        throwaway, _ = fixture_t(self.seed)
        warm_users = max(len(self.histories) // 20, 8)
        Trainer(throwaway, self.config(1)).fit(self.histories[:warm_users])

    def fit(self, epochs: int) -> dict:
        result = Trainer(self.model, self.config(epochs)).fit(self.histories)
        losses = result.epoch_losses
        learned = math.isfinite(losses[-1]) and losses[-1] < losses[0]
        attempted = result.num_instances * epochs
        outcome = self._end_to_end(
            result.epoch_seconds, result.num_instances, attempted,
            failed=0 if learned else attempted,
            details={"epochs": epochs, "instances": result.num_instances,
                     "epoch_losses": losses,
                     "failures": [] if learned else
                     [f"loss did not fall: {losses[0]} -> {losses[-1]}"]})
        outcome["details"]["final_loss"] = losses[-1]
        return outcome

    def measure(self, seconds: float) -> dict:
        return self.fit(max(3, round(seconds * self.epochs_per_second)))

    def trace(self, seconds: float) -> dict:
        # The step loop runs before and after the fit and the two are
        # averaged, so that a change of machine speed between them does
        # not read as coverage or overhead.
        loops = [self.step_loop()]
        result = self.fit(max(2, round(0.5 * seconds * self.epochs_per_second)))
        loops.append(self.step_loop())
        layers = {name: statistics.fmean(loop[name] for loop in loops)
                  for name in loops[0]}
        fit_epoch_s = result["metrics"]["latency_p50_ms"] / 1e3
        stages_s = sum(layers[f"training.{stage}_ms_per_step"]
                       for stage in ("sample", "forward", "backward", "optimizer"))
        stages_s *= layers.pop("steps") / 1e3
        layers["training.step_coverage"] = stages_s / fit_epoch_s
        layers["trace.overhead_share"] = layers.pop("epoch_s") / fit_epoch_s - 1.0
        layers["final_loss"] = result["details"]["final_loss"]
        result["metrics"] = layers
        return result

    def step_loop(self) -> dict:
        """One epoch of the trainer's step, rebuilt from its public pieces
        so that each stage can be timed on its own."""
        tracer = self.tracer
        config = self.config(1)
        model, _ = fixture_t(self.seed)
        model.astype(config.dtype)
        begin = now()
        instances = build_training_instances(
            self.histories, num_items=model.num_items,
            n_h=model.input_length, n_p=config.n_p)
        instances_build_s = now() - begin
        rng = np.random.default_rng(self.seed)
        sampler = NegativeSampler(
            model.num_items, rng=rng,
            seen_index=SeenIndex.from_histories(self.histories, model.num_items))
        iterator = BatchIterator(instances, batch_size=config.batch_size, rng=rng)
        optimizer = Adam(model.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        loss_fn = get_loss("bpr")  # the trainer's choice for HAM
        stages = {"sample": 0.0, "forward": 0.0, "backward": 0.0, "optimizer": 0.0}
        steps = 0
        model.train()
        epoch_start = now()
        with embedding_index_check(config.validate_indices), \
                sparse_embedding_grads(config.sparse_embedding_grad):
            batches = iter(iterator)
            while True:
                t0 = now()
                batch = next(batches, None)  # the shuffle and the slicing
                if batch is None:
                    break
                negatives = sampler.sample(batch.users, batch.targets.shape)
                t1 = now()
                positive, negative = model.score_item_pairs(
                    batch.users, batch.inputs, batch.targets, negatives)
                loss = loss_fn(positive, negative, batch.target_mask())
                t2 = now()
                optimizer.zero_grad()
                loss.backward()
                t3 = now()
                optimizer.step()
                model.after_step()
                t4 = now()
                parent = tracer.record("training.step", t0, t4, op=steps)
                for name, lo, hi in (("sample", t0, t1), ("forward", t1, t2),
                                     ("backward", t2, t3), ("optimizer", t3, t4)):
                    stages[name] += hi - lo
                    tracer.record(f"training.{name}", lo, hi, parent=parent, op=steps)
                steps += 1
        epoch_s = now() - epoch_start
        layers = {f"training.{name}_ms_per_step": total / steps * 1e3
                  for name, total in stages.items()}
        layers["training.instances_build_s"] = instances_build_s
        layers["steps"] = steps
        layers["epoch_s"] = epoch_s
        return layers


WORKLOADS = {cls.name: cls for cls in
             (EvalSweep, EvalSweepSharded, RetrieveAnn, TrainEpoch)}
