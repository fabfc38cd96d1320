"""Self-test of the benchmark harness (``fast`` tier, a few seconds).

Runs two workloads in-process at a fiftieth of the run length and checks
the result schema, that ``BENCHMARK.json`` names every metric with a
unit, and that the reference check is live: a corrupted reference must
turn up as failed ops.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # bare-name imports

import common  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

pytestmark = pytest.mark.fast

SECONDS = 0.02 * common.load_spec()["run_seconds"]
SMOKE = ("serve_hot", "eval_sweep")

#: The metric names fixed by the issue that defined the benchmark.
ISSUE_METRICS = """
setup_s throughput_per_s latency_p50_ms slo_met_share recall_at_10 final_loss
peak_rss_mb failed_share
loadgen.lateness_p99_ms loadgen.latency_p95_ms loadgen.latency_p99_ms
loadgen.calib_ops_per_s trace.overhead_share
gateway.mean_batch_size gateway.flush_deadline_share gateway.engine_busy_share
gateway.overhead_p50_ms gateway.shed gateway.expired
cache.hit_rate cache.evictions_per_request cache.invalidations
engine.build_s engine.representation_us_per_user engine.matmul_us_per_user
engine.mask_us_per_user engine.topk_us_per_user engine.observe_us
engine.stage_coverage
evaluation.engine_build_s evaluation.topk_s evaluation.metrics_s
sharded.spawn_s sharded.roundtrip_ms sharded.sweep_s sharded.close_s
sharded.parallel_efficiency sharded.restarts sharded.stale_results_dropped
router.rpc_p50_ms router.batch32_ms router.observe_ms protocol.encode_us
protocol.decode_us protocol.bytes_per_request node.spawn_s
node.requests_served router.failovers router.retry_rounds
router.stale_replies_dropped
wal.append_fsync_us wal.append_nofsync_us wal.records wal.bytes
ann.build_s ann.candidates_us ann.rerank_us ann.candidates_per_query
ann.candidate_yield ann.exact_p50_ms
training.instances_build_s training.sample_ms_per_step
training.forward_ms_per_step training.backward_ms_per_step
training.optimizer_ms_per_step training.step_coverage
""".split()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    return {name: worker.run(name, 0, SECONDS, False, out, setup_repeats=1)
            for name in SMOKE}


def test_spec_names_every_issue_metric_with_a_unit():
    spec = common.load_spec()
    entries = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    assert len(entries) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for name in ISSUE_METRICS:
        assert entries[name]["unit"], name
        assert entries[name]["better"] in ("higher", "lower")
    assert {workload["name"] for workload in spec["workloads"]} >= set(SMOKE)


@pytest.mark.parametrize("name", SMOKE)
def test_run_is_correct_and_complete(results, name):
    result = results[name]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["details"]
    assert result["details"]["leaks"] == []
    assert result["details"]["host"]["threads"].keys() == common.THREAD_ENV.keys()

    spec = common.load_spec()
    printed = io.StringIO()
    with redirect_stdout(printed):
        line = run.report(name, result, spec, trace=0)
    assert line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for entry in spec["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0
        assert f"{name} {entry['name']} " in printed.getvalue()
    assert json.loads(printed.getvalue().splitlines()[-1]) == line


def corrupt(workload) -> None:
    """Break one reference answer: the serving reference forgets where the
    hottest user's history ends, the sweep's expected recall is nudged."""
    if hasattr(workload, "reference"):
        for item in range(5):
            workload.reference.observe(workload.stream.users[0], item)
    else:
        workload.expected["Recall@10"] += 0.5


@pytest.mark.parametrize("name", SMOKE)
def test_corrupted_reference_is_caught(tmp_path, monkeypatch, name):
    cls = worker.WORKLOADS[name]
    prepare = cls.prepare_reference

    def prepare_then_corrupt(workload):
        prepare(workload)
        corrupt(workload)

    monkeypatch.setattr(cls, "prepare_reference", prepare_then_corrupt)
    result = worker.run(name, 0, SECONDS, False, tmp_path, setup_repeats=1)
    assert result["failed"] > 0
    assert result["details"]["failures"]
