"""One run of one workload, in its own process.

Started by ``run.py`` with the BLAS thread pins in the environment (they
must be set before NumPy loads) and in its own session, so that the
runner can kill the whole process group on a timeout.  Prints one JSON
object: metrics, op counts and the details kept in the run artefact.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from common import (SRC_DIR, LeakCheck, Tracer, calibrate, host_record, now,
                    peak_rss_mb)

sys.path.insert(0, str(SRC_DIR))

import offline  # noqa: E402  (they import repro, which needs the path above)
import serve  # noqa: E402

WORKLOADS = {**serve.WORKLOADS, **offline.WORKLOADS}

#: Full set-ups per run; ``setup_s`` is their median and the last one is
#: the stack the run measures.
SETUP_REPEATS = 3


def run(name: str, seed: int, seconds: float, trace: bool, out: Path,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up ``setup_repeats`` times, measure once, tear down, check leaks."""
    origin = now()
    scratch = out / f"tmp-{name}-{seed}-{int(trace)}"
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](seed, scratch, tracer)
    # One CPU for the worker and the server processes it forks.  Spread
    # over two cores, the generator, flusher and router threads hand the
    # interpreter lock across cores (closed-loop throughput of serve_hot
    # flips between two levels 40 % apart) and every router-to-node hop
    # is a cross-CPU wake-up, which on a shared host makes the paced p50
    # of serve_cluster vary between 4.5 and 16 ms from run to run.
    allowed = os.sched_getaffinity(0)
    if workload.pinned:
        os.sched_setaffinity(0, {max(allowed)})
    calibration = [calibrate()]
    leak_check = LeakCheck(scratch)
    setups = []
    try:
        for repeat in range(setup_repeats):
            if repeat:
                workload.teardown()
            begin = now()
            workload.setup(seconds)
            setups.append(now() - begin)
            if tracer is not None:
                tracer.record("setup", begin, begin + setups[-1], op=repeat)
        workload.prepare_reference()
        result = workload.trace(seconds) if trace else workload.measure(seconds)
    finally:
        workload.teardown()
        os.sched_setaffinity(0, allowed)
    leaks = leak_check.leaks()
    calibration.append(calibrate())
    result["attempted"] += 1  # the teardown is an op too: it may leak
    result["failed"] += bool(leaks)
    result["details"]["leaks"] = leaks

    metrics = result["metrics"]
    if trace:
        metrics["loadgen.calib_ops_per_s"] = statistics.fmean(calibration)
        metrics["failed_share"] = result["failed"] / result["attempted"]
        tracer.dump(out / f"trace-{name}.json", origin)
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
    result["details"].update({
        "setup_seconds": setups,
        "calib_ops_per_s": calibration,
        "disturbed": abs(calibration[1] / calibration[0] - 1.0) > 0.15,
        "host": host_record(),
        **workload.setup_details,
    })
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result, default=lambda scalar: scalar.item()))  # NumPy scalars
    return 0


if __name__ == "__main__":
    sys.exit(main())
