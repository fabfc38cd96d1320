#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.

Each run is one workload in its own subprocess (``worker.py``), with the
BLAS pools pinned to one thread, a hard wall-clock timeout and its whole
process group killed if it overruns.  The runner prints one line per
metric (``workload metric value unit``) and, last, the JSON object the
driver reads.  With several ``--workload`` names (default: all) or
``--repeat N`` it runs them in turn and adds a spread summary.

The runner itself uses the standard library only; ``worker.py`` needs
NumPy and the ``repro`` package from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (BENCH_DIR, DEFAULT_OUT, ROOT, SRC_DIR, THREAD_ENV,
                    load_spec, shm_entries, spread)

#: Hard limit of one run; the driver allows 180 s.
TIMEOUT_S = 150.0


def run_worker(name: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """One worker process; on a crash or timeout, a failed result."""
    out.mkdir(parents=True, exist_ok=True)
    shm_before = shm_entries()
    started = time.monotonic()
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
    process = subprocess.Popen(
        command, cwd=ROOT, env={**os.environ, **THREAD_ENV},
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=TIMEOUT_S)
        problem = None if process.returncode == 0 else f"exit code {process.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"timed out after {TIMEOUT_S:.0f} s"
        stdout = ""
    finally:
        # Whatever the worker left running or lying around goes with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if problem is None:
        result = json.loads(stdout.strip().splitlines()[-1])
        result["details"]["wall_s"] = time.monotonic() - started
        return result
    for scratch in out.glob(f"tmp-{name}-{seed}-{trace}"):
        shutil.rmtree(scratch, ignore_errors=True)
    for segment in shm_entries() - shm_before:
        Path("/dev/shm", segment).unlink(missing_ok=True)
    return {"metrics": {}, "attempted": 1, "failed": 1,
            "details": {"failures": [problem]}}


def report(name: str, result: dict, spec: dict, trace: int) -> dict:
    """Print the metric lines and the driver's JSON line for one run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    complete = bool(measured)
    metrics = {}
    for entry in wanted:
        if entry["name"] in measured:
            value = float(measured[entry["name"]])
        elif trace and measured:
            value = 0.0  # a layer this workload does not enter
        else:
            complete = False
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{name} {entry['name']} {value:.6g} {entry['unit']}")
    failed_share = result["failed"] / result["attempted"]
    print(f"{name} failed_share {failed_share:.6g} share")
    for reason in result["details"].get("failures", [])[:5]:
        print(f"{name} failure: {reason}", file=sys.stderr)
    for leak in result["details"].get("leaks", []):
        print(f"{name} leak: {leak}", file=sys.stderr)
    line = {"correct": complete and result["failed"] == 0,
            "attempted": int(result["attempted"]), "failed": int(result["failed"]),
            "metrics": metrics}
    print(json.dumps(line))
    return line


def main() -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies --seconds (0.05 for a smoke run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for run artefacts (default bench/out)")
    args = parser.parse_args()
    if not (SRC_DIR / "repro").is_dir():
        print(f"{SRC_DIR}/repro not found: the benchmark measures the package "
              "in src/ and cannot run without it", file=sys.stderr)
        return 2
    seconds = args.seconds * args.scale
    out = args.out.resolve()
    kind = "per_layer" if args.trace else "end_to_end"

    samples: dict[tuple[str, str], list[float]] = {}
    for name in args.workload:
        for seed in range(args.seed, args.seed + args.repeat):
            result = run_worker(name, seed, seconds, args.trace, out)
            if args.repeat > 1 and result["details"].get("disturbed"):
                # Something else used the machine: keep the attempt, run
                # again.  Only when calibrating noise: a single run is on
                # the driver's clock and just records the flag.
                disturbed = result["metrics"]
                result = run_worker(name, seed, seconds, args.trace, out)
                result["details"]["disturbed_attempt"] = disturbed
            artefact = out / f"result-{name}-seed{seed}-trace{args.trace}.json"
            artefact.write_text(json.dumps(result, indent=1))
            line = report(name, result, spec, args.trace)
            for metric, entry in line["metrics"].items():
                samples.setdefault((name, metric), []).append(entry["value"])

    if args.repeat > 1:
        bounds = {entry["name"]: entry.get("bound") for entry in spec[kind]}
        summary = {}
        for (name, metric), values in samples.items():
            row = spread(values)
            row["bound"] = bounds[metric]
            summary[f"{name} {metric}"] = row
            print(f"{name} {metric} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                  f"iqr/median {row['iqr_share']:.4f} bound {row['bound']}")
        (out / f"spread-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
