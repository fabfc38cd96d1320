"""Compare the working tree against another commit on ``bench/``.

The perf-regression gate: ``make bench-compare REF=<sha>`` (or
``python -m scripts.bench_compare REF``).  ``REF`` is unpacked with
``git archive`` into a temporary directory; each tree then runs *its
own* unmodified ``bench/run.py --workload W --seed s`` for N pairs,
alternating which side goes first so that host drift lands on both
sides alike.  The last stdout line of every run is the JSON result the
pipeline driver reads.

Per workload and end-to-end metric of ``BENCHMARK.json`` the report
gives both medians, both quartile ranges, in how many pairs the working
tree was strictly better, and a verdict:

* ``WORSE`` — the working tree's median is worse than REF's by more
  than the metric's bound;
* ``unresolved`` — it is not, but a side's own quartile spread exceeds
  the bound, so "unchanged" cannot be claimed either (unless every run
  of the working tree read better than every run of REF);
* ``ok`` — within the bound, and the spread is small enough to say so.

A workload whose share of failed operations grew is reported as
``MORE FAILURES``.  ``--claim WORKLOAD:METRIC`` (``make bench-compare
REF=<sha> CLAIM=...``) additionally checks a claimed gain and prints
``CLAIM MET`` / ``CLAIM NOT MET`` with every pair's two values: the
working tree must win at least nine tenths of the pairs run, ties
counting for neither side, and the medians must differ by more than the
distance between REF's own quartiles.  Exit status 1 on any ``WORSE`` /
``MORE FAILURES`` / ``CLAIM NOT MET``, else 0.  Standard library only;
one full comparison (six workloads, ten pairs) takes about an hour.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack_ref(ref: str, target: Path) -> None:
    """Unpack the tracked files of ``ref`` under ``target``."""
    target.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(target)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One ``bench/run.py`` run of ``tree``; its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(ref: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, spreads, wins and the verdict for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    ref_q1, ref_median, ref_q3 = quartiles(ref)
    change_q1, change_median, change_q3 = quartiles(change)
    scale = abs(ref_median) or 1.0
    worse_by = sign * (change_median - ref_median) / scale + 0.0  # no "-0.0%"
    spread = max(ref_q3 - ref_q1, change_q3 - change_q1) / scale
    all_better = max(sign * c for c in change) < min(sign * r for r in ref)
    if worse_by > bound:
        verdict = "WORSE"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "ref": (ref_q1, ref_median, ref_q3),
        "change": (change_q1, change_median, change_q3),
        "wins": sum(sign * (c - r) < 0 for r, c in zip(ref, change)),
        "pairs": len(ref),
        "worse_by": worse_by,
        "verdict": verdict,
    }


def claim_met(row: dict, better: str, pairs_run: int) -> bool:
    """Whether a :func:`judge` row supports claiming a gain.

    The change must win at least nine tenths of all ``pairs_run`` (a tie
    or a pair with a failed run is a win for neither side) and its
    median must beat REF's by more than the distance between REF's own
    quartiles.
    """
    sign = 1.0 if better == "lower" else -1.0
    ref_q1, ref_median, ref_q3 = row["ref"]
    gain = sign * (ref_median - row["change"][1])
    return 10 * row["wins"] >= 9 * pairs_run and gain > ref_q3 - ref_q1


def main(argv: list[str] | None = None) -> int:
    """Run the comparison and print the report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1,
                        help="pair i runs both sides on seed + i")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="also check that the working tree improved this "
                             "end-to-end metric on this workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim is not None and (
            len(claim) != 2 or claim[0] not in args.workload
            or claim[1] not in [entry["name"] for entry in spec["end_to_end"]]):
        parser.error("--claim takes WORKLOAD:METRIC, a workload being run "
                     "and an end-to-end metric of BENCHMARK.json")

    # results[workload][side] is one parsed JSON line per pair.
    results = {name: {"ref": [], "change": []} for name in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = {"ref": Path(tmp, "ref"), "change": ROOT}
        unpack_ref(args.ref, trees["ref"])
        for pair in range(args.pairs):
            order = ("ref", "change") if pair % 2 == 0 else ("change", "ref")
            for name in args.workload:
                for side in order:
                    line = run_once(trees[side], name, args.seed + pair,
                                    Path(tmp, f"out-{side}"))
                    results[name][side].append(line)
                print(f"pair {pair + 1}/{args.pairs} {name} done",
                      file=sys.stderr, flush=True)

    regressed = False
    claimed = False
    claim_line = f"CLAIM NOT MET: no pair produced {args.claim}"
    print(f"{'workload':<20}{'metric':<18}{'ref q1/median/q3':<36}"
          f"{'change q1/median/q3':<36}{'wins':<7}{'worse by':<10}verdict")
    for name in args.workload:
        ref_lines, change_lines = results[name]["ref"], results[name]["change"]
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            both = [(r["metrics"][metric]["value"], c["metrics"][metric]["value"])
                    for r, c in zip(ref_lines, change_lines)
                    if metric in r["metrics"] and metric in c["metrics"]]
            if not both:
                print(f"{name:<20}{metric:<18}no pair produced this metric")
                continue
            row = judge([r for r, _ in both], [c for _, c in both],
                        entry["better"], entry["bound"])
            regressed |= row["verdict"] == "WORSE"
            if claim == (name, metric):
                claimed = claim_met(row, entry["better"], args.pairs)
                claim_line = (
                    f"CLAIM {'MET' if claimed else 'NOT MET'}: {name} {metric} won "
                    f"{row['wins']}/{args.pairs} pairs (need 9 in 10), median "
                    f"{row['ref'][1]:.4g} -> {row['change'][1]:.4g} against a REF "
                    f"q3-q1 of {row['ref'][2] - row['ref'][0]:.4g}; pairs ref/change: "
                    + ", ".join(f"{r:.4g}/{c:.4g}" for r, c in both))
            print(f"{name:<20}{metric:<18}"
                  f"{'{:.4g} / {:.4g} / {:.4g}'.format(*row['ref']):<36}"
                  f"{'{:.4g} / {:.4g} / {:.4g}'.format(*row['change']):<36}"
                  f"{'{}/{}'.format(row['wins'], row['pairs']):<7}"
                  f"{row['worse_by']:<+10.1%}{row['verdict']}")
        shares = [sum(line["failed"] for line in lines)
                  / max(sum(line["attempted"] for line in lines), 1)
                  for lines in (ref_lines, change_lines)]
        more_failures = shares[1] > shares[0]
        regressed |= more_failures
        print(f"{name:<20}{'failed_share':<18}{shares[0]:<36.4g}{shares[1]:<36.4g}"
              f"{'':<7}{'':<10}{'MORE FAILURES' if more_failures else 'ok'}")
    if claim is not None:
        print(claim_line)
        regressed |= not claimed
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
