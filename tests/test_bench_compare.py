"""Tests for the verdict arithmetic of ``scripts/bench_compare.py``.

Canned numbers only — no ``bench/`` run: the quartiles, the WORSE /
unresolved / ok verdict and the rule for claiming a gain (``--claim``),
plus a dry run (``make -n``) of the Makefile target that forwards its
variables to the script's flags.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

from scripts.bench_compare import claim_met, judge, quartiles

pytestmark = pytest.mark.fast

# Ten paced-p50 readings (ms) in the shape of a real serve_hot series.
REF = [2.62, 2.66, 2.70, 2.74, 2.75, 2.76, 2.80, 2.86, 2.88, 2.95]
CHANGE = [0.46, 0.46, 0.47, 0.47, 0.47, 0.48, 0.49, 0.50, 0.50, 0.52]


def test_quartiles_of_one_sample_and_of_a_series():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)


def test_judge_counts_strict_wins_and_signs_by_direction():
    row = judge([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "lower", 0.25)
    assert (row["wins"], row["pairs"]) == (1, 3)  # the tie is nobody's
    assert row["worse_by"] == 0.0 and row["verdict"] == "ok"
    higher = judge([100.0] * 4, [130.0] * 4, "higher", 0.25)
    assert higher["wins"] == 4 and higher["worse_by"] == pytest.approx(-0.30)
    assert judge([100.0] * 4, [70.0] * 4, "higher", 0.25)["verdict"] == "WORSE"
    assert judge([100.0] * 4, [80.0] * 4, "higher", 0.25)["verdict"] == "ok"


def test_judge_reports_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert judge(noisy, noisy, "lower", 0.25)["verdict"] == "unresolved"
    # Overlapping but better in the median: still cannot be called.
    shifted = [value - 10.0 for value in noisy]
    assert judge(noisy, shifted, "lower", 0.25)["verdict"] == "unresolved"


def test_judge_says_ok_when_every_change_run_beats_every_ref_run():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert judge(noisy, [10.0, 20.0, 30.0, 40.0, 59.0], "lower",
                 0.25)["verdict"] == "ok"
    # One run short of a clean sweep (equal counts as not better).
    assert judge(noisy, [10.0, 20.0, 30.0, 40.0, 60.0], "lower",
                 0.25)["verdict"] == "unresolved"
    assert judge(noisy, [150.0, 160.0, 170.0, 180.0, 141.0], "higher",
                 0.25)["verdict"] == "ok"


def test_claim_needs_nine_wins_in_ten_and_a_gain_beyond_refs_quartiles():
    row = judge(REF, CHANGE, "lower", 0.25)
    assert row["wins"] == 10 and claim_met(row, "lower", 10)
    # Read in the other direction the same numbers are a loss.
    assert not claim_met(judge(REF, CHANGE, "higher", 0.25), "higher", 10)

    # Nine wins and a tie pass; eight wins and two ties do not.
    one_tie = judge(REF, [REF[0], *CHANGE[1:]], "lower", 0.25)
    assert one_tie["wins"] == 9 and claim_met(one_tie, "lower", 10)
    two_ties = judge(REF, [*REF[:2], *CHANGE[2:]], "lower", 0.25)
    assert two_ties["wins"] == 8 and not claim_met(two_ties, "lower", 10)
    # A pair lost to a failed run counts against the claim as well.
    assert not claim_met(judge(REF[:8], CHANGE[:8], "lower", 0.25), "lower", 10)

    # Ten wins of a hair: the medians differ by less than REF's q3 - q1.
    hair = judge(REF, [value - 0.01 for value in REF], "lower", 0.25)
    assert hair["wins"] == 10 and not claim_met(hair, "lower", 10)


@pytest.mark.skipif(shutil.which("make") is None, reason="make not installed")
def test_make_bench_compare_forwards_workloads_pairs_and_claim():
    def recipe(*variables: str) -> str:
        done = subprocess.run(
            # --no-print-directory: under a parent make (make test)
            # the sub-make would print "Leaving directory" last.
            ["make", "-n", "--no-print-directory", "bench-compare", *variables],
            cwd=Path(__file__).resolve().parents[1],
            stdout=subprocess.PIPE, text=True, check=True)
        return " ".join(done.stdout.splitlines()[-1].split())

    assert recipe("REF=abc123").endswith("-m scripts.bench_compare abc123")
    assert recipe("REF=abc123", "WORKLOADS=serve_hot serve_cluster", "PAIRS=3",
                  "CLAIM=serve_hot:throughput_per_s").endswith(
        "-m scripts.bench_compare abc123 --workload serve_hot serve_cluster "
        "--pairs 3 --claim serve_hot:throughput_per_s")
