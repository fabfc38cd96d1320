"""Shared configuration of the benchmark (reproduction) suite.

Every benchmark regenerates one table or figure of the paper on the
synthetic analogues.  Scale and epoch budget are controlled by environment
variables so the same suite can run as a quick smoke pass or as a fuller
overnight reproduction:

``REPRO_SCALE``         tiny | small (default) | paper
``REPRO_BENCH_EPOCHS``  training epochs per method (default 10)

The overall-experiment cache in :mod:`repro.experiments.overall` is shared
across benchmark modules, so the Recall table, the NDCG table, the
improvement summary and the run-time table of one setting train each
method exactly once per session.
"""

import os
from pathlib import Path

import pytest

os.environ.setdefault("REPRO_SCALE", "small")
os.environ.setdefault("REPRO_BENCH_EPOCHS", "10")


def pytest_report_header(config):
    return (
        f"repro benchmarks: scale={os.environ['REPRO_SCALE']} "
        f"epochs={os.environ['REPRO_BENCH_EPOCHS']}"
    )


@pytest.fixture(scope="session")
def bench_epochs() -> int:
    """Epoch budget used by every training-based benchmark."""
    return int(os.environ["REPRO_BENCH_EPOCHS"])


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Synthetic-analogue scale profile used by every benchmark."""
    return os.environ["REPRO_SCALE"]


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The reproduction experiments train models, so repeated timing rounds
    would multiply the suite's run time for no extra information; a single
    timed round is recorded instead.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def emit_report(name: str, text: str, directory: str = "results") -> None:
    """Print a reproduction report and persist it under benchmarks/<directory>/.

    pytest captures stdout by default, so the formatted paper-vs-measured
    tables are also written to ``benchmarks/results/<name>.txt`` where they
    can be inspected after the run.  ``results/`` is tracked and every
    report in it is byte-stable for a fixed seed; a report that carries
    wall-clock columns goes to the git-ignored ``out/`` instead, so a
    test run leaves the tree clean.
    """
    print()
    print(text)
    target_dir = Path(__file__).parent / directory
    target_dir.mkdir(exist_ok=True)
    (target_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
