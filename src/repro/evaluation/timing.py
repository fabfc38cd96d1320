"""Testing run-time measurement (paper Section 6.7, Table 14).

The paper reports the average per-user scoring time during testing — the
latency that matters for real-time recommendation — and the speedup of
HAMs_m over each baseline.  The measurement here follows the same recipe:
time the full scoring pass over the evaluable users and divide by the
number of users.  Of several passes the fastest is kept (``timeit``'s
convention): at bench scale one pass takes a few microseconds per user,
so any slower pass measures timer and scheduler noise, not the model.

The passes run with the bundled OpenBLAS pinned to one thread.  A
multi-threaded gemm whose helper thread waits for a core that another
process keeps busy can stall for the whole measurement, which
fastest-of-N cannot remove (on a 2-vCPU VM beside one busy process, a
tiny-scale pass took about 2e-4 s per user instead of under 1e-5 s);
one thread per pass times the model alone.
"""

from __future__ import annotations

import ctypes
import glob
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.data.windows import pad_histories, pad_id_for
from repro.evaluation.evaluator import RankingEvaluator
from repro.models.base import SequentialRecommender

__all__ = ["InferenceTiming", "measure_inference_time"]


def _openblas():
    """NumPy's bundled OpenBLAS (``numpy.libs``), or ``None``."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(library, symbol) for symbol in (
                "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_")):
            return library
    return None


@contextmanager
def _single_blas_thread():
    """Pin the bundled OpenBLAS to one thread; restore the count on exit.

    Where NumPy carries no such library (another BLAS, or a build without
    the thread-count symbols), the block runs unpinned.
    """
    library = _openblas()
    if library is None:
        yield
        return
    previous = library.scipy_openblas_get_num_threads64_()
    library.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        library.scipy_openblas_set_num_threads64_(previous)


@dataclass(frozen=True)
class InferenceTiming:
    """Average per-user scoring latency of the fastest of ``repeats`` passes.

    ``total_seconds`` is the wall time of that one fastest pass.
    """

    model_name: str
    total_seconds: float
    num_users: int
    repeats: int

    @property
    def seconds_per_user(self) -> float:
        if self.num_users == 0:
            return 0.0
        return self.total_seconds / self.num_users


def measure_inference_time(model: SequentialRecommender,
                           evaluator: RankingEvaluator,
                           repeats: int = 1,
                           model_name: str | None = None) -> InferenceTiming:
    """Time ``model.score_all`` over every evaluable user of ``evaluator``.

    Parameters
    ----------
    repeats:
        Number of full passes; the fastest one is reported, which keeps
        a fast model's microsecond timings stable across runs.  Every
        pass runs with OpenBLAS on one thread (see the module docstring).
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    model.eval()
    users = evaluator._users
    if not users:
        return InferenceTiming(model_name or type(model).__name__, 0.0, 0, repeats)

    batch_size = evaluator.batch_size
    pad = pad_id_for(evaluator.split.num_items)
    # Pre-build the inputs so only the scoring pass is timed.
    batches = []
    for start in range(0, len(users), batch_size):
        chunk = users[start:start + batch_size]
        inputs = pad_histories(evaluator._histories, model.input_length, pad, users=chunk)
        batches.append((np.asarray(chunk, dtype=np.int64), inputs))

    fastest = float("inf")
    with _single_blas_thread():
        for _ in range(repeats):
            start_time = time.perf_counter()
            for user_array, inputs in batches:
                model.score_all(user_array, inputs)
            fastest = min(fastest, time.perf_counter() - start_time)
    return InferenceTiming(
        model_name=model_name or type(model).__name__,
        total_seconds=fastest,
        num_users=len(users),
        repeats=repeats,
    )
