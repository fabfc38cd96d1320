"""Testing run-time measurement (paper Section 6.7, Table 14).

The paper reports the average per-user scoring time during testing — the
latency that matters for real-time recommendation — and the speedup of
HAMs_m over each baseline.  The measurement here follows the same recipe:
time the full scoring pass over the evaluable users and divide by the
number of users.  Of several passes the fastest is kept (``timeit``'s
convention): at bench scale one pass takes a few microseconds per user,
so any slower pass measures timer and scheduler noise, not the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.windows import pad_histories, pad_id_for
from repro.evaluation.evaluator import RankingEvaluator
from repro.models.base import SequentialRecommender

__all__ = ["InferenceTiming", "measure_inference_time"]


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
        a fast model's microsecond timings stable across runs.
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
