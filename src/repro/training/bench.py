"""Synthetic training workload generator.

Kept at this import path because the frozen ``bench/fixtures.py`` (and
``tests/test_gateway.py``) import it from here; the benchmark itself
lives in ``bench/`` (see ``docs/benchmarks.md``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["synthetic_training_histories"]


def synthetic_training_histories(num_users: int, num_items: int,
                                 max_history: int, seed: int = 0) -> list[list[int]]:
    """Random per-user histories shaped like the synthetic HAM workload."""
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, num_items, size=int(rng.integers(max_history // 2, max_history))).tolist()
        for _ in range(num_users)
    ]
