"""Seeded inputs: models, histories and traffic streams.

Every function takes the run's seed and is the only source of
randomness; ``src/`` receives the generated arrays and nothing else.

Sizes are the issue's fixtures scaled to the run budget of
``BENCHMARK.json`` (ten-second runs, three set-ups per run): the ANN
catalogue is 40 000 items instead of 100 000 (its index builds in about
a second instead of twenty) and the training set has 1 000 users instead
of 3 000 (an epoch takes about a second).
"""

from __future__ import annotations

import numpy as np

from repro.models.registry import create_model
from repro.training.bench import synthetic_training_histories

K = 10  # every request asks for the top ten

F_USERS, F_ITEMS = 4_000, 20_000
A_USERS, A_ITEMS, A_DIM, A_CENTRES, A_SPREAD = 2_000, 40_000, 64, 256, 0.35
T_USERS, T_ITEMS, T_CLUSTERS = 1_000, 20_000, 200


def _ham(num_users: int, num_items: int, dim: int, seed: int, dtype="float32"):
    return create_model("HAMm", num_users, num_items,
                        rng=np.random.default_rng(seed), embedding_dim=dim,
                        n_h=10, n_l=2, dtype=dtype)


def _cluster_histories(rng, assign: np.ndarray, clusters: int,
                       num_users: int) -> list[list[int]]:
    """Each user's history is drawn from the items of one cluster."""
    order = np.argsort(assign, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(assign, minlength=clusters))])
    histories = []
    for cluster in rng.integers(0, clusters, size=num_users):
        members = order[starts[cluster]:starts[cluster + 1]]
        length = int(rng.integers(30, 60))
        histories.append(rng.choice(members, size=length).tolist())
    return histories


def fixture_f(seed: int):
    """Serving/evaluation fixture: random-init HAMm, random histories."""
    histories = synthetic_training_histories(F_USERS, F_ITEMS, 60, seed)
    return _ham(F_USERS, F_ITEMS, 48, seed), histories


def fixture_a(seed: int):
    """ANN fixture: a planted clustered item table.

    Random-init tables have no structure for an IVF index to find
    (recall@10 of 0.02); with Gaussian clusters and single-cluster user
    histories the default dial recalls about 0.99.
    """
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(A_CENTRES, A_DIM)).astype(np.float32)
    assign = rng.integers(0, A_CENTRES, size=A_ITEMS)
    table = centres[assign] + A_SPREAD * rng.normal(
        size=(A_ITEMS, A_DIM)).astype(np.float32)
    histories = _cluster_histories(rng, assign, A_CENTRES, A_USERS)
    model = _ham(A_USERS, A_ITEMS, A_DIM, seed)
    state = model.state_dict()
    padded = np.concatenate([table, np.zeros((1, A_DIM), np.float32)])
    for name, value in state.items():
        if value.shape == padded.shape:
            state[name] = padded.astype(value.dtype)
    model.load_state_dict(state)
    return model, histories


def fixture_t(seed: int):
    """Training fixture: single-cluster histories, so BPR has a signal.

    On uniform-random histories the loss does not move from ln 2.
    """
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, T_CLUSTERS, size=T_ITEMS)
    histories = _cluster_histories(rng, assign, T_CLUSTERS, T_USERS)
    return _ham(T_USERS, T_ITEMS, 48, seed, dtype=None), histories


class OpStream:
    """A seeded stream of ``top_k`` requests and ``observe`` writes.

    ``zipf`` > 0 draws users Zipf-distributed over a seeded permutation
    (a few hot users, so a row cache can help); ``zipf`` = 0 draws them
    uniformly (no reuse to exploit).  The stream is cycled if a phase
    outlasts it.
    """

    def __init__(self, seed: int, num_users: int, num_items: int,
                 zipf: float, observe_share: float, size: int = 1 << 18):
        rng = np.random.default_rng([seed, 0x5EED])
        if zipf > 0:
            weights = np.arange(1, num_users + 1, dtype=np.float64) ** -zipf
            ranks = np.searchsorted(np.cumsum(weights / weights.sum()),
                                    rng.random(size))
            users = rng.permutation(num_users)[np.minimum(ranks, num_users - 1)]
        else:
            users = rng.integers(0, num_users, size=size)
        self.users = users.tolist()
        self.items = rng.integers(0, num_items, size=size).tolist()
        self.is_observe = (rng.random(size) < observe_share).tolist()
        self.size = size
        self.position = 0

    def next(self) -> tuple[bool, int, int]:
        index = self.position % self.size
        self.position += 1
        return self.is_observe[index], self.users[index], self.items[index]
