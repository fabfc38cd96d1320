"""Direct timed calls of single layers' public functions.

The traced pass uses these for the per-layer numbers that cannot be read
off a proxy or a ``stats()`` counter.  Each probe runs on batches taken
from the workload's own inputs and reports a median of several calls.
"""

from __future__ import annotations

import socket
import statistics
import threading
from pathlib import Path

import numpy as np

from common import now
from fixtures import K

from repro.autograd import no_grad
from repro.cluster.protocol import encode_frame, recv_frame
from repro.data.windows import pad_histories, pad_id_for
from repro.durability.wal import WriteAheadLog, pack_observe
from repro.serving.engine import ScoringEngine


def median_seconds(call, repeats: int = 7) -> float:
    """Median wall time of ``call()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = now()
        call()
        times.append(now() - start)
    return statistics.median(times)


def engine_stages(model, histories, users: np.ndarray, seed: int) -> dict:
    """The serial engine's ``top_k`` split into its four stages.

    Uses an engine without a representation cache, so every call pays
    for representation + matmul + mask + top-k selection, as the first
    touch of a user does in serving and every user does in evaluation.
    """
    users = np.asarray(users, dtype=np.int64)
    start = now()
    ScoringEngine(model, histories, precompute=True)
    build_s = now() - start

    cold = ScoringEngine(model, histories, cache_representations=False)
    cold.top_k(users, K)  # builds the seen index, touches the pages
    inputs = pad_histories([histories[user] for user in users],
                           model.input_length, pad_id_for(model.num_items))
    frozen = model.freeze(copy=True)

    def representation():
        with no_grad():
            return model.sequence_representation(users, inputs).data

    rep = representation()
    # Back to back within each repeat, so that the differences below are
    # taken between calls made under the same machine conditions.
    calls = {
        "representation": representation,
        "matmul": lambda: frozen.scores_from_representation(rep),
        "score_all": lambda: cold.score_all(users),
        "masked_scores": lambda: cold.masked_scores(users),
        "top_k": lambda: cold.top_k(users, K),
    }
    rounds = [{name: median_seconds(call, 1) for name, call in calls.items()}
              for _ in range(15)]
    stages = {
        "representation": statistics.median(r["representation"] for r in rounds),
        "matmul": statistics.median(r["matmul"] for r in rounds),
        "mask": statistics.median(r["masked_scores"] - r["score_all"] for r in rounds),
        "topk": statistics.median(r["top_k"] - r["masked_scores"] for r in rounds),
    }
    top_k = statistics.median(r["top_k"] for r in rounds)

    rng = np.random.default_rng([seed, 0x0B5])
    observed = ScoringEngine(model, histories)
    pairs = zip(rng.integers(0, model.num_users, 200).tolist(),
                rng.integers(0, model.num_items, 200).tolist())
    observe_times = []
    for user, item in pairs:
        start = now()
        observed.observe(user, item)
        observe_times.append(now() - start)

    per_user = 1e6 / users.size
    return {
        "engine.build_s": build_s,
        "engine.representation_us_per_user": stages["representation"] * per_user,
        "engine.matmul_us_per_user": stages["matmul"] * per_user,
        "engine.mask_us_per_user": stages["mask"] * per_user,
        "engine.topk_us_per_user": stages["topk"] * per_user,
        "engine.observe_us": statistics.median(observe_times) * 1e6,
        "engine.stage_coverage": sum(stages.values()) / top_k,
    }


def protocol_frames(num_items: int, batch: int = 32) -> dict:
    """Encode/decode cost of the two reply shapes the cluster sends.

    ``protocol.*_us`` is the ``(batch, num_items)`` score reply that the
    gateway's ``masked_scores`` path moves; ``protocol.*_ids_us`` the
    ``(batch, K)`` id reply of ``top_k``.  Decoding reads the frame from
    a socketpair while a writer thread sends it, as a router does.
    """
    replies = {
        "": {"scores": np.zeros((batch, num_items), dtype=np.float32)},
        "_ids": {"ranked": np.zeros((batch, K), dtype=np.int64)},
    }
    metrics = {}
    left, right = socket.socketpair()
    try:
        for suffix, arrays in replies.items():
            frame = encode_frame("ok", {}, arrays)
            metrics[f"protocol.encode{suffix}_us"] = median_seconds(
                lambda: encode_frame("ok", {}, arrays)) * 1e6

            def decode():
                writer = threading.Thread(target=left.sendall, args=(frame,))
                writer.start()
                try:
                    recv_frame(right)
                finally:
                    writer.join()

            metrics[f"protocol.decode{suffix}_us"] = median_seconds(decode) * 1e6
    finally:
        left.close()
        right.close()
    request = encode_frame("masked_scores", {},
                           {"users": np.zeros(1, dtype=np.int64)})
    reply = encode_frame("ok", {}, {"scores": np.zeros((1, num_items), np.float32)})
    metrics["protocol.bytes_per_request"] = float(len(request) + len(reply))
    return metrics


def wal_appends(directory: Path, records: int = 200) -> dict:
    """Append cost with and without fsync, on this host's disk."""
    metrics = {}
    payload = pack_observe(1, 2)
    for policy, name in (("always", "wal.append_fsync_us"),
                         ("never", "wal.append_nofsync_us")):
        times = []
        with WriteAheadLog(directory / policy, fsync=policy) as wal:
            for _ in range(records):
                start = now()
                wal.append(payload)
                times.append(now() - start)
        metrics[name] = statistics.median(times) * 1e6
    return metrics
