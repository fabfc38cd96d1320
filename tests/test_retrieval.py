"""Tests of the two-stage ANN retrieval tier (:mod:`repro.retrieval`).

Pins the contracts the candidate-generation stage is built on:

* ``mode="exact"`` (and the default) stays bit-identical to the
  pre-ANN ``top_k`` — the approximate path is strictly opt-in;
* ANN candidate sets are deterministic for a fixed seed, across shard
  worker counts and across a ``SharedArena`` publish/attach round-trip;
* candidate sets are prefix-nested in ``n_probe``, so measured recall@k
  is monotone non-decreasing in the probe dial;
* the PQ reconstruction error bounds the ADC score error
  (Cauchy–Schwarz: ``|q.x - q.x_hat| <= |q| * |x - x_hat|``);
* the serialized layout (header bytes, dtypes, shapes, arena
  alignment) is golden-pinned so the transport format cannot drift;
* tiny catalogues fall back to the LSH index, and quota-starved rows
  fall back to exact scoring.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.cluster.protocol import (engine_from_snapshot_payload,
                                    serialize_live_engine)
from repro.data.dataset import InteractionDataset
from repro.data.splits import split_setting
from repro.evaluation.ranking import top_k_items
from repro.models import create_model
from repro.parallel import SharedArena, default_start_method
from repro.parallel.shm import SHM_PREFIX
from repro.parallel.sharded import make_scoring_engine
from repro.retrieval import (ANN_KIND_LSH, ANN_KIND_PQ, ANN_MAGIC,
                             ANNIndex, HEADER_STRUCT, RetrievalConfig)
from repro.serving import ScoringEngine
from repro.training import Trainer, TrainingConfig

pytestmark = pytest.mark.fast

NUM_ITEMS = 30


def _shm_entries() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}


@pytest.fixture(autouse=True)
def shm_guard():
    """Every test must leave /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    gc.collect()
    leaked = _shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def tiny_split(num_users: int = 14, seed: int = 0):
    rng = np.random.default_rng(seed)
    sequences = [
        rng.integers(0, NUM_ITEMS, size=rng.integers(12, 18)).tolist()
        for _ in range(num_users)
    ]
    dataset = InteractionDataset.from_sequences(sequences, num_items=NUM_ITEMS)
    return split_setting(dataset, "80-3-CUT")


def trained_model(split, name: str = "HAMs_m", epochs: int = 2):
    model = create_model(name, split.num_users, NUM_ITEMS,
                         rng=np.random.default_rng(0),
                         embedding_dim=8, n_h=4, n_l=2)
    Trainer(model, TrainingConfig(num_epochs=epochs, batch_size=64, seed=0)).fit(
        split.train_plus_valid())
    return model


def synthetic_catalogue(rng: np.random.Generator, num_items: int, dim: int,
                        n_clusters: int = 400,
                        spread: float = 0.35) -> np.ndarray:
    """A clustered float32 item table of shape ``(num_items, dim)``.

    ``n_clusters`` Gaussian centers with per-item noise of scale
    ``spread`` — the co-purchase/genre structure real embedding tables
    carry, and the structure an IVF coarse quantizer exploits (an
    isotropic cloud has none, so it would test a catalogue shape that
    never occurs).
    """
    centers = rng.standard_normal((n_clusters, dim)).astype(np.float32)
    assign = rng.integers(0, n_clusters, size=num_items)
    noise = (spread * rng.standard_normal((num_items, dim))).astype(np.float32)
    return centers[assign] + noise


def noisy_queries(rng: np.random.Generator, table: np.ndarray,
                  count: int) -> np.ndarray:
    """Noisy copies of catalogue rows: "user rep near the items they like"."""
    rows = table[rng.integers(0, table.shape[0], size=count)]
    return (rows + 0.3 * rng.standard_normal(rows.shape)).astype(np.float32)


def reranked_top_k(index: ANNIndex, table: np.ndarray, query: np.ndarray,
                   k: int, **dial) -> np.ndarray:
    """Two-stage answer for one query: ANN candidates, exact re-rank."""
    candidates = index.candidates(query, k, **dial)
    scores = table[candidates] @ query
    return candidates[np.argsort(-scores, kind="stable")[:k]]


def pq_fixture(num_items: int = 4096, dim: int = 16, seed: int = 7):
    """A PQ index over a clustered catalogue, plus the table and queries."""
    rng = np.random.default_rng(seed)
    table = synthetic_catalogue(rng, num_items, dim, n_clusters=40)
    config = RetrievalConfig(n_buckets=32, pq_subspaces=4, pq_centroids=16,
                             kmeans_iters=2, train_sample=1024, seed=0)
    queries = noisy_queries(rng, table, 16)
    return ANNIndex.build(table, config), table, queries


# ---------------------------------------------------------------------- #
# Exact mode stays the pre-ANN engine
# ---------------------------------------------------------------------- #
def test_exact_mode_bit_identical_to_reference():
    split = tiny_split()
    model = trained_model(split)
    histories = split.train_plus_valid()
    engine = ScoringEngine(model, histories)
    users = np.arange(split.num_users, dtype=np.int64)

    # Independent reference: full scores, seen masked to -inf, stable
    # argpartition ranking — the pre-ANN top_k semantics.
    scores = np.array(engine.score_all(users), dtype=np.float64, copy=True)
    for row, user in enumerate(users):
        scores[row, np.asarray(sorted(set(histories[user])))] = -np.inf
    reference = top_k_items(scores, 5)

    default = engine.top_k(users, 5)
    exact = engine.top_k(users, 5, mode="exact")
    np.testing.assert_array_equal(default, reference)
    np.testing.assert_array_equal(exact, reference)

    # top_k_scored agrees with top_k and returns the true scores.
    ranked, ranked_scores = engine.top_k_scored(users, 5)
    np.testing.assert_array_equal(ranked, reference)
    rows = np.arange(users.size)[:, None]
    np.testing.assert_array_equal(ranked_scores, scores[rows, reference])
    engine.close()


def test_mode_validation_and_missing_index():
    split = tiny_split()
    engine = ScoringEngine(trained_model(split), split.train_plus_valid())
    users = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        engine.top_k(users, 5, mode="fuzzy")
    with pytest.raises(RuntimeError):
        engine.top_k(users, 5, mode="ann")
    engine.close()


# ---------------------------------------------------------------------- #
# ANN mode on the engine (LSH fallback at this catalogue size)
# ---------------------------------------------------------------------- #
def test_ann_mode_on_engine_is_deterministic_and_valid():
    split = tiny_split()
    model = trained_model(split)
    histories = split.train_plus_valid()
    engine = ScoringEngine(model, histories)
    index = engine.build_ann_index()
    assert index.kind == "lsh"  # 30 items is far below min_pq_items
    users = np.arange(split.num_users, dtype=np.int64)

    first = engine.top_k(users, 5, mode="ann")
    second = engine.top_k(users, 5, mode="ann")
    np.testing.assert_array_equal(first, second)
    assert first.dtype == np.int64 and first.shape == (users.size, 5)
    assert ((first >= 0) & (first < NUM_ITEMS)).all()
    for row, user in enumerate(users):
        assert not set(first[row].tolist()) & set(histories[user]), (
            "ANN mode returned a seen item")

    # Probing every bucket makes the candidate set the whole catalogue
    # (or triggers the exact fallback) — either way: exact answers.
    everything = engine.top_k(users, 5, mode="ann", n_probe=index.n_buckets)
    np.testing.assert_array_equal(everything, engine.top_k(users, 5))
    engine.close()


def test_quota_starved_rows_fall_back_to_exact():
    split = tiny_split()
    engine = ScoringEngine(trained_model(split), split.train_plus_valid())
    engine.build_ann_index()
    users = np.arange(split.num_users, dtype=np.int64)
    # k = catalogue size with seen items excluded: no probe extension
    # can reach `width` unseen candidates, so every row must take the
    # exact-scoring fallback — and therefore match exact mode even in
    # the -inf (seen) tail.
    ann = engine.top_k(users, NUM_ITEMS, mode="ann")
    exact = engine.top_k(users, NUM_ITEMS)
    np.testing.assert_array_equal(ann, exact)
    engine.close()


# ---------------------------------------------------------------------- #
# Nesting and recall monotonicity (PQ path, clustered catalogue)
# ---------------------------------------------------------------------- #
def test_pq_candidate_sets_nest_and_recall_is_monotone():
    index, table, queries = pq_fixture()
    assert index.kind == "pq"
    k = 10
    exact = np.argsort(-(queries @ table.T), axis=1, kind="stable")[:, :k]

    recalls = []
    for n_probe in (1, 2, 4, 8, 16, 32):
        hits = 0
        for row in range(queries.shape[0]):
            # Prefix nesting: the set at n_probe contains the set at
            # every smaller dial value.
            if n_probe > 1:
                candidates = index.candidates(queries[row], k, n_probe=n_probe)
                smaller = index.candidates(queries[row], k,
                                           n_probe=n_probe // 2)
                assert set(smaller.tolist()) <= set(candidates.tolist())
            ranked = reranked_top_k(index, table, queries[row], k,
                                    n_probe=n_probe)
            hits += len(set(ranked.tolist()) & set(exact[row].tolist()))
        recalls.append(hits / (queries.shape[0] * k))

    assert recalls == sorted(recalls), (
        f"recall@{k} not monotone in n_probe: {recalls}")
    assert recalls[-1] >= 0.9

    # With the per-bucket quota lifted past the largest bucket, probing
    # every bucket makes each candidate set the whole catalogue — and
    # the exact re-rank recovers the exact top-k in full.
    largest = int(np.diff(index._arrays["bucket_indptr"]).max())
    multiplier = -(-largest // k)  # ceil: quota >= largest bucket
    for row in range(queries.shape[0]):
        ranked = reranked_top_k(index, table, queries[row], k, n_probe=32,
                                candidate_multiplier=multiplier)
        assert set(ranked.tolist()) == set(exact[row].tolist())


def test_default_dial_recall_floor_on_pq_catalogue():
    """The retrieval tier's correctness floor: at the default
    ``RetrievalConfig`` (build and dial) the two-stage answer recovers
    at least 95 % of the exact top-10 on a clustered catalogue large
    enough for the IVF-PQ path."""
    rng = np.random.default_rng(7)
    table = synthetic_catalogue(rng, 20_000, 64)
    queries = noisy_queries(rng, table, 64)
    index = ANNIndex.build(table, RetrievalConfig())
    assert index.kind == "pq"
    k = 10
    exact = np.argsort(-(queries @ table.T), axis=1, kind="stable")[:, :k]
    hits = sum(
        len(set(reranked_top_k(index, table, queries[row], k).tolist())
            & set(exact[row].tolist()))
        for row in range(queries.shape[0]))
    assert hits / (queries.shape[0] * k) >= 0.95


def test_candidates_deterministic_for_fixed_seed():
    index_a, _, queries = pq_fixture()
    index_b, _, _ = pq_fixture()
    for row in range(queries.shape[0]):
        np.testing.assert_array_equal(
            index_a.candidates(queries[row], 10),
            index_b.candidates(queries[row], 10))


# ---------------------------------------------------------------------- #
# PQ reconstruction bounds the score error
# ---------------------------------------------------------------------- #
def test_reconstruction_error_bounds_score_error():
    index, table, queries = pq_fixture()
    items = np.arange(0, table.shape[0], 97, dtype=np.int64)
    approx = index.reconstruct(items)
    assert approx.shape == (items.size, table.shape[1])
    reconstruction_error = np.linalg.norm(
        table[items] - approx, axis=1).astype(np.float64)

    for row in range(queries.shape[0]):
        query = queries[row].astype(np.float64)
        exact_scores = table[items].astype(np.float64) @ query
        approx_scores = approx.astype(np.float64) @ query
        bound = np.linalg.norm(query) * reconstruction_error
        assert (np.abs(exact_scores - approx_scores) <= bound + 1e-6).all()

    # Residual quantization must actually compress: reconstructions land
    # much closer than the embedding scale.
    assert reconstruction_error.mean() < 0.5 * np.linalg.norm(
        table[items].astype(np.float64), axis=1).mean()


# ---------------------------------------------------------------------- #
# Determinism across worker counts and the arena round-trip
# ---------------------------------------------------------------------- #
def test_ann_answers_identical_across_worker_counts():
    split = tiny_split()
    model = trained_model(split)
    histories = split.train_plus_valid()
    users = np.arange(split.num_users, dtype=np.int64)
    config = RetrievalConfig(seed=0)

    results = []
    for n_workers in (1, 2, 3):
        engine = make_scoring_engine(model, histories, n_workers=n_workers,
                                     ann_config=config)
        try:
            results.append(engine.top_k(users, 5, mode="ann"))
        finally:
            engine.close()
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[0], results[2])


def _candidates_in_subprocess(layout, queries, queue):
    arena = SharedArena.attach(layout)
    try:
        index = ANNIndex.from_arrays(arena.arrays())
        queue.put([index.candidates(query, 10).tolist() for query in queries])
    finally:
        arena.close()


def test_arena_publish_attach_round_trip_is_bit_identical():
    index, _, queries = pq_fixture()
    parent = [index.candidates(query, 10).tolist() for query in queries]

    arena = SharedArena.publish(index.to_arrays())
    try:
        # In-process attach: a second read-only mapping of the segment.
        attached = SharedArena.attach(arena.layout)
        try:
            rebuilt = ANNIndex.from_arrays(attached.arrays())
            assert rebuilt.kind == index.kind
            assert [rebuilt.candidates(q, 10).tolist() for q in queries] == parent
        finally:
            attached.close()

        # Cross-process attach: the path the shard workers take.
        ctx = mp.get_context(default_start_method())
        queue = ctx.Queue()
        worker = ctx.Process(target=_candidates_in_subprocess,
                             args=(arena.layout, queries, queue))
        worker.start()
        child = queue.get(timeout=60)
        worker.join(timeout=60)
        assert child == parent
    finally:
        arena.close()


# ---------------------------------------------------------------------- #
# Golden serialized layout
# ---------------------------------------------------------------------- #
def test_golden_pq_layout():
    index, _, _ = pq_fixture()
    assert index.header_bytes().hex() == (
        "414e4e58010100000010000010000000200000000400000010000000"
        "0800000000000000")
    arrays = index.to_arrays()
    assert ANNIndex.array_keys(arrays) == [
        "ann_bucket_indptr", "ann_bucket_items", "ann_centroids",
        "ann_codebooks", "ann_codes", "ann_dials", "ann_header",
    ]
    expected = {
        "ann_header": (np.uint8, (HEADER_STRUCT.size,)),
        "ann_centroids": (np.float32, (32, 16)),
        "ann_bucket_indptr": (np.int64, (33,)),
        "ann_bucket_items": (np.int64, (4096,)),
        "ann_codebooks": (np.float32, (4, 16, 4)),
        "ann_codes": (np.uint8, (4096, 4)),
        "ann_dials": (np.int64, (2,)),
    }
    for key, (dtype, shape) in expected.items():
        assert arrays[key].dtype == dtype, key
        assert arrays[key].shape == shape, key
    assert arrays["ann_header"][:4].tobytes() == ANN_MAGIC
    assert int(arrays["ann_header"][5]) == ANN_KIND_PQ
    np.testing.assert_array_equal(arrays["ann_dials"], [8, 8])

    # Arena packing keeps every index array cache-line aligned.
    arena = SharedArena.publish(arrays)
    try:
        for key, spec in arena.layout.specs.items():
            assert spec.offset % 64 == 0, key
    finally:
        arena.close()


def test_golden_lsh_layout_and_fallback():
    rng = np.random.default_rng(7)
    table = rng.standard_normal((NUM_ITEMS, 8)).astype(np.float32)
    index = ANNIndex.build(table, RetrievalConfig(lsh_bits=4))
    assert index.kind == "lsh"  # below min_pq_items
    assert index.header_bytes().hex() == (
        "414e4e58010200001e0000000800000010000000080000000001000004000000"
        "00000000")
    arrays = index.to_arrays()
    assert ANNIndex.array_keys(arrays) == [
        "ann_bucket_indptr", "ann_bucket_items", "ann_dials", "ann_header",
        "ann_hyperplanes",
    ]
    assert arrays["ann_hyperplanes"].dtype == np.float32
    assert arrays["ann_hyperplanes"].shape == (4, 8)
    assert arrays["ann_bucket_indptr"].shape == (17,)
    assert int(arrays["ann_header"][5]) == ANN_KIND_LSH

    rebuilt = ANNIndex.from_arrays(arrays)
    assert rebuilt.kind == "lsh"
    query = table[3]
    np.testing.assert_array_equal(rebuilt.candidates(query, 5),
                                  index.candidates(query, 5))


def test_from_arrays_rejects_corrupt_headers():
    index, _, _ = pq_fixture()
    arrays = index.to_arrays()
    bad_magic = dict(arrays)
    bad_magic["ann_header"] = arrays["ann_header"].copy()
    bad_magic["ann_header"][0] = 0
    with pytest.raises(ValueError):
        ANNIndex.from_arrays(bad_magic)
    truncated = dict(arrays)
    truncated["ann_header"] = arrays["ann_header"][:10].copy()
    with pytest.raises(ValueError):
        ANNIndex.from_arrays(truncated)


# ---------------------------------------------------------------------- #
# Gateway ANN mode
# ---------------------------------------------------------------------- #
def test_gateway_ann_mode_matches_engine():
    from repro.serving import ServingGateway

    split = tiny_split()
    engine = ScoringEngine(trained_model(split), split.train_plus_valid())
    engine.build_ann_index()
    users = np.arange(split.num_users, dtype=np.int64)
    expected, scores = engine.top_k_scored(users, 5, mode="ann")

    with ServingGateway(engine, retrieval_mode="ann",
                        cache_size=int(users.size)) as front:
        futures = [front.submit(int(user), 5) for user in users]
        batches = [future.recommendations() for future in futures]
        # ANN answers are cached like exact ones: repeats never reach
        # the engine, and narrower requests take a prefix.
        repeats = [front.submit(int(user), 3) for user in users]
        assert all(future.done() for future in repeats)
        stats = front.stats()
    for row in range(users.size):
        assert [entry.item for entry in batches[row]] == expected[row].tolist()
        assert [entry.score for entry in batches[row]] == scores[row].tolist()
        assert repeats[row].result().tolist() == expected[row, :3].tolist()
    assert stats.cache.hits == users.size
    engine.close()


def test_gateway_rejects_bad_retrieval_mode():
    from repro.serving import ServingGateway

    split = tiny_split()
    engine = ScoringEngine(trained_model(split), split.train_plus_valid())
    with pytest.raises(ValueError):
        ServingGateway(engine, retrieval_mode="fuzzy")
    engine.close()


# ---------------------------------------------------------------------- #
# Cluster snapshot frames carry the index
# ---------------------------------------------------------------------- #
def test_snapshot_round_trip_ships_the_index():
    split = tiny_split()
    model = trained_model(split)
    histories = split.train_plus_valid()
    users = np.arange(split.num_users, dtype=np.int64)

    origin = ScoringEngine(model, histories)
    origin.build_ann_index(RetrievalConfig())

    meta, arrays = serialize_live_engine(origin)
    assert "ann_header" in arrays
    rebuilt = engine_from_snapshot_payload(meta, arrays)
    assert rebuilt.ann_index is not None
    np.testing.assert_array_equal(rebuilt.top_k(users, 5, mode="ann"),
                                  origin.top_k(users, 5, mode="ann"))
    np.testing.assert_array_equal(rebuilt.top_k(users, 5),
                                  origin.top_k(users, 5))
    rebuilt.close()
    origin.close()
