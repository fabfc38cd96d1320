"""Two-stage retrieval: ANN candidate generation + exact re-rank.

The serving engine's ``top_k`` is a dense matmul over the whole frozen
candidate table — exact, but linear in catalogue size.  This package
adds the sub-linear first stage: :class:`ANNIndex` (residual IVF-PQ
with an LSH fallback for tiny catalogues, pure NumPy) proposes a few
hundred candidates per request and the engine re-ranks only those with
exact scores.  The quality/latency trade is a per-request dial
(``mode="exact"|"ann"``, ``n_probe``, ``candidate_multiplier``) that
the property-test suite pins: exact mode stays bit-identical, ANN
candidates are deterministic and prefix-nested, so measured recall@k is
monotone in ``n_probe``.

The trained index serializes to named arrays (``ann_*``) that travel
through the :class:`~repro.parallel.shm.SharedArena` (zero-copy shard
attach) and the cluster snapshot frames; see :mod:`repro.retrieval.index`
for the layout.
"""

from repro.retrieval.index import (
    ANN_KIND_LSH,
    ANN_KIND_PQ,
    ANN_MAGIC,
    ANN_PREFIX,
    ANN_VERSION,
    ANNIndex,
    HEADER_STRUCT,
    RetrievalConfig,
)

__all__ = [
    "ANNIndex",
    "RetrievalConfig",
    "ANN_MAGIC",
    "ANN_VERSION",
    "ANN_KIND_PQ",
    "ANN_KIND_LSH",
    "ANN_PREFIX",
    "HEADER_STRUCT",
]
