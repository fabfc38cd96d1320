"""High-level recommendation serving: the batched scoring engine,
the online gateway and HAM score explanations.

The paper motivates HAM through its run-time behaviour (Table 14): at
serving time a recommendation request has to be answered in microseconds
per user.  This package is the layer a downstream application would use
on top of a trained model:

* :class:`~repro.serving.engine.ScoringEngine` — a frozen snapshot of a
  trained model (candidate embedding table, item biases, per-user padded
  histories and cached representations, all materialized once under
  ``no_grad``) that answers ``top_k_scored`` requests (and the
  ``top_k`` / ``recommend_batch`` verbs :class:`~repro.serving.engine.RankingVerbs`
  derives from it) with zero per-request re-embedding, plus
  incremental ``observe(user, item)`` updates for session-style traffic.
* :func:`~repro.serving.explain.explain_ham_score` /
  :func:`~repro.serving.explain.explain_ham_scores` — per-factor
  decompositions of HAM's linear score (Eq. 7/8).
* :class:`~repro.serving.gateway.ServingGateway` — the online request
  front-end: answers a hot user's repeat request inside ``submit()``
  from a :class:`~repro.serving.cache.TopKCache` of finished
  ``(ids, scores)`` answers (LRU + TTL, layered over the engine's
  representation cache) and coalesces the misses into engine
  micro-batches (bounded queue, work-conserving flush: whatever is
  queued, up to ``max_batch``, is served by one ``top_k_scored`` call
  the moment the engine is free); results stay bit-identical to direct
  engine calls (``repro-ham serve --gateway``).  Admission control
  sheds load with :class:`~repro.serving.gateway.GatewayOverloadedError`
  at the ``max_queue`` watermark, and per-request deadlines propagate
  into the engine (see ``docs/robustness.md``).
* :func:`~repro.serving.deploy.engine_from_checkpoint` — rebuild a
  trained model from a ``.npz`` checkpoint and serve it (serially or
  sharded over worker processes) without the trainer stack
  (``repro-ham serve --checkpoint``).
"""

from repro.serving.engine import Recommendation, ScoringEngine
from repro.serving.cache import CacheStats, TopKCache
from repro.serving.gateway import (
    GatewayFuture,
    GatewayOverloadedError,
    GatewayStats,
    ServingGateway,
)
from repro.serving.deploy import engine_from_checkpoint, model_from_checkpoint
from repro.serving.explain import (
    HAMScoreExplanation,
    explain_ham_score,
    explain_ham_scores,
)

__all__ = [
    "Recommendation",
    "ScoringEngine",
    "CacheStats",
    "TopKCache",
    "GatewayFuture",
    "GatewayOverloadedError",
    "GatewayStats",
    "ServingGateway",
    "engine_from_checkpoint",
    "model_from_checkpoint",
    "HAMScoreExplanation",
    "explain_ham_score",
    "explain_ham_scores",
]
