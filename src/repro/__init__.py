"""repro — reproduction of "HAM: Hybrid Associations Models for Sequential Recommendation".

The package is organized as:

``repro.autograd``
    NumPy reverse-mode autodiff substrate (stand-in for PyTorch).
``repro.data``
    Interaction datasets, preprocessing, experimental-setting splits,
    sliding-window training instances and synthetic benchmark analogues.
``repro.models``
    The HAM model family (the paper's contribution) and the Caser, SASRec
    and HGN baselines, plus simple reference recommenders.
``repro.training``
    BPR objective, negative sampling, the training loop and grid search.
``repro.evaluation``
    Recall@k / NDCG@k, the ranking evaluator, significance tests and
    run-time measurement.
``repro.analysis``
    Parameter studies, ablations, improvement summaries, item-frequency
    and gating-weight analyses (paper Sections 6.5-7).
``repro.experiments``
    Registry mapping every paper table/figure to a runnable experiment.
``repro.serving``
    The batched scoring engine, top-k recommendation serving and
    per-factor HAM score explanations.
"""

from repro.serving import ScoringEngine, explain_ham_score

__version__ = "1.0.0"

__all__ = [
    "autograd",
    "data",
    "models",
    "training",
    "evaluation",
    "analysis",
    "experiments",
    "serving",
    "ScoringEngine",
    "explain_ham_score",
]
