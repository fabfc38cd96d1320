"""Overall-performance experiment runner (paper Tables 3-8, reused by 9, 14, Fig. 4).

One *overall run* trains a set of methods on one (dataset, setting) pair
and evaluates them on the test split, mirroring the paper's protocol:
models are trained on train+validation with the selected hyperparameters
and evaluated on all test items of every user (Section 5.3.1).

Runs are cached per process keyed by their full configuration, so the
Recall table, the NDCG table, the improvement summary and the run-time
table of one setting all share a single training pass per method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.benchmarks import load_benchmark
from repro.data.splits import DatasetSplit, split_setting
from repro.evaluation.evaluator import EvaluationResult, RankingEvaluator
from repro.evaluation.timing import InferenceTiming, measure_inference_time
from repro.experiments.configs import default_model_hyperparameters, default_training_config
from repro.models.base import SequentialRecommender
from repro.models.registry import PAPER_METHODS, create_model
from repro.training.trainer import Trainer, TrainingResult

__all__ = ["MethodRun", "OverallResult", "run_overall_experiment", "clear_cache"]


@dataclass
class MethodRun:
    """Everything produced by training and evaluating one method once."""

    method: str
    evaluation: EvaluationResult
    timing: InferenceTiming
    training: TrainingResult
    model: SequentialRecommender


@dataclass
class OverallResult:
    """All method runs of one (dataset, setting) pair."""

    dataset: str
    setting: str
    runs: dict[str, MethodRun] = field(default_factory=dict)

    def metric(self, method: str, metric: str) -> float:
        """One metric of one method, e.g. ``metric("HAMs_m", "Recall@10")``."""
        return self.runs[method].evaluation.metrics[metric]

    def metric_row(self, metric: str) -> dict[str, float]:
        """{method: value} for one metric across all methods."""
        return {method: run.evaluation.metrics[metric] for method, run in self.runs.items()}

    def per_user(self, method: str, metric: str) -> np.ndarray:
        """Per-user metric values (for significance tests)."""
        return self.runs[method].evaluation.per_user[metric]

    def best_method(self, metric: str) -> str:
        """The method with the highest value of ``metric``."""
        row = self.metric_row(metric)
        return max(row, key=row.get)


#: Scoring passes per inference timing; the fastest is reported (Table 14).
TIMING_REPEATS = 5

_CACHE: dict[tuple, OverallResult] = {}


def clear_cache() -> None:
    """Drop all cached overall runs (used by tests)."""
    _CACHE.clear()


def _train_and_evaluate(method: str, split: DatasetSplit, dataset_key: str,
                        setting: str, epochs: int | None, seed: int) -> MethodRun:
    """Train one method on train+valid and evaluate it on the test split."""
    rng = np.random.default_rng(seed)
    hyperparameters = default_model_hyperparameters(method, dataset_key, setting)
    model = create_model(method, num_users=split.num_users, num_items=split.num_items,
                         rng=rng, **hyperparameters)
    config = default_training_config(num_epochs=epochs, dataset=dataset_key,
                                     setting=setting, seed=seed)
    trainer = Trainer(model, config)
    training = trainer.fit(split.train_plus_valid())

    evaluator = RankingEvaluator(split, ks=(5, 10), mode="test")
    evaluation = evaluator.evaluate(model)
    timing = measure_inference_time(model, evaluator, repeats=TIMING_REPEATS,
                                    model_name=method)
    return MethodRun(method=method, evaluation=evaluation, timing=timing,
                     training=training, model=model)


def run_overall_experiment(dataset: str, setting: str,
                           methods: tuple[str, ...] = PAPER_METHODS,
                           scale: str | None = None,
                           epochs: int | None = None,
                           seed: int = 0) -> OverallResult:
    """Train and evaluate ``methods`` on one dataset under one setting.

    Parameters
    ----------
    dataset:
        Benchmark name (``cds`` ... ``ml-1m``).
    setting:
        ``80-20-CUT``, ``80-3-CUT`` or ``3-LOS``.
    methods:
        Method names from the model registry; defaults to the seven
        methods of the paper's comparison tables.
    scale:
        Synthetic-analogue scale profile (defaults to ``REPRO_SCALE``).
    epochs:
        Epoch budget per method (defaults to ``REPRO_BENCH_EPOCHS`` or 12).
    seed:
        Seed for model initialization, shuffling and negative sampling.
    """
    key = (dataset, setting, tuple(methods), scale, epochs, seed)
    if key in _CACHE:
        return _CACHE[key]

    data = load_benchmark(dataset, scale=scale)
    split = split_setting(data, setting)
    result = OverallResult(dataset=dataset, setting=setting)
    for method in methods:
        result.runs[method] = _train_and_evaluate(
            method, split, dataset_key=dataset, setting=setting,
            epochs=epochs, seed=seed,
        )
    _CACHE[key] = result
    return result
