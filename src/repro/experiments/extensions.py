"""Extension experiments beyond the paper's tables and figures.

These entries register themselves in the same registry as the paper's
experiments (``repro.experiments.registry.EXPERIMENTS``), so the CLI and
the benchmark suite drive them identically:

* ``ext-synergy``   — the synergy aggregation design choice of
  Section 4.2.2 (sum+mean vs the alternatives the paper says it tried).
* ``ext-baselines`` — HAM against the literature-review baselines the
  paper only compares with transitively (GRU4Rec, NARM, STAMP, NextItRec,
  Fossil, count-based references).
* ``ext-settings``  — Section 7.3's argument made measurable: the same
  model under all three settings plus NDCG sliced by test-set size.
* ``ext-beyond``    — beyond-accuracy profile (coverage, Gini, popularity
  bias, novelty) of HAM and the strongest baselines.
"""

from __future__ import annotations

from repro.data.benchmarks import load_benchmark
from repro.data.splits import split_setting
from repro.experiments.overall import run_overall_experiment
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.experiments.reporting import format_table

__all__ = [
    "EXTENSION_EXPERIMENT_IDS",
    "EXTENSION_BASELINE_METHODS",
]

#: Methods compared by the ``ext-baselines`` experiment (paper's best HAM
#: variant and strongest baseline next to the literature-review methods).
EXTENSION_BASELINE_METHODS = (
    "HAMs_m", "HGN", "GRU4Rec", "GRU4Rec++", "NARM", "STAMP", "NextItRec",
    "Fossil", "FPMC", "MarkovChain", "ItemKNN", "POP",
)


# --------------------------------------------------------------------------- #
# ext-synergy — aggregation operators of the synergy term
# --------------------------------------------------------------------------- #
def _run_ext_synergy(dataset: str = "cds", scale: str | None = None,
                     epochs: int | None = None, seed: int = 0, **_) -> dict:
    from repro.analysis.synergy_study import run_synergy_aggregation_study

    rows = [entry.as_row()
            for entry in run_synergy_aggregation_study(dataset, scale=scale,
                                                       epochs=epochs, seed=seed)]
    text = format_table(
        rows,
        title=(f"Extension — synergy aggregation operators of HAMs_m on {dataset} "
               "(paper's choice: inner=sum, outer=mean)"),
    )
    return {"rows": rows, "text": text}


# --------------------------------------------------------------------------- #
# ext-baselines — literature-review baselines
# --------------------------------------------------------------------------- #
def _run_ext_baselines(dataset: str = "cds", setting: str = "80-20-CUT",
                       methods: tuple[str, ...] = EXTENSION_BASELINE_METHODS,
                       scale: str | None = None, epochs: int | None = None,
                       seed: int = 0, **_) -> dict:
    result = run_overall_experiment(dataset, setting, methods=methods,
                                    scale=scale, epochs=epochs, seed=seed)
    rows = []
    for method in methods:
        run = result.runs[method]
        rows.append({
            "method": method,
            "Recall@5": round(run.evaluation.metrics["Recall@5"], 4),
            "Recall@10": round(run.evaluation.metrics["Recall@10"], 4),
            "NDCG@5": round(run.evaluation.metrics["NDCG@5"], 4),
            "NDCG@10": round(run.evaluation.metrics["NDCG@10"], 4),
        })
    text = format_table(
        rows,
        title=(f"Extension — HAMs_m vs literature-review baselines on {dataset} "
               f"in {setting}"),
    )
    return {"rows": rows, "text": text}


# --------------------------------------------------------------------------- #
# ext-settings — experimental-setting comparison (Section 7.3)
# --------------------------------------------------------------------------- #
def _run_ext_settings(dataset: str = "cds", method: str = "HAMs_m",
                      scale: str | None = None, epochs: int | None = None,
                      seed: int = 0, **_) -> dict:
    from repro.analysis.settings_comparison import compare_settings, metric_by_test_set_size
    from repro.evaluation.evaluator import RankingEvaluator
    from repro.experiments.configs import default_model_hyperparameters, default_training_config
    from repro.models.registry import create_model
    from repro.training.trainer import Trainer
    import numpy as np

    data = load_benchmark(dataset, scale=scale)
    setting_rows = [row.as_row()
                    for row in compare_settings(data, method=method, dataset_key=dataset,
                                                epochs=epochs, seed=seed)]

    # NDCG inflation by test-set size under 80-20-CUT.
    split = split_setting(data, "80-20-CUT")
    rng = np.random.default_rng(seed)
    hyperparameters = default_model_hyperparameters(method, dataset, "80-20-CUT")
    model = create_model(method, split.num_users, split.num_items, rng=rng, **hyperparameters)
    config = default_training_config(num_epochs=epochs, dataset=dataset,
                                     setting="80-20-CUT", seed=seed)
    Trainer(model, config).fit(split.train_plus_valid())
    evaluation = RankingEvaluator(split, ks=(10,), mode="test").evaluate(model)
    bucket_rows = [bucket.as_row()
                   for bucket in metric_by_test_set_size(split, evaluation, metric="NDCG@10")]

    text = "\n\n".join([
        format_table(setting_rows,
                     title=f"Extension — {method} on {dataset} under the three settings"),
        format_table(bucket_rows,
                     title="Extension — NDCG@10 by test-set size in 80-20-CUT "
                           "(Section 7.3: larger test sets inflate NDCG)"),
    ])
    return {"rows": setting_rows, "bucket_rows": bucket_rows, "text": text}


# --------------------------------------------------------------------------- #
# ext-beyond — beyond-accuracy profile
# --------------------------------------------------------------------------- #
def _run_ext_beyond(dataset: str = "cds", setting: str = "80-20-CUT",
                    methods: tuple[str, ...] = ("HAMs_m", "HGN", "SASRec", "POP"),
                    scale: str | None = None, epochs: int | None = None,
                    seed: int = 0, **_) -> dict:
    from repro.evaluation.coverage import beyond_accuracy_report

    result = run_overall_experiment(dataset, setting, methods=methods,
                                    scale=scale, epochs=epochs, seed=seed)
    data = load_benchmark(dataset, scale=scale)
    split = split_setting(data, setting)
    rows = []
    for method in methods:
        report = beyond_accuracy_report(result.runs[method].model, split, k=10)
        row = {"method": method,
               "Recall@10": round(result.metric(method, "Recall@10"), 4)}
        row.update({name: round(value, 4) for name, value in report.as_row().items()})
        rows.append(row)
    text = format_table(
        rows,
        title=(f"Extension — beyond-accuracy profile (top-10 lists) on {dataset} "
               f"in {setting}"),
    )
    return {"rows": rows, "text": text}


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #
EXTENSION_EXPERIMENT_IDS = ("ext-synergy", "ext-baselines", "ext-settings", "ext-beyond")

EXPERIMENTS.update({
    "ext-synergy": ExperimentSpec(
        "ext-synergy", "Synergy aggregation operators (extension)",
        "Section 4.2.2 / DESIGN.md 3b", _run_ext_synergy),
    "ext-baselines": ExperimentSpec(
        "ext-baselines", "Literature-review baselines (extension)",
        "Section 2 / DESIGN.md 3b", _run_ext_baselines),
    "ext-settings": ExperimentSpec(
        "ext-settings", "Experimental-setting comparison (extension)",
        "Section 7.3", _run_ext_settings),
    "ext-beyond": ExperimentSpec(
        "ext-beyond", "Beyond-accuracy profile (extension)",
        "Section 7.2 / DESIGN.md 3b", _run_ext_beyond),
})
