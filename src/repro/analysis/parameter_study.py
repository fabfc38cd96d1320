"""Parameter studies (paper Tables 10-12 and Appendix Table A1).

The paper fixes the best configuration of HAMs_m found on the validation
set and varies one hyperparameter at a time, reporting test Recall@5/10.
The same procedure is applied to SASRec on Comics in 3-LOS (Table A1) to
demonstrate its parameter sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.benchmarks import load_benchmark
from repro.data.splits import split_setting
from repro.evaluation.evaluator import RankingEvaluator
from repro.experiments.configs import default_model_hyperparameters, default_training_config
from repro.models.registry import create_model
from repro.training.trainer import Trainer

__all__ = ["ParameterStudyRow", "run_parameter_study", "run_sasrec_sensitivity",
           "DEFAULT_HAM_SWEEP", "DEFAULT_SASREC_SWEEP"]


#: One-at-a-time sweep for HAMs_m at laptop scale.  The paper sweeps
#: d in {200..800}; the analogues have only a few hundred items, so the
#: equivalent sweep covers {16..64}.
DEFAULT_HAM_SWEEP: dict[str, list[int]] = {
    "embedding_dim": [16, 32, 48, 64],
    "n_h": [3, 4, 5, 6, 7],
    "n_l": [0, 1, 2, 3],
    "n_p": [2, 3, 4, 5],
    "synergy_order": [1, 2, 3, 4],
}

#: One-at-a-time sweep for SASRec (Table A1 analogue).
DEFAULT_SASREC_SWEEP: dict[str, list[int]] = {
    "embedding_dim": [16, 32, 64],
    "sequence_length": [5, 10, 15],
    "num_heads": [1, 2, 4],
}


@dataclass(frozen=True)
class ParameterStudyRow:
    """Result of one configuration of the sweep."""

    parameter: str
    value: int
    config: dict
    recall_at_5: float
    recall_at_10: float

    def as_row(self) -> dict:
        row = {"parameter": self.parameter, "value": self.value}
        row.update({key: val for key, val in self.config.items()})
        row["Recall@5"] = self.recall_at_5
        row["Recall@10"] = self.recall_at_10
        return row


def _evaluate_configuration(method: str, config: dict, split, dataset: str,
                            setting: str, epochs: int | None, seed: int,
                            n_p: int | None = None) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    model = create_model(method, num_users=split.num_users,
                         num_items=split.num_items, rng=rng, **config)
    training_config = default_training_config(num_epochs=epochs, dataset=dataset,
                                               setting=setting, seed=seed)
    if n_p is not None:
        training_config = training_config.with_overrides(n_p=n_p)
    Trainer(model, training_config).fit(split.train_plus_valid())
    metrics = RankingEvaluator(split, ks=(5, 10), mode="test").evaluate(model).metrics
    return metrics["Recall@5"], metrics["Recall@10"]


def run_parameter_study(dataset: str, setting: str = "80-20-CUT",
                        method: str = "HAMs_m",
                        sweep: dict[str, list[int]] | None = None,
                        scale: str | None = None, epochs: int | None = None,
                        seed: int = 0) -> list[ParameterStudyRow]:
    """One-at-a-time parameter sweep of ``method`` on ``dataset``.

    ``n_p`` (a training parameter rather than a model parameter) is handled
    specially: it overrides the trainer's window-target count.
    """
    sweep = sweep or DEFAULT_HAM_SWEEP
    data = load_benchmark(dataset, scale=scale)
    split = split_setting(data, setting)
    base = default_model_hyperparameters(method, dataset, setting)
    default_n_p = default_training_config(num_epochs=epochs, dataset=dataset,
                                          setting=setting, seed=seed).n_p
    # A one-at-a-time sweep revisits the base configuration once per
    # parameter.  Training and evaluation are deterministic given the seed,
    # so each distinct (configuration, n_p) is run once and its row reused.
    measured: dict[tuple, tuple[float, float]] = {}

    rows: list[ParameterStudyRow] = []
    for parameter, values in sweep.items():
        for value in values:
            config = dict(base)
            n_p = None
            if parameter == "n_p":
                n_p = int(value)
            else:
                config[parameter] = value
                if parameter == "n_h":
                    # keep the constraints n_l <= n_h and p <= n_h satisfied
                    config["n_l"] = min(config.get("n_l", 1), value)
                    if "synergy_order" in config:
                        config["synergy_order"] = min(config["synergy_order"], value)
                if parameter == "synergy_order":
                    config["synergy_order"] = min(value, config.get("n_h", value))
                if parameter == "num_heads":
                    dim = config.get("embedding_dim", 32)
                    if dim % value != 0:
                        config["embedding_dim"] = (dim // value + 1) * value
            key = (tuple(sorted(config.items())), default_n_p if n_p is None else n_p)
            if key not in measured:
                measured[key] = _evaluate_configuration(
                    method, config, split, dataset, setting, epochs, seed, n_p=n_p,
                )
            recall5, recall10 = measured[key]
            rows.append(ParameterStudyRow(
                parameter=parameter, value=int(value), config=config,
                recall_at_5=recall5, recall_at_10=recall10,
            ))
    return rows


def run_sasrec_sensitivity(dataset: str = "comics", setting: str = "3-LOS",
                           sweep: dict[str, list[int]] | None = None,
                           scale: str | None = None, epochs: int | None = None,
                           seed: int = 0) -> list[ParameterStudyRow]:
    """SASRec one-at-a-time sweep (paper Table A1 analogue)."""
    return run_parameter_study(
        dataset=dataset, setting=setting, method="SASRec",
        sweep=sweep or DEFAULT_SASREC_SWEEP, scale=scale, epochs=epochs, seed=seed,
    )
