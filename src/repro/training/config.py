"""Training configuration.

Defaults follow the paper's Appendix B: Adam with learning rate 1e-3 and
L2 regularization factor 1e-3, validation every 20 epochs with model
selection on Recall@10.  The epoch budget is configurable because the
synthetic analogues are much smaller than the paper's datasets and
converge in far fewer epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["TrainingConfig"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the optimization loop.

    Parameters
    ----------
    num_epochs:
        Total training epochs.
    batch_size:
        Sliding-window instances per mini-batch.
    learning_rate / weight_decay:
        Adam step size and L2 regularization factor (paper: 1e-3 / 1e-3).
    n_p:
        Number of target items per training window (the paper's ``n_p``).
    eval_every:
        Validate every this many epochs (paper: 20); ignored when no
        validation function is supplied to the trainer.
    keep_best:
        Restore the parameters of the best validation epoch after training.
    seed:
        Seed of the trainer's random generator (shuffling, negatives).
    verbose:
        Print one line per epoch/validation.
    loss:
        Name of the ranking loss (see
        :data:`repro.training.losses.LOSS_FUNCTIONS`).  ``None`` uses the
        model's ``recommended_loss`` attribute when present, otherwise the
        paper's BPR loss.
    num_negatives:
        Sampled negatives per positive.  ``None`` uses the model's
        ``recommended_num_negatives`` when present, otherwise 1 (the
        paper's setting).
    max_grad_norm:
        Optional global gradient-norm clipping threshold.
    dtype:
        Compute dtype of the training run (``"float32"`` — the default
        fast path — or ``"float64"``).  The trainer casts the model's
        parameters before the first epoch; ``None`` leaves the model's
        dtype untouched (seed behaviour: ``float64`` at construction).
        Pin ``"float64"`` for bit-parity with the seed training runs.
    sparse_embedding_grad:
        Record embedding-lookup gradients as indexed rows and take the
        row-wise ("lazy") optimizer path instead of materializing a dense
        ``(num_items, d)`` gradient per lookup.  The legacy dense path
        (``False``) is bit-identical to the seed engine.
    vectorized_sampling:
        Use the batched negative sampler (``False`` selects the legacy
        per-element Python rejection loop).
    validate_indices:
        Re-validate embedding index ranges on *every* lookup inside the
        epoch loop (debug flag).  The trainer always validates the
        training instances and sampler output once up front, so the
        per-lookup check is redundant and off by default.
    """

    num_epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    n_p: int = 3
    eval_every: int = 10
    keep_best: bool = True
    seed: int = 0
    verbose: bool = False
    loss: str | None = None
    num_negatives: int | None = None
    max_grad_norm: float | None = None
    dtype: str | None = "float32"
    sparse_embedding_grad: bool = True
    vectorized_sampling: bool = True
    validate_indices: bool = False

    def __post_init__(self):
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.n_p < 1:
            raise ValueError("n_p must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be positive")
        if self.num_negatives is not None and self.num_negatives < 1:
            raise ValueError("num_negatives must be positive")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.dtype is not None and str(self.dtype) not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32', 'float64' or None")

    def with_overrides(self, **overrides) -> "TrainingConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **overrides)
