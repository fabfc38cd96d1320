"""Training: ranking objectives, negative sampling, trainer and grid search.

The paper optimizes every model with the Bayesian Personalized Ranking
objective (Eq. 9): for each truly purchased item in a training window, one
non-purchased item is sampled and the model is trained to score the
purchased item higher.  Adam (lr 1e-3) with an L2 regularization factor of
1e-3 on all embeddings is used throughout.

Extensions beyond the paper's protocol — the session-based ranking losses
(BPR-max, TOP1, TOP1-max, sampled softmax), learning-rate schedules, early
stopping and checkpointing — live in their own modules and are opt-in;
the defaults reproduce the paper's setup exactly.
"""

from repro.training.bpr import bpr_loss
from repro.training.checkpoint import (CheckpointCorruptError, load_checkpoint,
                                        open_checkpoint, read_metadata,
                                        save_checkpoint)
from repro.training.config import TrainingConfig
from repro.training.early_stopping import EarlyStopping
from repro.training.grid_search import GridSearch, GridSearchResult, parameter_grid
from repro.training.losses import (
    LOSS_FUNCTIONS,
    bpr_max_loss,
    get_loss,
    hinge_loss,
    sampled_softmax_loss,
    top1_loss,
    top1_max_loss,
)
from repro.training.negative_sampling import NegativeSampler
from repro.training.schedules import (
    ConstantSchedule,
    CosineDecaySchedule,
    ExponentialDecaySchedule,
    LearningRateSchedule,
    StepDecaySchedule,
    WarmupSchedule,
)
from repro.training.trainer import Trainer, TrainingResult

__all__ = [
    "bpr_loss",
    "bpr_max_loss",
    "top1_loss",
    "top1_max_loss",
    "sampled_softmax_loss",
    "hinge_loss",
    "LOSS_FUNCTIONS",
    "get_loss",
    "TrainingConfig",
    "NegativeSampler",
    "Trainer",
    "TrainingResult",
    "GridSearch",
    "GridSearchResult",
    "parameter_grid",
    "EarlyStopping",
    "LearningRateSchedule",
    "ConstantSchedule",
    "StepDecaySchedule",
    "ExponentialDecaySchedule",
    "CosineDecaySchedule",
    "WarmupSchedule",
    "save_checkpoint",
    "load_checkpoint",
    "open_checkpoint",
    "read_metadata",
    "CheckpointCorruptError",
]
