"""Training loop for every model of the study.

The loop follows the paper's protocol (Sections 4.4 and 5.3): sliding
windows of ``n_h + n_p`` items form the training instances, each positive
target is paired with one sampled negative, the BPR loss is minimized with
Adam + weight decay, and the model is validated every ``eval_every``
epochs; the parameters of the best validation epoch are kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.autograd import Adam, clip_grad_norm, embedding_index_check, sparse_embedding_grads
from repro.data.batching import BatchIterator
from repro.data.seen import SeenIndex
from repro.data.windows import build_training_instances
from repro.models.base import SequentialRecommender
from repro.models.nonparametric import NonParametricRecommender
from repro.training.config import TrainingConfig
from repro.training.early_stopping import EarlyStopping
from repro.training.losses import get_loss
from repro.training.negative_sampling import NegativeSampler
from repro.training.schedules import LearningRateSchedule

__all__ = ["Trainer", "TrainingResult"]


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    epoch_losses: list[float] = field(default_factory=list)
    validation_history: list[tuple[int, float]] = field(default_factory=list)
    best_validation: float = float("-inf")
    best_epoch: int = -1
    train_seconds: float = 0.0
    #: Wall-clock seconds of each optimization epoch (excludes validation);
    #: ``bench/``'s ``train_epoch`` workload reads its timings from this.
    epoch_seconds: list[float] = field(default_factory=list)
    #: Sliding-window instances the run trained on (0 for count-based models).
    num_instances: int = 0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Train a :class:`SequentialRecommender` with BPR + Adam.

    Parameters
    ----------
    model:
        Any model implementing the shared interface.  Count-based models
        (:class:`NonParametricRecommender` sub-classes such as POP,
        ItemKNN or MarkovChain) are special-cased: they are fitted from
        the training sequences instead of running the BPR loop.
    config:
        Optimization hyperparameters.
    validation_fn:
        Optional callable ``model -> float`` (higher is better), evaluated
        every ``config.eval_every`` epochs; the paper uses Recall@10 on the
        validation split.
    """

    def __init__(self, model: SequentialRecommender,
                 config: TrainingConfig | None = None,
                 validation_fn: Callable[[SequentialRecommender], float] | None = None,
                 schedule: LearningRateSchedule | None = None,
                 early_stopping: EarlyStopping | None = None):
        self.model = model
        self.config = config or TrainingConfig()
        self.validation_fn = validation_fn
        self.schedule = schedule
        self.early_stopping = early_stopping
        self.rng = np.random.default_rng(self.config.seed)

        loss_name = self.config.loss or getattr(model, "recommended_loss", None) or "bpr"
        self.loss_fn = get_loss(loss_name)
        self.loss_name = loss_name
        self.num_negatives = (
            self.config.num_negatives
            or getattr(model, "recommended_num_negatives", None)
            or 1
        )

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def fit(self, train_sequences: list[list[int]]) -> TrainingResult:
        """Train the model on per-user ``train_sequences``.

        Returns the loss/validation history; the model is left holding the
        best-on-validation parameters when ``config.keep_best`` is set and
        a validation function was provided.
        """
        start = time.perf_counter()
        result = TrainingResult()

        if isinstance(self.model, NonParametricRecommender):
            self.model.fit_counts(train_sequences)
            result.train_seconds = time.perf_counter() - start
            return result

        if self.config.dtype is not None:
            # The fast path trains in float32; benchmark tables that need
            # bit-parity with the seed runs pin dtype="float64".
            self.model.astype(self.config.dtype)

        instances = build_training_instances(
            train_sequences, num_items=self.model.num_items,
            n_h=self.model.input_length, n_p=self.config.n_p,
        )
        if len(instances) == 0:
            raise ValueError("no training instances could be built from the sequences")
        result.num_instances = len(instances)
        # Index ranges are validated once here, so the per-lookup check in
        # Embedding.forward can be skipped inside the epoch loop (the
        # sampler only ever draws from [0, num_items)).
        self._validate_instances(instances)

        seen_index = SeenIndex.from_histories(train_sequences, self.model.num_items)
        sampler = NegativeSampler(self.model.num_items, seen_index=seen_index,
                                  rng=self.rng,
                                  vectorized=self.config.vectorized_sampling)
        iterator = BatchIterator(instances, batch_size=self.config.batch_size,
                                 rng=self.rng)
        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate,
                         weight_decay=self.config.weight_decay)

        best_state = self._fit_epochs(result, optimizer, iterator, sampler)

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        result.train_seconds = time.perf_counter() - start
        return result

    def _fit_epochs(self, result: TrainingResult, optimizer: Adam,
                    iterator: BatchIterator, sampler: NegativeSampler):
        best_state = None
        self.model.train()
        for epoch in range(1, self.config.num_epochs + 1):
            if self.schedule is not None:
                optimizer.lr = self.schedule(epoch)
            batches = self._sampled_batches(iterator, sampler)
            epoch_start = time.perf_counter()
            epoch_loss = self._run_epoch(batches, optimizer)
            result.epoch_seconds.append(time.perf_counter() - epoch_start)
            result.epoch_losses.append(epoch_loss)
            if self.config.verbose:
                print(f"epoch {epoch:4d}  loss {epoch_loss:.4f}")

            should_validate = (
                self.validation_fn is not None
                and (epoch % self.config.eval_every == 0 or epoch == self.config.num_epochs)
            )
            if should_validate:
                self.model.eval()
                score = float(self.validation_fn(self.model))
                self.model.train()
                result.validation_history.append((epoch, score))
                if score > result.best_validation:
                    result.best_validation = score
                    result.best_epoch = epoch
                    if self.config.keep_best:
                        best_state = self.model.state_dict()
                if self.config.verbose:
                    print(f"epoch {epoch:4d}  validation {score:.4f}")
                if self.early_stopping is not None and self.early_stopping.update(score):
                    if self.config.verbose:
                        print(f"early stopping after epoch {epoch}")
                    break
        return best_state

    # ------------------------------------------------------------------ #
    # One epoch
    # ------------------------------------------------------------------ #
    def _validate_instances(self, instances) -> None:
        """One-time range validation of the training index arrays."""
        pad = instances.pad_id
        for name, array in (("inputs", instances.inputs), ("targets", instances.targets)):
            if array.size and (array.min() < 0 or array.max() > pad):
                raise ValueError(f"training {name} contain ids outside [0, {pad}]")
        if instances.users.size and (
                instances.users.min() < 0
                or instances.users.max() >= self.model.num_users):
            raise ValueError(
                f"training users outside [0, {self.model.num_users})"
            )

    def _sampled_batches(self, iterator: BatchIterator, sampler: NegativeSampler):
        """The batch stream: draw negatives batch by batch."""
        for batch in iterator:
            batch_size, num_targets = batch.targets.shape
            batch.negatives = sampler.sample(
                batch.users, (batch_size, num_targets * self.num_negatives)
            )
            yield batch

    def _run_epoch(self, batches, optimizer: Adam) -> float:
        with embedding_index_check(self.config.validate_indices), \
                sparse_embedding_grads(self.config.sparse_embedding_grad):
            return self._run_epoch_inner(batches, optimizer)

    def _run_epoch_inner(self, batches, optimizer: Adam) -> float:
        total_loss = 0.0
        total_batches = 0
        for batch in batches:
            batch_size, num_targets = batch.targets.shape
            negatives = batch.negatives
            mask = batch.target_mask()
            # Padded targets point at the pad row (zero embedding); they are
            # excluded from the loss by the mask.
            # One sequence forward + one candidate gather for both score
            # sets (see SequentialRecommender.score_item_pairs).
            positive_scores, negative_scores = self.model.score_item_pairs(
                batch.users, batch.inputs, batch.targets, negatives)
            if self.num_negatives > 1:
                negative_scores = negative_scores.reshape(
                    batch_size, num_targets, self.num_negatives
                )
            loss = self.loss_fn(positive_scores, negative_scores, mask)

            optimizer.zero_grad()
            loss.backward()
            if self.config.max_grad_norm is not None:
                clip_grad_norm(self.model.parameters(), self.config.max_grad_norm)
            optimizer.step()
            if hasattr(self.model, "after_step"):
                self.model.after_step()

            total_loss += float(loss.data)
            total_batches += 1
        return total_loss / max(total_batches, 1)
