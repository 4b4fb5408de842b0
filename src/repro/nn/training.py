"""Training loop for the learned-index MLPs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.mlp import MLPRegressor
from repro.nn.optimizers import Optimizer, optimizer_by_name

__all__ = ["TrainingConfig", "TrainingResult", "train_regressor"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one model-training run.

    The paper trains each MLP for 500 epochs with learning rate 0.01 using
    SGD.  We default to Adam with fewer epochs because every epoch is a
    NumPy forward and backward pass over the whole training set: on one
    BLAS thread of a 2-core Xeon host a full-batch epoch costs ~9.6 ms for
    a 20,000-point root model with 33 hidden units and ~0.1-0.2 ms for a
    leaf model of 500-900 points, so a 20,000-point RSMI build trains for
    ~2 s at 150 epochs and would take about 3x that at 500.  The paper's
    settings remain valid inputs.
    """

    epochs: int = 150
    learning_rate: float = 0.01
    optimizer: str = "adam"
    batch_size: int = 0  # 0 means full batch
    shuffle: bool = True
    early_stop_patience: int = 25
    early_stop_min_delta: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")

    def build_optimizer(self) -> Optimizer:
        return optimizer_by_name(self.optimizer, self.learning_rate)


@dataclass
class TrainingResult:
    """Summary of a completed training run."""

    epochs_run: int
    final_loss: float
    loss_history: list[float] = field(default_factory=list)
    stopped_early: bool = False


def train_regressor(
    model: MLPRegressor,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: TrainingConfig | None = None,
    loss: Loss | None = None,
) -> TrainingResult:
    """Train ``model`` to regress ``targets`` from ``inputs``.

    Parameters
    ----------
    model:
        The regressor to train in place.
    inputs:
        Array of shape ``(n, d)`` of (already normalised) features.
    targets:
        Array of shape ``(n,)`` of (already normalised) regression targets.
    config:
        Training hyper-parameters; defaults to :class:`TrainingConfig`.
    loss:
        Training loss; defaults to mean squared error (the paper's L2 loss).
    """
    config = config if config is not None else TrainingConfig()
    loss = loss if loss is not None else MeanSquaredError()
    # row-major once: the trained bits depend on the layout BLAS is given
    inputs = np.ascontiguousarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if inputs.ndim != 2:
        raise ValueError("inputs must be 2-D")
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets must have the same number of rows")
    if inputs.shape[0] == 0:
        raise ValueError("cannot train on an empty data set")

    optimizer = config.build_optimizer()
    rng = np.random.default_rng(config.seed)
    n_samples = inputs.shape[0]
    batch_size = config.batch_size if config.batch_size > 0 else n_samples
    full_batch = batch_size >= n_samples

    history: list[float] = []
    best_loss = float("inf")
    epochs_since_improvement = 0
    stopped_early = False

    for epoch in range(config.epochs):
        if full_batch:
            epoch_loss = model.train_batch(inputs, targets, optimizer, loss)
        else:
            order = rng.permutation(n_samples) if config.shuffle else None
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_samples, batch_size):
                if order is None:
                    batch = slice(start, start + batch_size)
                else:
                    batch = order[start : start + batch_size]
                epoch_loss += model.train_batch(inputs[batch], targets[batch], optimizer, loss)
                n_batches += 1
            epoch_loss /= n_batches
        history.append(epoch_loss)

        if epoch_loss < best_loss - config.early_stop_min_delta:
            best_loss = epoch_loss
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if (
                config.early_stop_patience
                and epochs_since_improvement >= config.early_stop_patience
            ):
                stopped_early = True
                break

    model.drop_training_state()
    return TrainingResult(
        epochs_run=len(history),
        final_loss=history[-1],
        loss_history=history,
        stopped_early=stopped_early,
    )
