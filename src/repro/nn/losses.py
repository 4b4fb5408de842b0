"""Loss functions.

The paper minimises the L2 loss between predicted and ground-truth block ids
(Equation 3).  Mean squared error is the per-sample-averaged equivalent and
is what the trainer optimises.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Loss", "MeanSquaredError"]


class Loss(abc.ABC):
    """A differentiable training loss."""

    name: str = "abstract"

    @abc.abstractmethod
    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Scalar loss for a batch."""

    @abc.abstractmethod
    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the loss with respect to the predictions."""

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """``(value, gradient)`` in one call, what a training step needs."""
        return self.value(predictions, targets), self.gradient(predictions, targets)


class MeanSquaredError(Loss):
    """Mean squared error, the L2 loss of Equation 3 averaged over the batch."""

    name = "mse"

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.value_and_gradient(predictions, targets)[0]

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(predictions, targets)[1]

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        # one difference serves both: mean(d * d) (a sum and one division,
        # as np.mean computes it), and 2 * d in place
        predictions = np.asarray(predictions, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
            )
        diff = predictions - targets
        value = float(np.add.reduce(diff * diff, axis=None) / diff.size)
        diff *= 2.0
        return value, diff
