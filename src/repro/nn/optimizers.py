"""Gradient-based optimizers (SGD with momentum, Adam)."""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam", "optimizer_by_name"]


class Optimizer(abc.ABC):
    """Updates a list of parameter arrays in place from matching gradients.

    Every update is elementwise, so one flat vector holding all of a
    network's parameters (what :class:`~repro.nn.mlp.MLPRegressor` passes)
    gets exactly the values a step over each array would, in one set of
    calls.
    """

    name: str = "abstract"

    def __init__(self, learning_rate: float = 0.01):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)

    @abc.abstractmethod
    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        """Apply one update step; parameter arrays are modified in place."""

    def reset(self) -> None:
        """Clear any per-parameter state (momentum, moment estimates)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    This matches the paper's training setup ("standard learning procedures,
    stochastic gradient descent", learning rate 0.01).
    """

    name = "sgd"

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: list[np.ndarray] | None = None

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        if len(parameters) != len(gradients):
            raise ValueError("parameters and gradients must have equal length")
        if self.momentum == 0.0:
            for param, grad in zip(parameters, gradients):
                param -= self.learning_rate * grad
            return
        if self._velocity is None or len(self._velocity) != len(parameters):
            self._velocity = [np.zeros_like(p) for p in parameters]
        for velocity, param, grad in zip(self._velocity, parameters, gradients):
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            param += velocity

    def reset(self) -> None:
        self._velocity = None


class Adam(Optimizer):
    """Adam optimizer; converges much faster than plain SGD for the tiny index MLPs."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        if len(parameters) != len(gradients):
            raise ValueError("parameters and gradients must have equal length")
        if self._m is None or len(self._m) != len(parameters):
            self._m = [np.zeros_like(p) for p in parameters]
            self._v = [np.zeros_like(p) for p in parameters]
            self._t = 0
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for m, v, param, grad in zip(self._m, self._v, parameters, gradients):
            # m_hat = m / bias1, v_hat = v / bias2 and
            # param -= lr * m_hat / (sqrt(v_hat) + eps), in two temporary arrays
            step = np.multiply(grad, 1.0 - self.beta1)
            m *= self.beta1
            m += step
            np.multiply(grad, 1.0 - self.beta2, out=step)
            step *= grad
            v *= self.beta2
            v += step
            denominator = np.divide(v, bias2)
            np.sqrt(denominator, out=denominator)
            denominator += self.epsilon
            np.divide(m, bias1, out=step)
            step *= self.learning_rate
            step /= denominator
            param -= step

    def reset(self) -> None:
        self._m = None
        self._v = None
        self._t = 0


def optimizer_by_name(name: str, learning_rate: float = 0.01) -> Optimizer:
    """Instantiate an optimizer from its name (``sgd`` or ``adam``)."""
    normalized = name.strip().lower()
    if normalized == "sgd":
        return SGD(learning_rate)
    if normalized == "adam":
        return Adam(learning_rate)
    raise ValueError(f"unknown optimizer: {name!r}")
