"""Activation functions with forward and derivative evaluation."""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Activation", "Sigmoid", "ReLU", "Tanh", "Identity", "activation_by_name"]


class Activation(abc.ABC):
    """Elementwise activation: ``forward(z)`` and its derivative w.r.t. ``z``."""

    name: str = "abstract"

    @abc.abstractmethod
    def forward(self, z: np.ndarray) -> np.ndarray:
        """Apply the activation elementwise."""

    @abc.abstractmethod
    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        """Derivative of the activation evaluated at ``z``.

        ``activated`` is ``forward(z)``, passed in so implementations can
        reuse it instead of recomputing (e.g. sigmoid, tanh).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid, the activation the paper uses for the hidden layer."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        # numerically stable sigmoid: exp only ever sees -|z|, so it cannot
        # overflow; 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below
        e = np.exp(-np.abs(z))
        denominator = 1.0 + e
        return np.where(z >= 0, 1.0 / denominator, e / denominator)

    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        return activated * (1.0 - activated)


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(float)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        return 1.0 - activated * activated


class Identity(Activation):
    """Linear activation used for regression output layers."""

    name = "identity"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return z

    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        return np.ones_like(z)


_ACTIVATIONS: dict[str, type[Activation]] = {
    cls.name: cls for cls in (Sigmoid, ReLU, Tanh, Identity)
}


def activation_by_name(name: str) -> Activation:
    """Instantiate an activation from its name (``sigmoid``, ``relu``, ``tanh``, ``identity``)."""
    normalized = name.strip().lower()
    if normalized == "linear":
        normalized = "identity"
    if normalized not in _ACTIVATIONS:
        raise ValueError(f"unknown activation: {name!r}")
    return _ACTIVATIONS[normalized]()
