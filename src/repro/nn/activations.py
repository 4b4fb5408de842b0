"""Activation functions with forward and derivative evaluation."""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Activation", "Sigmoid", "ReLU", "Tanh", "Identity", "activation_by_name"]


class Activation(abc.ABC):
    """Elementwise activation: ``forward(z)`` and its derivative w.r.t. ``z``.

    Every method takes an optional ``out`` array of ``z``'s shape that it
    may write its result into (the training step passes buffers it reuses
    across epochs); the return value is the result either way.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the activation elementwise."""

    @abc.abstractmethod
    def derivative(
        self, z: np.ndarray, activated: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Derivative of the activation evaluated at ``z``.

        ``activated`` is ``forward(z)``, passed in so implementations can
        reuse it instead of recomputing (e.g. sigmoid, tanh).
        """

    def backward(
        self,
        grad_output: np.ndarray,
        z: np.ndarray,
        activated: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``dL/dz`` from ``dL/da``: ``grad_output * derivative(z, activated)``.

        ``out`` may be ``z`` itself: ``z`` is read elementwise before it is
        overwritten.
        """
        grad = self.derivative(z, activated, out=out)
        grad *= grad_output
        return grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid, the activation the paper uses for the hidden layer."""

    name = "sigmoid"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # numerically stable sigmoid: exp only ever sees -|z|, so it cannot
        # overflow; 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, one
        # division: np.where(z >= 0, 1.0, e) / (1.0 + e)
        e = np.abs(z, out=out, dtype=float)
        if out is None:
            e = np.asarray(e)  # a 0-d z gives a scalar; what follows works in place
        np.negative(e, out=e)
        np.exp(e, out=e)
        numerator = np.where(z >= 0, 1.0, e)
        e += 1.0
        return np.divide(numerator, e, out=e)

    def derivative(
        self, z: np.ndarray, activated: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        grad = np.subtract(1.0, activated, out=out)
        return np.multiply(grad, activated, out=out)


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(z, 0.0, out=out)

    def derivative(
        self, z: np.ndarray, activated: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        if out is None:
            return (z > 0.0).astype(float)
        return np.greater(z, 0.0, out=out)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.tanh(z, out=out)

    def derivative(
        self, z: np.ndarray, activated: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        grad = np.multiply(activated, activated, out=out)
        return np.subtract(1.0, grad, out=out)


class Identity(Activation):
    """Linear activation used for regression output layers."""

    name = "identity"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return z

    def derivative(
        self, z: np.ndarray, activated: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.ones_like(z)

    def backward(
        self,
        grad_output: np.ndarray,
        z: np.ndarray,
        activated: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        # the derivative is all ones: dL/dz is dL/da, with no multiply
        return grad_output


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
