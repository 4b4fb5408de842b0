"""Dense (fully connected) layers."""

from __future__ import annotations

import numpy as np

from repro.nn.activations import Activation, Identity

__all__ = ["DenseLayer"]


class DenseLayer:
    """A fully connected layer ``a = activation(x @ W + b)``.

    Weights use Xavier/Glorot uniform initialisation, which keeps the initial
    activations well-scaled for the small sigmoid networks the learned index
    relies on.
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        activation: Activation | None = None,
        rng: np.random.Generator | None = None,
    ):
        if n_inputs < 1 or n_outputs < 1:
            raise ValueError("layer dimensions must be positive")
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        self.activation = activation if activation is not None else Identity()
        rng = rng if rng is not None else np.random.default_rng()
        limit = np.sqrt(6.0 / (n_inputs + n_outputs))
        self.weights = rng.uniform(-limit, limit, size=(n_inputs, n_outputs))
        self.bias = np.zeros(n_outputs)
        # caches populated by forward() and consumed by backward()
        self._last_input: np.ndarray | None = None
        self._last_pre_activation: np.ndarray | None = None
        self._last_output: np.ndarray | None = None
        # gradients populated by backward()
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

    # -- forward / backward --------------------------------------------------

    def forward(self, inputs: np.ndarray, remember: bool = True) -> np.ndarray:
        """Compute the layer output for a batch ``inputs`` of shape ``(n, n_inputs)``."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected input of shape (n, {self.n_inputs}), got {inputs.shape}"
            )
        pre_activation = inputs @ self.weights + self.bias
        output = self.activation.forward(pre_activation)
        if remember:
            self._last_input = inputs
            self._last_pre_activation = pre_activation
            self._last_output = output
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``dL/da`` and return ``dL/dx``; stores weight gradients."""
        if self._last_input is None or self._last_pre_activation is None:
            raise RuntimeError("backward() called before forward()")
        grad_pre = grad_output * self.activation.derivative(
            self._last_pre_activation, self._last_output
        )
        batch = self._last_input.shape[0]
        self.grad_weights = self._last_input.T @ grad_pre / batch
        self.grad_bias = grad_pre.mean(axis=0)
        return grad_pre @ self.weights.T

    def clear_activations(self) -> None:
        """Drop the batch caches ``forward`` kept for ``backward``."""
        self._last_input = None
        self._last_pre_activation = None
        self._last_output = None

    # -- parameter access ------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]

    @property
    def n_parameters(self) -> int:
        return self.weights.size + self.bias.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DenseLayer({self.n_inputs} -> {self.n_outputs}, "
            f"activation={self.activation.name})"
        )
