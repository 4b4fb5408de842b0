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
        # gradients written by backward() (None until the first one)
        self.grad_weights: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        # (inputs, pre-activation, output) of the last remembered forward
        self._batch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # training buffers, reused by every batch of up to their row count
        self._buffers: dict[str, np.ndarray] = {}

    # -- forward / backward --------------------------------------------------

    def forward(self, inputs: np.ndarray, remember: bool = True) -> np.ndarray:
        """Compute the layer output for a batch ``inputs`` of shape ``(n, n_inputs)``.

        With ``remember`` the batch is kept for :meth:`backward` and the
        result lives in a buffer that the next remembered forward reuses.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected input of shape (n, {self.n_inputs}), got {inputs.shape}"
            )
        if not remember:
            return self.activation.forward(inputs @ self.weights + self.bias)
        rows = inputs.shape[0]
        pre_activation = np.matmul(
            inputs, self.weights, out=self._buffer("pre", rows, self.n_outputs)
        )
        pre_activation += self.bias
        output = self.activation.forward(
            pre_activation, out=self._buffer("out", rows, self.n_outputs)
        )
        self._batch = (inputs, pre_activation, output)
        return output

    def backward(
        self, grad_output: np.ndarray, input_gradient: bool = True
    ) -> np.ndarray | None:
        """Back-propagate ``dL/da`` and store the weight gradients.

        Returns ``dL/dx``, or None when ``input_gradient`` is false (the
        first layer of a network has no one to pass it to).  The
        pre-activation buffer is overwritten with ``dL/dz``.
        """
        if self._batch is None:
            raise RuntimeError("backward() called before forward()")
        inputs, pre_activation, output = self._batch
        grad_pre = self.activation.backward(
            grad_output, pre_activation, output, out=pre_activation
        )
        if self.grad_weights is None or self.grad_bias is None:
            self.grad_weights = np.empty_like(self.weights)
            self.grad_bias = np.empty_like(self.bias)
        batch = inputs.shape[0]
        np.matmul(inputs.T, grad_pre, out=self.grad_weights)
        self.grad_weights /= batch
        # the batch mean as np.mean computes it (a sum, then one division),
        # without its Python-level wrapper
        np.add.reduce(grad_pre, axis=0, out=self.grad_bias)
        self.grad_bias /= batch
        if not input_gradient:
            return None
        return np.matmul(
            grad_pre, self.weights.T, out=self._buffer("grad_in", batch, self.n_inputs)
        )

    def _buffer(self, name: str, rows: int, columns: int) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape[0] < rows:
            buffer = self._buffers[name] = np.empty((rows, columns))
        return buffer[:rows]

    def drop_training_state(self) -> None:
        """Drop the last batch, the buffers and the gradients, so a trained
        layer carries (and pickles) only its parameters."""
        self._batch = None
        self._buffers = {}
        self.grad_weights = None
        self.grad_bias = None

    # -- parameter access ------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> list[np.ndarray | None]:
        """The gradients of :meth:`parameters` (None before a backward)."""
        return [self.grad_weights, self.grad_bias]

    @property
    def n_parameters(self) -> int:
        return self.weights.size + self.bias.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DenseLayer({self.n_inputs} -> {self.n_outputs}, "
            f"activation={self.activation.name})"
        )
