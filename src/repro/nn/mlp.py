"""Multilayer perceptron regressor.

Each learned-index sub-model in the paper is an MLP with an input layer, one
hidden layer with sigmoid activation, and a single linear output neuron
(Section 6.1).  :class:`MLPRegressor` implements exactly that shape while
also allowing deeper stacks and other activations for experimentation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.activations import Activation, Identity, activation_by_name
from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.optimizers import Optimizer

__all__ = ["MLPRegressor"]


class MLPRegressor:
    """A small feed-forward regressor ``R^d -> R``.

    Parameters
    ----------
    n_inputs:
        Input dimensionality (2 for spatial coordinates, 1 for curve values).
    hidden_sizes:
        Sizes of the hidden layers.  The paper uses a single hidden layer
        whose width is ``(n_inputs + n_output_classes) / 2``.
    activation:
        Hidden-layer activation name, ``"sigmoid"`` by default (paper choice).
    rng:
        NumPy random generator for reproducible weight initialisation.
    """

    def __init__(
        self,
        n_inputs: int,
        hidden_sizes: Sequence[int] = (16,),
        activation: str | Activation = "sigmoid",
        rng: np.random.Generator | None = None,
    ):
        if n_inputs < 1:
            raise ValueError("n_inputs must be positive")
        if not hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if isinstance(activation, str):
            activation_obj: Activation = activation_by_name(activation)
        else:
            activation_obj = activation
        rng = rng if rng is not None else np.random.default_rng()

        self.n_inputs = int(n_inputs)
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)
        self.layers: list[DenseLayer] = []
        previous = self.n_inputs
        for size in self.hidden_sizes:
            self.layers.append(
                DenseLayer(previous, size, activation=type(activation_obj)(), rng=rng)
            )
            previous = size
        self.layers.append(DenseLayer(previous, 1, activation=Identity(), rng=rng))
        # flat (parameters, gradients) vectors the layers' arrays view while
        # training; see _flat_training_state
        self._flat: tuple[np.ndarray, np.ndarray] | None = None

    # -- inference -------------------------------------------------------------

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predict a value for each row of ``inputs``; returns shape ``(n,)``."""
        outputs = self._forward(np.asarray(inputs, dtype=float), remember=False)
        return outputs[:, 0]

    def predict_one(self, features: Sequence[float]) -> float:
        """Predict a single value from one feature vector."""
        row = np.asarray(features, dtype=float).reshape(1, -1)
        return float(self.predict(row)[0])

    def predict_chunked(self, inputs: np.ndarray, chunk_size: int = 65_536) -> np.ndarray:
        """Batched forward pass over a query matrix, ``chunk_size`` rows at a time.

        Equivalent to :meth:`predict` but bounds the size of the intermediate
        activation matrices, so arbitrarily large query batches (the batched
        query engine routes whole workloads through one call) cannot blow up
        memory.  Each chunk still goes through the network as one matrix.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.shape[0] <= chunk_size:
            return self.predict(inputs)
        outputs = np.empty(inputs.shape[0], dtype=float)
        for start in range(0, inputs.shape[0], chunk_size):
            outputs[start : start + chunk_size] = self.predict(inputs[start : start + chunk_size])
        return outputs

    # -- training primitives -----------------------------------------------------

    def train_batch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        optimizer: Optimizer,
        loss: Loss | None = None,
    ) -> float:
        """One gradient step on a batch; returns the batch loss before the step."""
        loss = loss if loss is not None else MeanSquaredError()
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float).reshape(-1, 1)
        parameters, gradients = self._flat_training_state()
        predictions = self._forward(inputs, remember=True)
        batch_loss, grad = loss.value_and_gradient(predictions, targets)
        self._backward(grad)
        optimizer.step([parameters], [gradients])
        return batch_loss

    # -- internals --------------------------------------------------------------

    def _forward(self, inputs: np.ndarray, remember: bool) -> np.ndarray:
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        current = inputs
        for layer in self.layers:
            current = layer.forward(current, remember=remember)
        return current

    def _backward(self, grad_output: np.ndarray) -> None:
        current = grad_output
        for position in range(len(self.layers) - 1, -1, -1):
            # the first layer's input gradient would have no consumer
            current = self.layers[position].backward(current, input_gradient=position > 0)

    def _flat_training_state(self) -> tuple[np.ndarray, np.ndarray]:
        """One parameter vector and one gradient vector for the whole network.

        Every layer's weights, bias and gradients are re-bound as views into
        them, so the optimizer updates all of them with one set of
        elementwise calls (the same operations per element as one call per
        array).  Re-packed whenever a layer's arrays were replaced.
        """
        if self._flat is not None:
            parameters = self._flat[0]
            if all(
                layer.weights.base is parameters and layer.bias.base is parameters
                for layer in self.layers
            ):
                return self._flat
        parameters = np.concatenate([array.ravel() for array in self.parameters()])
        gradients = np.zeros_like(parameters)
        offset = 0
        for layer in self.layers:
            shape, size = layer.weights.shape, layer.weights.size
            layer.weights = parameters[offset : offset + size].reshape(shape)
            layer.grad_weights = gradients[offset : offset + size].reshape(shape)
            offset += size
            size = layer.bias.size
            layer.bias = parameters[offset : offset + size]
            layer.grad_bias = gradients[offset : offset + size]
            offset += size
        self._flat = (parameters, gradients)
        return self._flat

    def drop_training_state(self) -> None:
        """Drop every layer's last batch, buffers and gradients (called when
        training ends, so a trained model carries — and pickles — only its
        parameters)."""
        self._flat = None
        for layer in self.layers:
            layer.drop_training_state()

    # -- parameter plumbing -------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars (used for index-size accounting)."""
        return sum(layer.n_parameters for layer in self.layers)

    def size_bytes(self) -> int:
        """Approximate in-memory size of the parameters (8 bytes per float)."""
        return self.n_parameters * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = " -> ".join(
            [str(self.n_inputs), *[str(s) for s in self.hidden_sizes], "1"]
        )
        return f"MLPRegressor({shape})"
