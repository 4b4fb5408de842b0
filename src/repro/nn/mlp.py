"""Multilayer perceptron regressor.

Each learned-index sub-model in the paper is an MLP with an input layer, one
hidden layer with sigmoid activation, and a single linear output neuron
(Section 6.1).  :class:`MLPRegressor` implements exactly that shape while
also allowing deeper stacks and other activations for experimentation.

Inference for that shape runs one fixed-order kernel, not BLAS: each hidden
unit sums ``x_i * W[i]`` in input order and adds its bias, the sigmoid is
the stable form over ``math.exp(-|z|)``, and the output sums ``a_j * v_j``
in hidden-unit order from ``0.0`` and adds its bias.  A list of rows, and
an array of up to :data:`PYTHON_ROWS` rows, runs as a plain-Python loop per
row; larger arrays run the same operations as NumPy elementwise calls, with
the exponential mapped through ``math.exp`` (NumPy's vectorised ``exp``
rounds differently on some inputs).  One row and a batch of any size therefore
give bit-identical predictions, so the error bounds an index takes from a
batched forward at build time cover the single-row forwards of its point
queries by construction.  Training keeps its BLAS forward and backward.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.nn.activations import Activation, Identity, Sigmoid, activation_by_name
from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.optimizers import Optimizer

__all__ = ["MLPRegressor", "PYTHON_ROWS"]

#: arrays of up to this many rows run the inference kernel as a plain-Python
#: loop per row, larger ones as NumPy elementwise calls over the whole batch
#: (lists always run as rows).  The array form makes about ``n_inputs +
#: hidden + 6`` NumPy calls plus one ``math.exp`` per element; timed on the
#: models of the perfbench workloads (hidden widths 4-33), it overtakes the
#: row loop between about 20 rows (width 33) and 30 rows (width 4).
PYTHON_ROWS = 24

#: elements of the hidden pre-activation passed through ``math.exp`` per
#: list, which bounds the transient Python floats of a large batch
_EXP_SLICE = 1 << 16


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
        # the inference kernel's copy of the parameters, built on first use
        # after training; see _inference_kernel
        self._kernel: _SigmoidKernel | None = None

    def __getstate__(self) -> dict:
        # the kernel is a cache: pickles and copies carry the parameters only
        state = self.__dict__.copy()
        state.pop("_kernel", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel = None

    # -- inference -------------------------------------------------------------

    def predict(self, inputs: np.ndarray | list) -> np.ndarray | list:
        """Predict a value for each row of ``inputs``.

        An ``(n, n_inputs)`` array gives an array of shape ``(n,)``.  A list
        of rows (each a sequence of floats; the engine's small requests)
        gives a list of floats, one plain-Python row at a time.  Either way
        each value is bit-identical to :meth:`predict_one` of its row.
        """
        kernel = self._inference_kernel()
        if isinstance(inputs, list):
            if kernel is not None:
                return kernel.rows(inputs)
            inputs = np.asarray(inputs, dtype=float).reshape(-1, self.n_inputs)
            return self._forward(inputs, remember=False)[:, 0].tolist()
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected input of shape (n, {self.n_inputs}), got {inputs.shape}"
            )
        if kernel is None:
            return self._forward(inputs, remember=False)[:, 0]
        if inputs.shape[0] <= PYTHON_ROWS:
            return np.array(kernel.rows(inputs.tolist()), dtype=float)
        return kernel.array(inputs)

    def predict_one(self, features: Sequence[float]) -> float:
        """Predict a single value from one feature vector (no NumPy work for
        the one-hidden-layer sigmoid shape)."""
        kernel = self._inference_kernel()
        if kernel is not None:
            return kernel.row(features)
        row = np.asarray(features, dtype=float).reshape(1, -1)
        return float(self._forward(row, remember=False)[0, 0])

    def predict_chunked(self, inputs: np.ndarray, chunk_size: int = 65_536) -> np.ndarray:
        """Batched forward pass over a query matrix, ``chunk_size`` rows at a time.

        Equivalent to :meth:`predict` (the kernel computes each row on its
        own, so chunking cannot change a bit) but bounds the size of the
        intermediate activation matrices, so arbitrarily large query batches
        (the batched query engine routes whole workloads through one call)
        cannot blow up memory.
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
        self._kernel = None
        parameters, gradients = self._flat_training_state()
        predictions = self._forward(inputs, remember=True)
        batch_loss, grad = loss.value_and_gradient(predictions, targets)
        self._backward(grad)
        optimizer.step([parameters], [gradients])
        return batch_loss

    # -- internals --------------------------------------------------------------

    def _inference_kernel(self) -> "_SigmoidKernel | None":
        """The fixed-order kernel over the current parameters, or None for
        shapes it does not cover (more hidden layers, other activations),
        which infer through the BLAS forward.

        The kernel keeps a copy of the parameters, rebuilt whenever a layer's
        ``weights`` or ``bias`` is replaced by another array and after
        :meth:`train_batch`.  Edits made in place to a layer's arrays after
        an inference are not seen until one of those happens.
        """
        hidden, output = self.layers[0], self.layers[-1]
        kernel = self._kernel
        if kernel is not None and kernel.reads(hidden, output):
            return kernel
        if (
            len(self.layers) == 2
            and type(hidden.activation) is Sigmoid
            and type(output.activation) is Identity
        ):
            kernel = self._kernel = _SigmoidKernel(hidden, output)
            return kernel
        return None

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
        self._kernel = None
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


class _SigmoidKernel:
    """The fixed-order forward pass of a one-hidden-layer sigmoid network
    with a linear output (see the module docstring)."""

    __slots__ = ("sources", "units", "weights", "bias", "out_weights", "out_bias")

    def __init__(self, hidden: DenseLayer, output: DenseLayer):
        #: the layer arrays this kernel copied
        self.sources = (hidden.weights, hidden.bias, output.weights, output.bias)
        self.weights = hidden.weights.copy()  # (n_inputs, hidden)
        self.bias = hidden.bias.copy()
        self.out_weights = output.weights[:, 0].tolist()
        self.out_bias = float(output.bias[0])
        #: one ``(w_0, .., w_{d-1}, b, v)`` tuple per hidden unit
        self.units = list(
            zip(*self.weights.tolist(), self.bias.tolist(), self.out_weights)
        )

    def reads(self, hidden: DenseLayer, output: DenseLayer) -> bool:
        """Whether the layers still hold the arrays this kernel copied."""
        weights, bias, out_weights, out_bias = self.sources
        return (
            hidden.weights is weights
            and hidden.bias is bias
            and output.weights is out_weights
            and output.bias is out_bias
        )

    def row(self, features: Sequence[float]) -> float:
        """One row in plain Python: the operations :meth:`array` performs
        per row, in the same order."""
        # unrolled for the library's two input widths; on each branch of
        # the sigmoid, exp(-z) or exp(z) is exp(-|z|)
        exp = math.exp
        total = 0.0
        if len(self.weights) == 2:
            x0, x1 = features
            for w0, w1, b, v in self.units:
                z = x0 * w0 + x1 * w1 + b
                if z >= 0.0:
                    a = 1.0 / (1.0 + exp(-z))
                else:
                    e = exp(z)
                    a = e / (1.0 + e)
                total += a * v
        elif len(self.weights) == 1:
            (x0,) = features
            for w0, b, v in self.units:
                z = x0 * w0 + b
                if z >= 0.0:
                    a = 1.0 / (1.0 + exp(-z))
                else:
                    e = exp(z)
                    a = e / (1.0 + e)
                total += a * v
        else:
            row = np.asarray(features, dtype=float).reshape(1, -1)
            return float(self.array(row)[0])
        return total + self.out_bias

    def rows(self, rows: list) -> list[float]:
        return [self.row(features) for features in rows]

    def array(self, inputs: np.ndarray) -> np.ndarray:
        """Rows of an ``(n, n_inputs)`` array as NumPy elementwise calls."""
        z = inputs[:, :1] * self.weights[0]
        for i in range(1, len(self.weights)):
            z += inputs[:, i : i + 1] * self.weights[i]
        z += self.bias
        # e = exp(-|z|) through libm, a slice at a time
        e = np.abs(z).ravel()
        np.negative(e, out=e)
        for start in range(0, e.size, _EXP_SLICE):
            part = e[start : start + _EXP_SLICE]
            part[:] = np.fromiter(map(math.exp, part.tolist()), float, part.size)
        e = e.reshape(z.shape)
        a = np.where(z >= 0.0, 1.0, e)
        e += 1.0
        a /= e
        total = np.zeros(inputs.shape[0])
        for j, v in enumerate(self.out_weights):
            total += a[:, j] * v
        total += self.out_bias
        return total
