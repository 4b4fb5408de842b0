"""The lean training step trains exactly the models the allocating one did.

``train_regressor`` reuses buffers, fuses the MSE difference, skips the
first layer's input gradient and the identity layer's multiply by ones,
and steps the optimizer over one flat parameter vector.  None of that may
change a single bit: the RSMI's error bounds, block reads and answers all
follow from the trained parameters.  This module keeps a frozen copy of the
straightforward step it replaced (one fresh array per operation, one
optimizer call per parameter array, a fancy-indexed copy of the inputs
every epoch) and checks that both train bit-identical parameters and loss
histories across batch sizes, widths, optimizers and stopping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, MLPRegressor, TrainingConfig, train_regressor

# -- the frozen reference step ------------------------------------------------------


def _reference_activation(name: str):
    """``(forward, derivative(z, activated))`` as the reference computed them."""

    def sigmoid(z):
        e = np.exp(-np.abs(z))
        denominator = 1.0 + e
        return np.where(z >= 0, 1.0 / denominator, e / denominator)

    return {
        "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
        "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(float)),
        "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
        "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
    }[name]


class _ReferenceLayer:
    def __init__(self, weights, bias, activation: str):
        self.weights = weights.copy()
        self.bias = bias.copy()
        self.forward_fn, self.derivative_fn = _reference_activation(activation)

    def forward(self, inputs):
        self.inputs = inputs
        self.pre_activation = inputs @ self.weights + self.bias
        self.output = self.forward_fn(self.pre_activation)
        return self.output

    def backward(self, grad_output):
        grad_pre = grad_output * self.derivative_fn(self.pre_activation, self.output)
        batch = self.inputs.shape[0]
        self.grad_weights = self.inputs.T @ grad_pre / batch
        self.grad_bias = grad_pre.mean(axis=0)
        return grad_pre @ self.weights.T


class _ReferenceSGD:
    def __init__(self, learning_rate, momentum=0.0):
        self.learning_rate, self.momentum, self.velocity = learning_rate, momentum, None

    def step(self, parameters, gradients):
        if self.momentum == 0.0:
            for param, grad in zip(parameters, gradients):
                param -= self.learning_rate * grad
            return
        if self.velocity is None:
            self.velocity = [np.zeros_like(p) for p in parameters]
        for velocity, param, grad in zip(self.velocity, parameters, gradients):
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            param += velocity


class _ReferenceAdam:
    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.epsilon = (
            learning_rate, beta1, beta2, epsilon
        )
        self.m = self.v = None
        self.t = 0

    def step(self, parameters, gradients):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in parameters]
            self.v = [np.zeros_like(p) for p in parameters]
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for m, v, param, grad in zip(self.m, self.v, parameters, gradients):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def _reference_train(layers, optimizer, inputs, targets, config: TrainingConfig):
    """The training loop as it was: fancy-indexed batches every epoch."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    rng = np.random.default_rng(config.seed)
    n_samples = inputs.shape[0]
    batch_size = config.batch_size if config.batch_size > 0 else n_samples
    history, best_loss, since_improvement = [], float("inf"), 0
    for _ in range(config.epochs):
        if config.shuffle and batch_size < n_samples:
            order = rng.permutation(n_samples)
        else:
            order = np.arange(n_samples)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, n_samples, batch_size):
            batch_idx = order[start : start + batch_size]
            current = inputs[batch_idx]
            batch_targets = targets[batch_idx].reshape(-1, 1)
            for layer in layers:
                current = layer.forward(current)
            epoch_loss += float(np.mean((current - batch_targets) * (current - batch_targets)))
            grad = 2.0 * (current - batch_targets)
            for layer in reversed(layers):
                grad = layer.backward(grad)
            optimizer.step(
                [array for layer in layers for array in (layer.weights, layer.bias)],
                [array for layer in layers for array in (layer.grad_weights, layer.grad_bias)],
            )
            n_batches += 1
        epoch_loss /= max(n_batches, 1)
        history.append(epoch_loss)
        if epoch_loss < best_loss - config.early_stop_min_delta:
            best_loss, since_improvement = epoch_loss, 0
        else:
            since_improvement += 1
            if config.early_stop_patience and since_improvement >= config.early_stop_patience:
                break
    return history


# -- the grid -----------------------------------------------------------------------

#: optimizer name in TrainingConfig, SGD momentum, and the reference optimizer
OPTIMIZERS = {
    "adam": ("adam", 0.0, lambda lr: _ReferenceAdam(lr)),
    "sgd": ("sgd", 0.0, lambda lr: _ReferenceSGD(lr)),
    "sgd-momentum": ("sgd", 0.9, lambda lr: _ReferenceSGD(lr, momentum=0.9)),
}

#: (batch size for n samples, shuffle); a batch size >= n is one full batch
BATCHING = {
    "full": (lambda n: 0, True),
    "mini-shuffled": (lambda n: n // 3 + 1, True),
    "mini-ordered": (lambda n: n // 3 + 1, False),
}

#: (early_stop_patience, early_stop_min_delta): a huge min_delta counts no
#: epoch after the first as an improvement, so those runs stop after 3
STOPPING = {"runs-out": (0, 1e-7), "stops-early": (2, 1e9)}

EPOCHS = 6


def _train_both(monkeypatch, n, hidden, n_inputs, batching="full", optimizer="adam",
                stopping="runs-out", activation="sigmoid", order="C"):
    """Train one model with ``train_regressor`` and a copy of its initial
    parameters with the reference; returns ``(model, reference layers,
    loss history, reference loss history)``."""
    rng = np.random.default_rng(1000 + n + hidden + n_inputs)
    inputs = np.asarray(rng.random((n, n_inputs)), order=order)
    targets = np.sort(rng.random(n))
    batch_size, shuffle = BATCHING[batching]
    optimizer_name, momentum, reference_optimizer = OPTIMIZERS[optimizer]
    patience, min_delta = STOPPING[stopping]
    config = TrainingConfig(
        epochs=EPOCHS, learning_rate=0.05, optimizer=optimizer_name,
        batch_size=batch_size(n), shuffle=shuffle, early_stop_patience=patience,
        early_stop_min_delta=min_delta, seed=7,
    )
    if momentum:
        # TrainingConfig names optimizers without momentum
        monkeypatch.setattr(
            TrainingConfig, "build_optimizer",
            lambda self: SGD(self.learning_rate, momentum=momentum),
        )
    model = MLPRegressor(n_inputs, (hidden,), activation=activation,
                         rng=np.random.default_rng(n))
    reference = [
        _ReferenceLayer(layer.weights, layer.bias, layer.activation.name)
        for layer in model.layers
    ]
    expected = _reference_train(
        reference, reference_optimizer(config.learning_rate), inputs, targets, config
    )
    history = train_regressor(model, inputs, targets, config).loss_history
    return model, reference, history, expected


def _assert_identical(model, reference, history, expected):
    assert history == expected
    for layer, frozen in zip(model.layers, reference):
        for trained, frozen_array in ((layer.weights, frozen.weights),
                                      (layer.bias, frozen.bias)):
            assert np.array_equal(trained, frozen_array)
            assert trained.tobytes() == frozen_array.tobytes()  # signed zeros too


@pytest.mark.parametrize("stopping", sorted(STOPPING))
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
@pytest.mark.parametrize("batching", ["full", "mini-shuffled"])
@pytest.mark.parametrize("n_inputs", [1, 2])
@pytest.mark.parametrize("hidden", [1, 7, 33])
@pytest.mark.parametrize("n", [1, 7, 580, 5000])
def test_training_is_bit_identical_to_reference(monkeypatch, n, hidden, n_inputs, batching,
                                                optimizer, stopping):
    _assert_identical(*_train_both(monkeypatch, n, hidden, n_inputs, batching, optimizer,
                                   stopping))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("batching", ["full", "mini-shuffled"])
def test_other_activations_are_bit_identical(monkeypatch, activation, batching):
    _assert_identical(*_train_both(monkeypatch, 580, 7, 2, batching, activation=activation))


def test_unshuffled_minibatches_are_bit_identical(monkeypatch):
    """Unshuffled mini-batches are slices, not fancy-indexed copies."""
    _assert_identical(*_train_both(monkeypatch, 580, 7, 2, "mini-ordered"))


def test_fortran_ordered_inputs_are_bit_identical(monkeypatch):
    """Inputs reach BLAS in row-major order, as the per-epoch copy made them."""
    _assert_identical(*_train_both(monkeypatch, 580, 33, 2, order="F"))


@pytest.mark.parametrize("stopping,stops", [("stops-early", True), ("runs-out", False)])
def test_stopping_grid_covers_both_outcomes(stopping, stops):
    rng = np.random.default_rng(0)
    patience, min_delta = STOPPING[stopping]
    config = TrainingConfig(epochs=EPOCHS, early_stop_patience=patience,
                            early_stop_min_delta=min_delta)
    result = train_regressor(MLPRegressor(2, (7,), rng=rng), rng.random((50, 2)),
                             rng.random(50), config)
    assert result.stopped_early is stops
    assert result.epochs_run == (3 if stops else EPOCHS)
