"""Unit tests for the MLP regressor, scaler and training loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (
    Adam,
    MinMaxScaler,
    MLPRegressor,
    TrainingConfig,
    train_regressor,
)


class TestMinMaxScaler:
    def test_scales_to_unit_range(self):
        data = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.random((50, 2)) * 100 - 50
        scaler = MinMaxScaler().fit(data)
        assert np.allclose(scaler.inverse_transform(scaler.transform(data)), data)

    def test_constant_column_maps_to_half(self):
        data = np.array([[1.0, 5.0], [2.0, 5.0]])
        scaled = MinMaxScaler().fit_transform(data)
        assert np.all(scaled[:, 1] == 0.5)

    def test_degenerate_columns_map_to_half_and_others_scale(self):
        data = np.array([[1.0, 5.0, 7.0], [3.0, 5.0, 7.0], [2.0, 5.0, 7.0]])
        scaled = MinMaxScaler().fit(data).transform(np.array([[2.5, 9.0, -1.0]]))
        assert scaled.tolist() == [[0.75, 0.5, 0.5]]

    def test_all_degenerate_columns(self):
        scaler = MinMaxScaler().fit(np.array([[4.0, -2.0]]))
        assert scaler.transform(np.array([[4.0, -2.0], [0.0, 0.0]])).tolist() == [[0.5, 0.5]] * 2

    def test_non_degenerate_transform_is_the_plain_formula(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 2)) * 10
        scaler = MinMaxScaler().fit(data)
        queries = rng.normal(size=(25, 2)) * 20
        expected = (queries - data.min(axis=0)) / (data.max(axis=0) - data.min(axis=0))
        assert scaler.transform(queries).tobytes() == expected.tobytes()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.empty((0, 2)))


class TestMLPRegressor:
    def test_prediction_shape(self):
        model = MLPRegressor(2, (8,), rng=np.random.default_rng(0))
        out = model.predict(np.zeros((13, 2)))
        assert out.shape == (13,)

    def test_predict_one(self):
        model = MLPRegressor(2, (4,), rng=np.random.default_rng(0))
        value = model.predict_one([0.3, 0.7])
        assert isinstance(value, float)

    def test_parameter_count_matches_paper_rule(self):
        """A 2 -> 51 -> 1 MLP (the paper's example) has 2*51 + 51 + 51 + 1 params."""
        model = MLPRegressor(2, (51,))
        assert model.n_parameters == 2 * 51 + 51 + 51 + 1
        assert model.size_bytes() == model.n_parameters * 8

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            MLPRegressor(0, (4,))
        with pytest.raises(ValueError):
            MLPRegressor(2, ())

    def test_deterministic_given_seed(self):
        a = MLPRegressor(2, (6,), rng=np.random.default_rng(42))
        b = MLPRegressor(2, (6,), rng=np.random.default_rng(42))
        inputs = np.random.default_rng(1).random((5, 2))
        assert np.allclose(a.predict(inputs), b.predict(inputs))


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=-1)

    def test_build_optimizer(self):
        assert TrainingConfig(optimizer="sgd").build_optimizer().name == "sgd"
        assert TrainingConfig(optimizer="adam").build_optimizer().name == "adam"


class TestTraining:
    def test_learns_linear_cdf(self):
        """The MLP can learn the identity CDF of sorted uniform data."""
        rng = np.random.default_rng(0)
        xs = np.sort(rng.random(400)).reshape(-1, 1)
        targets = np.arange(400) / 399
        model = MLPRegressor(1, (8,), rng=rng)
        result = train_regressor(model, xs, targets, TrainingConfig(epochs=200, seed=0))
        predictions = model.predict(xs)
        assert result.final_loss < 0.02
        assert np.mean(np.abs(predictions - targets)) < 0.1

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        inputs = rng.random((200, 2))
        targets = 0.3 * inputs[:, 0] + 0.7 * inputs[:, 1]
        model = MLPRegressor(2, (8,), rng=rng)
        result = train_regressor(model, inputs, targets, TrainingConfig(epochs=100, seed=1))
        assert result.loss_history[-1] < result.loss_history[0]

    def test_early_stopping(self):
        rng = np.random.default_rng(2)
        inputs = rng.random((50, 1))
        targets = np.zeros(50)  # trivially learnable
        model = MLPRegressor(1, (4,), rng=rng)
        config = TrainingConfig(epochs=500, early_stop_patience=5, seed=2)
        result = train_regressor(model, inputs, targets, config)
        assert result.stopped_early
        assert result.epochs_run < 500

    def test_minibatch_training(self):
        rng = np.random.default_rng(3)
        inputs = rng.random((128, 2))
        targets = inputs[:, 0]
        model = MLPRegressor(2, (6,), rng=rng)
        config = TrainingConfig(epochs=30, batch_size=32, seed=3)
        result = train_regressor(model, inputs, targets, config)
        assert result.epochs_run <= 30
        assert np.isfinite(result.final_loss)

    def test_empty_input_raises(self):
        model = MLPRegressor(1, (2,))
        with pytest.raises(ValueError):
            train_regressor(model, np.empty((0, 1)), np.empty(0))

    def test_mismatched_lengths_raise(self):
        model = MLPRegressor(1, (2,))
        with pytest.raises(ValueError):
            train_regressor(model, np.zeros((3, 1)), np.zeros(4))

    def test_train_batch_steps_weights_assigned_between_batches(self):
        """A step trains the arrays the layers hold now, even when one was
        replaced after an earlier step bound them into the flat vector."""
        rng = np.random.default_rng(4)
        inputs, targets = rng.random((30, 2)), rng.random(30)
        model = MLPRegressor(2, (5,), rng=np.random.default_rng(0))
        model.train_batch(inputs, targets, Adam(0.01))
        replacement = np.full((2, 5), 0.25)
        model.layers[0].weights = replacement.copy()
        twin = MLPRegressor(2, (5,), rng=np.random.default_rng(0))
        for layer, source in zip(twin.layers, model.layers):
            layer.weights, layer.bias = source.weights.copy(), source.bias.copy()
        model.train_batch(inputs, targets, Adam(0.01))
        twin.train_batch(inputs, targets, Adam(0.01))
        assert not np.array_equal(model.layers[0].weights, replacement)
        for layer, twin_layer in zip(model.layers, twin.layers):
            assert np.array_equal(layer.weights, twin_layer.weights)
            assert np.array_equal(layer.bias, twin_layer.bias)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_training_never_produces_nan(self, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.random((60, 2))
        targets = rng.random(60)
        model = MLPRegressor(2, (5,), rng=rng)
        result = train_regressor(model, inputs, targets, TrainingConfig(epochs=20, seed=seed))
        assert np.isfinite(result.final_loss)
        assert np.all(np.isfinite(model.predict(inputs)))
