"""Unit tests for repro.nn.activations."""

import numpy as np
import pytest

from repro.nn import Identity, ReLU, Sigmoid, Tanh, activation_by_name


class TestSigmoid:
    def test_known_values(self):
        sigmoid = Sigmoid()
        z = np.array([0.0, 100.0, -100.0])
        out = sigmoid.forward(z)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.0)

    def test_no_overflow_for_large_negative(self):
        out = Sigmoid().forward(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(out))

    def test_derivative_matches_numerical(self):
        sigmoid = Sigmoid()
        z = np.linspace(-3, 3, 13)
        activated = sigmoid.forward(z)
        analytic = sigmoid.derivative(z, activated)
        eps = 1e-6
        numerical = (sigmoid.forward(z + eps) - sigmoid.forward(z - eps)) / (2 * eps)
        assert np.allclose(analytic, numerical, atol=1e-6)

    @pytest.mark.parametrize(
        "z",
        [
            np.array([0.0, -0.0]),
            np.array([5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310]),
            np.array([745.0, -745.0, 745.2, -745.2, 744.9, -744.9]),
            np.array([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]),
            np.random.default_rng(4).normal(scale=30.0, size=(50, 33)),
        ],
        ids=["signed-zeros", "subnormals", "745", "1e308", "random"],
    )
    def test_forward_bit_equal_to_two_division_formula(self, z):
        """The one-division forward, with and without an ``out`` buffer,
        gives exactly what ``where(z >= 0, 1/(1+e), e/(1+e))`` gave."""
        e = np.exp(-np.abs(z))
        denominator = 1.0 + e
        expected = np.where(z >= 0, 1.0 / denominator, e / denominator)
        assert Sigmoid().forward(z).tobytes() == expected.tobytes()
        out = np.full(z.shape, np.nan)
        assert Sigmoid().forward(z, out=out) is out
        assert out.tobytes() == expected.tobytes()


class TestReLU:
    def test_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.5]))
        assert out.tolist() == [0.0, 0.0, 2.5]

    def test_derivative(self):
        relu = ReLU()
        z = np.array([-1.0, 0.5])
        assert relu.derivative(z, relu.forward(z)).tolist() == [0.0, 1.0]


class TestTanh:
    def test_derivative_matches_numerical(self):
        tanh = Tanh()
        z = np.linspace(-2, 2, 9)
        analytic = tanh.derivative(z, tanh.forward(z))
        eps = 1e-6
        numerical = (tanh.forward(z + eps) - tanh.forward(z - eps)) / (2 * eps)
        assert np.allclose(analytic, numerical, atol=1e-6)


class TestIdentity:
    def test_forward_is_passthrough(self):
        z = np.array([1.0, -2.0])
        assert Identity().forward(z).tolist() == z.tolist()

    def test_derivative_is_one(self):
        identity = Identity()
        z = np.array([3.0, -4.0])
        assert identity.derivative(z, z).tolist() == [1.0, 1.0]


class TestActivationRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [("sigmoid", Sigmoid), ("relu", ReLU), ("tanh", Tanh), ("identity", Identity),
         ("linear", Identity), ("SIGMOID", Sigmoid)],
    )
    def test_lookup(self, name, cls):
        assert isinstance(activation_by_name(name), cls)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            activation_by_name("swish")


def _masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The boolean-mask formulation the branch-free forward replaced."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


@pytest.mark.parametrize(
    "z",
    [
        np.random.default_rng(0).normal(scale=8.0, size=1000),
        np.array([1e3, -1e3, 0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -745.2]),
        np.empty(0),
        np.random.default_rng(1).normal(scale=4.0, size=(7, 5)),
        np.array([[0.0, -0.0], [1e3, -1e3]]),
    ],
    ids=["random", "extreme", "empty", "2d", "2d-extreme"],
)
def test_sigmoid_forward_bit_equal_to_masked_formula(z):
    out = Sigmoid().forward(z)
    expected = _masked_sigmoid(z)
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()
