"""Unit tests for the piecewise mapping function (CDF approximation)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PiecewiseMappingFunction

from tests.reference_loops import searchsorted_pmf_evaluate, searchsorted_pmf_skew_parameter


class TestPMFBasics:
    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            PiecewiseMappingFunction(np.array([]))

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            PiecewiseMappingFunction(np.array([1.0, 2.0]), n_partitions=0)

    def test_bounds_clamp_to_zero_one(self):
        pmf = PiecewiseMappingFunction(np.linspace(0, 1, 100), n_partitions=10)
        assert pmf.evaluate(-0.5) == 0.0
        assert pmf.evaluate(1.5) == 1.0

    def test_uniform_sample_is_roughly_identity(self):
        values = np.linspace(0, 1, 1_001)
        pmf = PiecewiseMappingFunction(values, n_partitions=100)
        for x in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert pmf.evaluate(x) == pytest.approx(x, abs=0.02)

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(0)
        pmf = PiecewiseMappingFunction(rng.random(500) ** 3, n_partitions=50)
        xs = np.linspace(-0.1, 1.1, 200)
        values = [pmf.evaluate(x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_partitions_capped_at_sample_size(self):
        pmf = PiecewiseMappingFunction(np.array([1.0, 2.0, 3.0]), n_partitions=100)
        assert pmf.n_partitions == 3


class TestSkewParameter:
    def test_uniform_data_alpha_near_one(self):
        """Equation 6: for uniform data the slope of the CDF is 1, so alpha ~ 1."""
        values = np.linspace(0, 1, 2_001)
        pmf = PiecewiseMappingFunction(values, n_partitions=100)
        assert pmf.skew_parameter(0.5, delta=0.01) == pytest.approx(1.0, rel=0.1)

    def test_dense_region_has_small_alpha(self):
        """In a dense region the CDF rises steeply, so alpha < 1 (smaller search box)."""
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0.5, 0.01, 5_000), rng.random(500)])
        values = np.clip(values, 0, 1)
        pmf = PiecewiseMappingFunction(values, n_partitions=100)
        assert pmf.skew_parameter(0.5, delta=0.01) < 0.5

    def test_sparse_region_has_large_alpha(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.normal(0.1, 0.01, 5_000), rng.random(100)])
        values = np.clip(values, 0, 1)
        pmf = PiecewiseMappingFunction(values, n_partitions=100)
        assert pmf.skew_parameter(0.8, delta=0.01) > 1.0

    def test_flat_region_alpha_is_clamped(self):
        pmf = PiecewiseMappingFunction(np.array([0.0, 0.001, 0.002, 1.0]), n_partitions=4)
        alpha = pmf.skew_parameter(0.5, delta=0.001)
        assert np.isfinite(alpha)

    def test_invalid_delta(self):
        pmf = PiecewiseMappingFunction(np.linspace(0, 1, 10))
        with pytest.raises(ValueError):
            pmf.slope(0.5, delta=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), query=st.floats(0, 1))
    def test_evaluate_always_in_unit_interval(self, seed, query):
        values = np.random.default_rng(seed).random(200)
        pmf = PiecewiseMappingFunction(values, n_partitions=20)
        assert 0.0 <= pmf.evaluate(query) <= 1.0
        assert pmf.skew_parameter(query) > 0


# -- Python lists + bisect against NumPy arrays + searchsorted ------------------------


def _same_bits(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return type(a) is type(b) is float and struct.pack("<d", a) == struct.pack("<d", b)


def _probes(pmf, extra: list) -> list:
    """Every boundary, its neighbouring floats, points past both ends, the
    signed zeros and ``extra``."""
    values = list(extra) + [0.0, -0.0, math.inf, -math.inf, math.nan]
    for boundary in pmf.boundaries:
        below, above = math.nextafter(boundary, -math.inf), math.nextafter(boundary, math.inf)
        values += [boundary, below, above]
    low, high = pmf.boundaries[0], pmf.boundaries[-1]
    values += [low - 1.0, high + 1.0, low - 1e300, high + 1e300, (low + high) / 2]
    return values


@settings(max_examples=80, deadline=None)
@given(
    sample=st.lists(
        st.one_of(
            st.floats(-5.0, 5.0, allow_nan=False),
            st.sampled_from([0.0, -0.0, 1.0, 0.5]),
        ),
        min_size=1,
        max_size=300,
    ),
    n_partitions=st.integers(1, 120),
    extra=st.lists(st.floats(-10.0, 10.0, allow_nan=False), max_size=20),
    delta=st.sampled_from([0.01, 1e-3, 0.25, 1e-12]),
)
def test_bisect_evaluation_matches_searchsorted_bit_for_bit(sample, n_partitions, extra, delta):
    """``evaluate`` and ``skew_parameter`` give the bits the NumPy
    ``searchsorted`` body gave, for repeated values, signed zeros and
    queries on, beside and beyond every boundary."""
    pmf = PiecewiseMappingFunction(np.asarray(sample), n_partitions)
    for value in _probes(pmf, extra):
        assert _same_bits(pmf.evaluate(value), searchsorted_pmf_evaluate(pmf, value)), value
        assert _same_bits(
            pmf.skew_parameter(value, delta), searchsorted_pmf_skew_parameter(pmf, value, delta)
        ), value
