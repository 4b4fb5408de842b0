"""Tests of the RSMI window query (Algorithm 2) and the exact RSMIa variant."""

import numpy as np
import pytest

from repro.core import RSMI, RSMIConfig
from repro.core.window import window_corner_points, window_query
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import brute_force_window, generate_window_queries


class TestCornerPoints:
    def test_z_curve_uses_two_corners(self):
        window = Rect(0.1, 0.2, 0.3, 0.4)
        corners = window_corner_points(window, "z")
        assert corners == [(0.1, 0.2), (0.3, 0.4)]

    def test_hilbert_uses_four_corners(self):
        window = Rect(0.1, 0.2, 0.3, 0.4)
        assert len(window_corner_points(window, "hilbert")) == 4


class TestApproximateWindowQuery:
    def test_no_false_positives(self, built_rsmi, skewed_points):
        """The paper guarantees the approximate answer never contains points
        outside the window (Section 4.2)."""
        windows = generate_window_queries(skewed_points, 25, area_fraction=0.001, seed=5)
        for window in windows:
            result = window_query(built_rsmi, window)
            if result.count:
                assert np.all(window.contains_points(result.points))

    def test_reported_points_are_real_data_points(self, built_rsmi, skewed_points):
        window = Rect(0.2, 0.0, 0.5, 0.1)
        result = window_query(built_rsmi, window)
        stored = {tuple(p) for p in np.round(skewed_points, 12)}
        for point in np.round(result.points, 12):
            assert tuple(point) in stored

    def test_recall_is_high(self, built_rsmi, skewed_points):
        """The paper reports recall consistently above 0.87."""
        windows = generate_window_queries(skewed_points, 30, area_fraction=0.001, seed=6)
        recalls = []
        for window in windows:
            truth = brute_force_window(skewed_points, window)
            if truth.shape[0] == 0:
                continue
            result = window_query(built_rsmi, window)
            truth_set = {tuple(p) for p in np.round(truth, 12)}
            found = {tuple(p) for p in np.round(result.points, 12)}
            recalls.append(len(found & truth_set) / len(truth_set))
        assert np.mean(recalls) >= 0.7

    def test_empty_window_returns_empty(self, built_rsmi):
        result = window_query(built_rsmi, Rect(1.5, 1.5, 1.6, 1.6))
        assert result.count == 0
        assert result.points.shape == (0, 2)

    def test_scan_range_recorded(self, built_rsmi):
        result = window_query(built_rsmi, Rect(0.1, 0.0, 0.3, 0.05))
        assert result.scan_begin is not None
        assert result.scan_end is not None
        assert result.scan_begin <= result.scan_end
        assert result.blocks_scanned >= result.scan_end - result.scan_begin + 1

    def test_whole_space_window_returns_everything(self, built_rsmi, skewed_points):
        result = window_query(built_rsmi, Rect(-0.1, -0.1, 1.1, 1.1))
        # scanning from the smallest to the largest corner prediction covers all blocks
        assert result.count == skewed_points.shape[0]


class TestWindowQueryProtocol:
    """``RSMI.window_query`` is the SpatialIndex surface: the points of the
    Algorithm 2 record as a plain array; RSMIa answers with the exact record."""

    def test_rsmi_returns_algorithm_2_points(self, built_rsmi):
        window = Rect(0.1, 0.0, 0.3, 0.05)
        expected = window_query(built_rsmi, window).points
        assert np.array_equal(built_rsmi.window_query(window), expected)

    def test_rsmia_returns_exact_points(self, built_rsmi):
        window = Rect(0.1, 0.0, 0.3, 0.05)
        expected = built_rsmi.window_query_exact(window).points
        assert np.array_equal(built_rsmi.exact_view().window_query(window), expected)


class TestExactWindowQuery:
    def test_matches_brute_force_exactly(self, built_rsmi, skewed_points):
        windows = generate_window_queries(skewed_points, 20, area_fraction=0.002, seed=7)
        for window in windows:
            truth = brute_force_window(skewed_points, window)
            result = built_rsmi.window_query_exact(window)
            assert result.count == truth.shape[0]
            truth_set = {tuple(p) for p in np.round(truth, 12)}
            found = {tuple(p) for p in np.round(result.points, 12)}
            assert found == truth_set

    def test_exact_flag_set(self, built_rsmi):
        assert built_rsmi.window_query_exact(Rect(0.0, 0.0, 0.1, 0.1)).exact
        assert not window_query(built_rsmi, Rect(0.0, 0.0, 0.1, 0.1)).exact

    def test_disjoint_window_returns_empty(self, built_rsmi):
        result = built_rsmi.window_query_exact(Rect(2.0, 2.0, 3.0, 3.0))
        assert result.count == 0


class TestWindowQueryWithZCurve:
    @pytest.fixture(scope="class")
    def z_index(self, skewed_points):
        config = RSMIConfig(
            block_capacity=20,
            partition_threshold=400,
            curve="z",
            training=TrainingConfig(epochs=25),
        )
        return RSMI(config).build(skewed_points)

    def test_z_ordering_window_query_no_false_positives(self, z_index, skewed_points):
        windows = generate_window_queries(skewed_points, 15, area_fraction=0.001, seed=8)
        for window in windows:
            result = window_query(z_index, window)
            if result.count:
                assert np.all(window.contains_points(result.points))

    def test_z_ordering_recall_reasonable(self, z_index, skewed_points):
        windows = generate_window_queries(skewed_points, 20, area_fraction=0.002, seed=9)
        recalls = []
        for window in windows:
            truth = brute_force_window(skewed_points, window)
            if truth.shape[0] == 0:
                continue
            result = window_query(z_index, window)
            truth_set = {tuple(p) for p in np.round(truth, 12)}
            found = {tuple(p) for p in np.round(result.points, 12)}
            recalls.append(len(found & truth_set) / len(truth_set))
        assert np.mean(recalls) >= 0.6
