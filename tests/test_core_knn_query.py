"""Tests of the RSMI kNN query (Algorithm 3) and the exact best-first variant."""

import numpy as np
import pytest

from repro.core.knn import initial_search_region, knn_query
from repro.queries import brute_force_knn, generate_knn_queries


class TestInitialSearchRegion:
    def test_region_scales_with_k(self, built_rsmi):
        small_w, small_h = initial_search_region(built_rsmi, 0.5, 0.05, 1)
        large_w, large_h = initial_search_region(built_rsmi, 0.5, 0.05, 100)
        assert large_w > small_w
        assert large_h > small_h

    def test_skew_adjustment_differs_between_dense_and_sparse_regions(
        self, built_rsmi
    ):
        """αy should differ between the dense band (y ~ 0) and the sparse band
        (y ~ 1) of the skewed data set."""
        _, dense_h = initial_search_region(built_rsmi, 0.5, 0.02, 10)
        _, sparse_h = initial_search_region(built_rsmi, 0.5, 0.9, 10)
        assert sparse_h > dense_h


class TestApproximateKNN:
    def test_invalid_k_raises(self, built_rsmi):
        with pytest.raises(ValueError):
            knn_query(built_rsmi, 0.5, 0.5, 0)

    def test_returns_k_points(self, built_rsmi):
        result = knn_query(built_rsmi, 0.4, 0.05, 10)
        assert result.count == 10
        assert result.distances.shape == (10,)
        assert np.all(np.diff(result.distances) >= 0)  # sorted by distance

    def test_reported_points_are_stored_points(self, built_rsmi, skewed_points):
        result = knn_query(built_rsmi, 0.4, 0.05, 10)
        stored = {tuple(p) for p in np.round(skewed_points, 12)}
        for point in np.round(result.points, 12):
            assert tuple(point) in stored

    def test_recall_against_brute_force(self, built_rsmi, skewed_points):
        """The paper reports kNN recall above ~0.88."""
        queries = generate_knn_queries(skewed_points, 30, seed=3)
        recalls = []
        for x, y in queries:
            truth = brute_force_knn(skewed_points, float(x), float(y), 10)
            result = knn_query(built_rsmi, float(x), float(y), 10)
            truth_set = {tuple(p) for p in np.round(truth, 12)}
            found = {tuple(p) for p in np.round(result.points, 12)}
            recalls.append(len(found & truth_set) / len(truth_set))
        assert np.mean(recalls) >= 0.7

    def test_k_larger_than_dataset(self, built_rsmi, skewed_points):
        result = knn_query(built_rsmi, 0.5, 0.5, skewed_points.shape[0] + 50)
        assert result.count <= skewed_points.shape[0]
        assert result.count > 0

    def test_k_equals_one_finds_a_close_point(self, built_rsmi, skewed_points):
        x, y = map(float, skewed_points[17])
        result = knn_query(built_rsmi, x, y, 1)
        assert result.count == 1
        assert result.distances[0] <= 1e-9  # the query point itself is stored

    def test_expansions_recorded(self, built_rsmi):
        result = knn_query(built_rsmi, 0.9, 0.9, 5)
        assert result.expansions >= 1


class TestKNNProtocol:
    def test_rsmi_returns_algorithm_3_points(self, built_rsmi):
        assert np.array_equal(
            built_rsmi.knn_query(0.4, 0.05, 10), knn_query(built_rsmi, 0.4, 0.05, 10).points
        )

    def test_rsmia_returns_exact_points(self, built_rsmi):
        assert np.array_equal(
            built_rsmi.exact_view().knn_query(0.4, 0.05, 10),
            built_rsmi.knn_query_exact(0.4, 0.05, 10).points,
        )


class TestExactKNN:
    def test_matches_brute_force(self, built_rsmi, skewed_points):
        queries = generate_knn_queries(skewed_points, 20, seed=4)
        for x, y in queries:
            truth = brute_force_knn(skewed_points, float(x), float(y), 8)
            result = built_rsmi.knn_query_exact(float(x), float(y), 8)
            truth_dists = np.sort(np.hypot(truth[:, 0] - x, truth[:, 1] - y))
            assert np.allclose(np.sort(result.distances), truth_dists)

    def test_invalid_k_raises(self, built_rsmi):
        with pytest.raises(ValueError):
            built_rsmi.knn_query_exact(0.5, 0.5, 0)

    def test_exact_flag(self, built_rsmi):
        assert built_rsmi.knn_query_exact(0.5, 0.5, 3).exact
        assert not knn_query(built_rsmi, 0.5, 0.5, 3).exact

    def test_uniform_data_exact_knn(self, built_rsmi_uniform, uniform_points):
        truth = brute_force_knn(uniform_points, 0.5, 0.5, 15)
        result = built_rsmi_uniform.knn_query_exact(0.5, 0.5, 15)
        truth_dists = np.sort(np.hypot(truth[:, 0] - 0.5, truth[:, 1] - 0.5))
        assert np.allclose(np.sort(result.distances), truth_dists)
