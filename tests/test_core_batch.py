"""Tests of the batch query helpers."""

import numpy as np
import pytest

from tests.reference_loops import batch_knn_queries, batch_point_queries, batch_window_queries
from repro.evaluation.adapters import build_index_suite
from repro.geometry import Rect
from repro.queries import brute_force_window, generate_window_queries


class TestBatchPointQueries:
    def test_results_in_input_order(self, built_rsmi, skewed_points):
        queries = np.vstack([skewed_points[:5], [[0.123, 0.456]]])
        batch = batch_point_queries(built_rsmi, queries)
        assert batch.n_queries == 6
        assert batch.results[:5] == [True] * 5
        assert batch.results[5] is False

    def test_block_accesses_accumulated(self, built_rsmi, skewed_points):
        batch = batch_point_queries(built_rsmi, skewed_points[:20])
        assert batch.total_block_accesses >= 20
        assert batch.avg_block_accesses >= 1.0


class TestBatchWindowQueries:
    def test_approximate_and_exact(self, built_rsmi, skewed_points):
        windows = generate_window_queries(skewed_points, 5, area_fraction=0.002, seed=1)
        approx = batch_window_queries(built_rsmi, windows)
        exact = batch_window_queries(built_rsmi.exact_view(), windows)
        assert approx.n_queries == exact.n_queries == 5
        for window, exact_result in zip(windows, exact.results):
            truth = brute_force_window(skewed_points, window)
            assert exact_result.shape[0] == truth.shape[0]
        for approx_result, exact_result in zip(approx.results, exact.results):
            assert approx_result.shape[0] <= exact_result.shape[0]

    def test_works_with_baselines(self, uniform_points):
        grid = build_index_suite(uniform_points, index_names=["Grid"], block_capacity=20)["Grid"]
        windows = [Rect(0.1, 0.1, 0.3, 0.3), Rect(0.6, 0.6, 0.8, 0.8)]
        batch = batch_window_queries(grid, windows)
        assert batch.n_queries == 2
        for window, result in zip(windows, batch.results):
            assert result.shape[0] == brute_force_window(uniform_points, window).shape[0]


class TestBatchKnnQueries:
    def test_returns_k_points_per_query(self, built_rsmi, skewed_points):
        queries = skewed_points[:4]
        batch = batch_knn_queries(built_rsmi, queries, k=5)
        assert batch.n_queries == 4
        for result in batch.results:
            assert result.shape == (5, 2)

    def test_exact_kind(self, built_rsmi, skewed_points):
        batch = batch_knn_queries(built_rsmi.exact_view(), skewed_points[:3], k=3)
        for result in batch.results:
            assert result.shape == (3, 2)

    def test_invalid_k(self, built_rsmi, skewed_points):
        with pytest.raises(ValueError):
            batch_knn_queries(built_rsmi, skewed_points[:2], k=0)

    def test_empty_batch(self, built_rsmi):
        batch = batch_knn_queries(built_rsmi, np.empty((0, 2)), k=3)
        assert batch.n_queries == 0
        assert batch.avg_block_accesses is None
