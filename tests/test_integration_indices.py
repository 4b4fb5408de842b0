"""Cross-index integration tests.

These tests treat every index uniformly through the SpatialIndex protocol and
check the guarantees the paper relies on when comparing them:

* exact indices (Grid, KDB, HRR, RR*, RSMIa) return precisely the brute-force
  answer for window and kNN queries,
* learned approximate indices (RSMI, ZM) never return false positives for
  window queries and always find indexed points with point queries.
"""

import numpy as np
import pytest

from repro.evaluation.adapters import build_index_suite
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, brute_force_window, generate_window_queries

EXACT_INDICES = ("Grid", "HRR", "KDB", "RR*", "RSMIa")
APPROXIMATE_INDICES = ("RSMI", "ZM")
ALL_INDICES = EXACT_INDICES + APPROXIMATE_INDICES


@pytest.fixture(scope="module")
def suite(clustered_points):
    return build_index_suite(
        clustered_points,
        index_names=ALL_INDICES,
        block_capacity=20,
        partition_threshold=400,
        training=TrainingConfig(epochs=25),
        seed=0,
    )


@pytest.fixture(scope="module")
def windows(clustered_points):
    return generate_window_queries(clustered_points, 12, area_fraction=0.002, seed=3)


class TestPointQueriesAcrossIndices:
    @pytest.mark.parametrize("name", ALL_INDICES)
    def test_all_indexed_points_found(self, name, suite, clustered_points):
        index = suite[name]
        sample = clustered_points[::7]
        for x, y in sample:
            assert index.contains(float(x), float(y)), name

    @pytest.mark.parametrize("name", ALL_INDICES)
    def test_missing_point_not_found(self, name, suite):
        assert not suite[name].contains(0.123454321, 0.567898765)


class TestWindowQueriesAcrossIndices:
    @pytest.mark.parametrize("name", EXACT_INDICES)
    def test_exact_indices_match_brute_force(self, name, suite, clustered_points, windows):
        index = suite[name]
        for window in windows:
            truth = brute_force_window(clustered_points, window)
            reported = index.window_query(window)
            assert reported.shape[0] == truth.shape[0], name

    @pytest.mark.parametrize("name", APPROXIMATE_INDICES)
    def test_approximate_indices_have_no_false_positives(
        self, name, suite, clustered_points, windows
    ):
        index = suite[name]
        stored = {tuple(p) for p in np.round(clustered_points, 12)}
        for window in windows:
            reported = index.window_query(window)
            for point in np.round(reported, 12):
                assert window.contains_point(*point), name
                assert tuple(point) in stored, name


class TestKnnQueriesAcrossIndices:
    @pytest.mark.parametrize("name", EXACT_INDICES)
    def test_exact_knn_matches_brute_force(self, name, suite, clustered_points):
        index = suite[name]
        for x, y in clustered_points[:10]:
            truth = brute_force_knn(clustered_points, float(x), float(y), 5)
            reported = index.knn_query(float(x), float(y), 5)
            truth_dists = np.sort(np.hypot(truth[:, 0] - x, truth[:, 1] - y))
            reported_dists = np.sort(np.hypot(reported[:, 0] - x, reported[:, 1] - y))
            assert np.allclose(truth_dists, reported_dists), name

    @pytest.mark.parametrize("name", APPROXIMATE_INDICES)
    def test_approximate_knn_returns_stored_points(self, name, suite, clustered_points):
        index = suite[name]
        stored = {tuple(p) for p in np.round(clustered_points, 12)}
        reported = index.knn_query(0.4, 0.6, 8)
        assert reported.shape[0] == 8
        for point in np.round(reported, 12):
            assert tuple(point) in stored, name


class TestUpdatesAcrossIndices:
    @pytest.mark.parametrize("name", ALL_INDICES)
    def test_insert_then_query_every_index(self, name, clustered_points):
        # fresh single-index suite so mutations stay isolated per test
        indices = build_index_suite(
            clustered_points[:400],
            index_names=[name] if name != "RSMIa" else ["RSMI", "RSMIa"],
            block_capacity=20,
            partition_threshold=400,
            training=TrainingConfig(epochs=15),
        )
        index = indices[name]
        index.insert(0.515151, 0.626262)
        assert index.contains(0.515151, 0.626262), name
        assert index.delete(0.515151, 0.626262), name
        assert not index.contains(0.515151, 0.626262), name
