"""Property-based (hypothesis) tests of the core index invariants.

These cover the invariants DESIGN.md calls out:

1. point queries never miss an indexed point (error-bound correctness),
2. approximate window answers contain no false positives,
3. exact window/kNN answers equal brute force,
4. insertions are immediately queryable and never break earlier points,
5. block packing preserves the multiset of points,

plus the batched-execution invariants: batching is order-insensitive
(permuting the query batch permutes the results), singleton batches equal
single-query calls, and batch results survive an index persistence
round-trip unchanged.

Building an RSMI per example is expensive, so the strategies keep the data
small and the number of examples modest; the deterministic tests elsewhere
cover larger structures.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analytics import QueryRequest
from repro.core import RSMI, RSMIConfig, load_index, save_index
from repro.core.knn import knn_query
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, brute_force_window

FAST = TrainingConfig(epochs=10, seed=0)

SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_index(points: np.ndarray, curve: str = "hilbert") -> RSMI:
    config = RSMIConfig(
        block_capacity=8,
        partition_threshold=120,
        curve=curve,
        training=FAST,
        seed=0,
    )
    return RSMI(config).build(points)


@st.composite
def point_sets(draw, min_size=30, max_size=250):
    """Random point sets with distinct coordinate pairs (paper assumption)."""
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 10_000))
    skew = draw(st.sampled_from([1.0, 2.0, 4.0]))
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    points[:, 1] = points[:, 1] ** skew
    return np.unique(np.round(points, 9), axis=0)


class TestPointQueryInvariant:
    @settings(**SETTINGS)
    @given(points=point_sets())
    def test_no_false_negatives_for_indexed_points(self, points):
        index = build_index(points)
        for x, y in points:
            assert index.contains(float(x), float(y))

    @settings(**SETTINGS)
    @given(points=point_sets(), qx=st.floats(0, 1), qy=st.floats(0, 1))
    def test_query_for_arbitrary_point_never_crashes(self, points, qx, qy):
        index = build_index(points)
        result = index.point_query(qx, qy)
        stored = {(round(float(x), 9), round(float(y), 9)) for x, y in points}
        if (round(qx, 9), round(qy, 9)) not in stored:
            # a point that was never inserted must not be "found"
            assert not result.found or (round(qx, 9), round(qy, 9)) in stored


class TestWindowQueryInvariants:
    @settings(**SETTINGS)
    @given(
        points=point_sets(),
        cx=st.floats(0.05, 0.95),
        cy=st.floats(0.05, 0.95),
        width=st.floats(0.01, 0.4),
        height=st.floats(0.01, 0.4),
    )
    def test_approximate_answers_are_subsets_of_truth(self, points, cx, cy, width, height):
        index = build_index(points)
        window = Rect.from_center(cx, cy, width, height)
        truth = {tuple(p) for p in np.round(brute_force_window(points, window), 9)}
        reported = index.window_query(window)
        for point in np.round(reported, 9):
            assert tuple(point) in truth

    @settings(**SETTINGS)
    @given(
        points=point_sets(),
        cx=st.floats(0.05, 0.95),
        cy=st.floats(0.05, 0.95),
        width=st.floats(0.01, 0.4),
        height=st.floats(0.01, 0.4),
    )
    def test_exact_answers_equal_truth(self, points, cx, cy, width, height):
        index = build_index(points)
        window = Rect.from_center(cx, cy, width, height)
        truth = {tuple(p) for p in np.round(brute_force_window(points, window), 9)}
        reported = {tuple(p) for p in np.round(index.window_query_exact(window).points, 9)}
        assert reported == truth


class TestKnnInvariants:
    @settings(**SETTINGS)
    @given(points=point_sets(), qx=st.floats(0, 1), qy=st.floats(0, 1), k=st.integers(1, 10))
    def test_exact_knn_matches_brute_force(self, points, qx, qy, k):
        index = build_index(points)
        truth = brute_force_knn(points, qx, qy, k)
        truth_dists = np.sort(np.hypot(truth[:, 0] - qx, truth[:, 1] - qy))
        result = index.knn_query_exact(qx, qy, k)
        assert np.allclose(np.sort(result.distances), truth_dists, atol=1e-9)

    @settings(**SETTINGS)
    @given(points=point_sets(), qx=st.floats(0, 1), qy=st.floats(0, 1), k=st.integers(1, 10))
    def test_approximate_knn_returns_k_stored_points(self, points, qx, qy, k):
        index = build_index(points)
        result = knn_query(index, qx, qy, min(k, points.shape[0]))
        assert result.count == min(k, points.shape[0])
        stored = {tuple(p) for p in np.round(points, 9)}
        for point in np.round(result.points, 9):
            assert tuple(point) in stored
        # distances are reported in non-decreasing order
        assert np.all(np.diff(result.distances) >= -1e-12)


class TestUpdateInvariants:
    @settings(**SETTINGS)
    @given(
        points=point_sets(min_size=40, max_size=150),
        inserts=st.lists(
            st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
            min_size=1,
            max_size=25,
            unique=True,
        ),
    )
    def test_inserted_points_always_found(self, points, inserts):
        index = build_index(points)
        for x, y in inserts:
            index.insert(x, y)
        for x, y in inserts:
            assert index.contains(x, y)
        # original points remain reachable
        for x, y in points[:40]:
            assert index.contains(float(x), float(y))

    @settings(**SETTINGS)
    @given(points=point_sets(min_size=40, max_size=150), victim=st.integers(0, 39))
    def test_delete_removes_exactly_one_point(self, points, victim):
        index = build_index(points)
        x, y = map(float, points[victim])
        assert index.delete(x, y)
        assert not index.contains(x, y)
        assert index.n_points == points.shape[0] - 1


class TestBatchEngineInvariants:
    """Invariants of the batched execution path (BatchQueryEngine)."""

    @settings(**SETTINGS)
    @given(points=point_sets(), perm_seed=st.integers(0, 10_000))
    def test_batching_is_order_insensitive(self, points, perm_seed):
        """Permuting the query batch permutes the results and nothing else."""
        index = build_index(points)
        engine = BatchQueryEngine(index)
        rng = np.random.default_rng(perm_seed)
        queries = np.vstack([points[::3], rng.random((15, 2))])
        baseline = engine.execute(QueryRequest.for_points(queries)).values

        perm = rng.permutation(queries.shape[0])
        permuted = engine.execute(QueryRequest.for_points(queries[perm])).values
        assert permuted == [baseline[i] for i in perm]

        windows = [
            Rect.from_center(0.3, 0.3, 0.3, 0.2),
            Rect.from_center(0.7, 0.5, 0.2, 0.4),
            Rect(0.0, 0.0, 1.0, 1.0),
        ]
        window_baseline = engine.execute(QueryRequest.for_windows(windows)).values
        reordered = engine.execute(
            QueryRequest.for_windows([windows[2], windows[0], windows[1]])
        ).values
        for got, want in zip(reordered, [window_baseline[2], window_baseline[0], window_baseline[1]]):
            assert np.array_equal(got, want)

    @settings(**SETTINGS)
    @given(points=point_sets(), qx=st.floats(0, 1), qy=st.floats(0, 1), k=st.integers(1, 8))
    def test_singleton_batch_equals_single_query(self, points, qx, qy, k):
        index = build_index(points)
        engine = BatchQueryEngine(index)
        single = np.array([[qx, qy]])

        assert engine.execute(QueryRequest.for_points(single)).values == [index.contains(qx, qy)]

        window = Rect.from_center(0.5, 0.5, 0.4, 0.3)
        assert np.array_equal(
            engine.execute(QueryRequest.for_windows([window])).values[0],
            index.window_query(window),
        )

        assert np.array_equal(
            engine.execute(QueryRequest.for_knn(single, k)).values[0],
            index.knn_query(qx, qy, k),
        )

    @settings(**SETTINGS)
    @given(points=point_sets(min_size=40, max_size=120))
    def test_batch_results_stable_under_persistence_round_trip(self, points):
        index = build_index(points)
        queries = np.vstack([points[::4], np.array([[0.123, 0.456], [0.9, 0.05]])])
        windows = [Rect.from_center(0.4, 0.4, 0.35, 0.35)]
        before_p = BatchQueryEngine(index).execute(QueryRequest.for_points(queries)).values
        before_w = BatchQueryEngine(index).execute(QueryRequest.for_windows(windows)).values
        before_k = BatchQueryEngine(index).execute(QueryRequest.for_knn(queries[:5], 4)).values

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.rsmi"
            save_index(index, path)
            restored = load_index(path, expected_type=RSMI)

        engine = BatchQueryEngine(restored)
        assert engine.execute(QueryRequest.for_points(queries)).values == before_p
        for got, want in zip(engine.execute(QueryRequest.for_windows(windows)).values, before_w):
            assert np.array_equal(got, want)
        for got, want in zip(engine.execute(QueryRequest.for_knn(queries[:5], 4)).values, before_k):
            assert np.array_equal(got, want)


class TestStorageInvariant:
    @settings(**SETTINGS)
    @given(points=point_sets(), curve=st.sampled_from(["hilbert", "z"]))
    def test_block_packing_preserves_point_multiset(self, points, curve):
        index = build_index(points, curve=curve)
        stored = index.store.all_points()
        assert stored.shape == points.shape
        assert np.allclose(
            np.sort(np.round(stored, 9), axis=0), np.sort(np.round(points, 9), axis=0)
        )
