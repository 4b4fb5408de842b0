"""Differential harness: the batched engine vs. the sequential paths vs. truth.

Randomized point / window / kNN workloads run through
:class:`repro.engine.BatchQueryEngine` against RSMI and all four baseline
indices (Grid, KDB, RR*, ZM) over three data distributions, asserting

* **exact agreement** with the existing sequential query paths (the
  per-query loops in :mod:`tests.reference_loops`) for every index and query
  type — the engine must be a pure execution-strategy change, and
* consistency with :mod:`repro.queries.ground_truth`: point-query answers
  equal set membership; window/kNN answers equal brute force for the exact
  indices and are sound (no false positives, stored points only) for the
  learned approximate ones (RSMI, ZM).

The ``slow``-marked cases rerun the same differential properties on larger
randomized workloads; they are skipped unless ``--runslow`` is given.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.core import RSMIa, RSMIConfig
from tests.reference_loops import batch_knn_queries, batch_point_queries, batch_window_queries
from repro.engine import ENGINE_MODES, BatchQueryEngine
from repro.datasets import dataset_by_name
from repro.evaluation.adapters import build_index_suite
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, brute_force_window, generate_window_queries

DISTRIBUTIONS = ("uniform", "skewed", "osm")
#: RSMI plus the four baseline families behind the common SpatialIndex
#: protocol (both R-tree variants included)
INDEX_NAMES = ("Grid", "HRR", "KDB", "RR*", "ZM", "RSMI")
EXACT_INDICES = ("Grid", "HRR", "KDB", "RR*")

N_POINTS = 500
K = 7


def _build_suites(n_points: int, epochs: int, seed: int):
    suites = {}
    for i, distribution in enumerate(DISTRIBUTIONS):
        points = dataset_by_name(distribution, n_points, seed=seed + i)
        suites[distribution] = (
            points,
            build_index_suite(
                points,
                index_names=INDEX_NAMES,
                block_capacity=16,
                partition_threshold=150,
                training=TrainingConfig(epochs=epochs, seed=0),
                seed=0,
            ),
        )
    return suites


@pytest.fixture(scope="module")
def suites():
    return _build_suites(N_POINTS, epochs=10, seed=100)


def _point_workload(points: np.ndarray, n_hits: int, n_misses: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hits = points[rng.integers(0, points.shape[0], size=n_hits)]
    misses = rng.random((n_misses, 2))
    queries = np.vstack([hits, misses])
    rng.shuffle(queries)
    return queries


def _as_point_set(points: np.ndarray) -> set:
    return {tuple(p) for p in np.round(np.asarray(points, dtype=float).reshape(-1, 2), 12)}


def _assert_differential(index, name, points, *, n_point, n_window, n_knn, seed):
    """The shared differential property, reused by the fast and slow cases."""
    stored = _as_point_set(points)

    # -- point queries ---------------------------------------------------------
    queries = _point_workload(points, n_point, n_point // 2, seed)
    sequential = batch_point_queries(index, queries)
    batched = BatchQueryEngine(index).execute(QueryRequest.for_points(queries))
    assert batched.values == sequential.results, f"{name}: batched != sequential (point)"
    truth = [tuple(q) in stored for q in np.round(queries, 12)]
    assert batched.values == truth, f"{name}: batched != ground truth (point)"

    # -- window queries --------------------------------------------------------
    windows = generate_window_queries(points, n_window, area_fraction=0.004, seed=seed + 1)
    sequential_w = batch_window_queries(index, windows)
    batched_w = BatchQueryEngine(index).execute(QueryRequest.for_windows(windows))
    assert len(batched_w.values) == len(windows)
    for window, got, want in zip(windows, batched_w.values, sequential_w.results):
        assert np.array_equal(got, want), f"{name}: batched != sequential (window)"
        truth_points = brute_force_window(points, window)
        if name in EXACT_INDICES:
            assert _as_point_set(got) == _as_point_set(truth_points), name
        else:
            assert _as_point_set(got) <= _as_point_set(truth_points), name

    # -- kNN queries -----------------------------------------------------------
    knn_queries = _point_workload(points, n_knn, 0, seed + 2)
    sequential_k = batch_knn_queries(index, knn_queries, K)
    batched_k = BatchQueryEngine(index).execute(QueryRequest.for_knn(knn_queries, K))
    for (x, y), got, want in zip(knn_queries, batched_k.values, sequential_k.results):
        assert np.array_equal(got, want), f"{name}: batched != sequential (kNN)"
        assert got.shape[0] == K
        assert _as_point_set(got) <= stored, name
        if name in EXACT_INDICES:
            truth_knn = brute_force_knn(points, float(x), float(y), K)
            got_dists = np.sort(np.hypot(got[:, 0] - x, got[:, 1] - y))
            truth_dists = np.sort(np.hypot(truth_knn[:, 0] - x, truth_knn[:, 1] - y))
            assert np.allclose(got_dists, truth_dists, atol=1e-12), name


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("name", INDEX_NAMES)
def test_differential_all_indices(suites, distribution, name):
    points, indices = suites[distribution]
    _assert_differential(
        indices[name], name, points, n_point=60, n_window=8, n_knn=6, seed=7
    )


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_sequential_mode_matches_reference(suites, name):
    """``mode="sequential"`` forces the per-query loop: identical results
    and identical block reads to the reference helpers."""
    points, indices = suites["skewed"]
    index = indices[name]
    queries = _point_workload(points, 40, 20, 31)
    windows = generate_window_queries(points, 5, area_fraction=0.004, seed=32)

    engine = BatchQueryEngine(index, mode="sequential")
    got_p = engine.execute(QueryRequest.for_points(queries))
    want_p = batch_point_queries(index, queries)
    assert got_p.values == want_p.results
    assert got_p.access.logical_reads == want_p.total_block_accesses
    for got, want in zip(
        engine.execute(QueryRequest.for_windows(windows)).values,
        batch_window_queries(index, windows).results,
    ):
        assert np.array_equal(got, want)
    knn_queries = points[:6]
    for got, want in zip(
        engine.execute(QueryRequest.for_knn(knn_queries, K)).values,
        batch_knn_queries(index, knn_queries, K).results,
    ):
        assert np.array_equal(got, want)


def test_engine_modes(suites):
    assert ENGINE_MODES == ("auto", "sequential")
    with pytest.raises(TypeError):
        BatchQueryEngine(suites["uniform"][1]["Grid"], n_workers=2)


@pytest.mark.parametrize("mode", ["threaded", "vectorized", "warp"])
@pytest.mark.parametrize("name", ["Grid", "RSMI"])
def test_unknown_mode_rejected(suites, name, mode):
    """Only ``auto`` and ``sequential`` exist; the removed thread-pool and
    RSMI-only modes are rejected like any other unknown name."""
    _, indices = suites["uniform"]
    with pytest.raises(ValueError, match="unknown engine mode"):
        BatchQueryEngine(indices[name], mode=mode)


def test_batched_point_path_saves_block_accesses(suites):
    """The engine's reason to exist: far fewer block reads per batch."""
    points, indices = suites["skewed"]
    index = indices["RSMI"]
    queries = points[::2]
    sequential = batch_point_queries(index, queries)
    batched = BatchQueryEngine(index).execute(QueryRequest.for_points(queries))
    assert batched.values == sequential.results
    assert batched.access.logical_reads < sequential.total_block_accesses


def test_rsmia_stays_on_exact_path(suites):
    """RSMIa: point queries vectorize, window/kNN stay on the exact algorithms.

    The engine dispatches on the kind's declared ``supports_exact_results``
    — routing RSMIa windows through the vectorised *approximate* path would
    silently destroy its recall=1.0 guarantee in the experiment results.
    """
    points, _ = suites["skewed"]
    config = RSMIConfig(
        block_capacity=16,
        partition_threshold=150,
        training=TrainingConfig(epochs=10, seed=0),
        seed=0,
    )
    index = RSMIa(config).build(points)
    engine = BatchQueryEngine(index)

    queries = _point_workload(points, 40, 20, 53)
    got_points = engine.execute(QueryRequest.for_points(queries)).values
    assert got_points == batch_point_queries(index, queries).results

    windows = generate_window_queries(points, 6, area_fraction=0.004, seed=54)
    batched = engine.execute(QueryRequest.for_windows(windows))
    sequential = batch_window_queries(index, windows)
    # the same per-query MBR traversal: same answers and the same reads
    assert batched.access.logical_reads == sequential.total_block_accesses
    for window, got, want in zip(windows, batched.values, sequential.results):
        assert np.array_equal(got, want)
        # exact recall: precisely the brute-force answer, not a subset
        assert _as_point_set(got) == _as_point_set(brute_force_window(points, window))

    knn_queries = points[:5]
    for (x, y), got, want in zip(
        knn_queries,
        engine.execute(QueryRequest.for_knn(knn_queries, K)).values,
        batch_knn_queries(index, knn_queries, K).results,
    ):
        assert np.array_equal(got, want)
        truth = brute_force_knn(points, float(x), float(y), K)
        assert np.allclose(
            np.sort(np.hypot(*(got - (x, y)).T)), np.sort(np.hypot(*(truth - (x, y)).T))
        )


@pytest.mark.slow
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("name", INDEX_NAMES)
def test_differential_large_randomized(distribution, name):
    """The same differential property over much larger randomized workloads."""
    points = dataset_by_name(distribution, 2_500, seed=900 + INDEX_NAMES.index(name))
    suite = build_index_suite(
        points,
        index_names=[name],
        block_capacity=25,
        partition_threshold=400,
        training=TrainingConfig(epochs=20, seed=1),
        seed=1,
    )
    _assert_differential(
        suite[name], name, points, n_point=400, n_window=40, n_knn=30, seed=77
    )
