"""The per-request RSMI path against the computations it replaced.

* a point query reports the error range it searched (``scan_begin`` /
  ``scan_end``), equal to ``leaf.scan_range``;
* the one-descent-per-corner ``window_block_range`` equals the former
  two-descent computation (a point query, then a second descent and leaf
  prediction for every unlocated corner), with equal logical reads;
* engine point batches (compare against the chain array, hashed lookups past
  ``HASH_AFTER_PROBES``) answer like the sequential ``contains`` and read
  exactly the chains a per-query scan of the error ranges touches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.core import RSMI, RSMIConfig
from repro.core.window import window_block_range, window_corner_points
from repro.engine import BatchQueryEngine
from repro.engine.engine import HASH_AFTER_PROBES
from repro.geometry import Rect

from tests.conftest import FAST_TRAINING


def _two_descent_block_range(index, window: Rect) -> tuple[int, int]:
    """``window_block_range`` as computed before one descent served each corner."""
    lower, upper = [], []
    for cx, cy in window_corner_points(window, index.config.curve):
        result = index.point_query(cx, cy)
        if result.found:
            lower.append(result.position)
            upper.append(result.position)
            continue
        leaf, _, _ = index.route_to_leaf(cx, cy)
        predicted = leaf.predict_position(cx, cy)
        lower.append(max(leaf.first_position, predicted - leaf.err_below))
        upper.append(min(leaf.last_position, predicted + leaf.err_above))
    begin = index.store.clamp_position(min(lower))
    end = index.store.clamp_position(max(upper))
    return (end, begin) if begin > end else (begin, end)


def _reads(index, fn, *args):
    index.stats.reset()
    value = fn(*args)
    return value, index.stats.total_reads


def _windows(points: np.ndarray, seed: int, n: int = 60) -> list[Rect]:
    """Random windows, half of them spanned by stored points (located corners)."""
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(n):
        if i % 2:
            a, b = points[rng.integers(0, points.shape[0], size=2)]
        else:
            a, b = rng.uniform(-0.1, 1.1, size=(2, 2))
        windows.append(Rect(min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])))
    return windows


@pytest.fixture(scope="module")
def zcurve_rsmi(skewed_points) -> RSMI:
    config = RSMIConfig(
        block_capacity=20, partition_threshold=400, curve="z", training=FAST_TRAINING, seed=0
    )
    return RSMI(config).build(skewed_points)


def test_point_query_reports_the_searched_range(built_rsmi, skewed_points):
    rng = np.random.default_rng(4)
    hits = skewed_points[rng.integers(0, skewed_points.shape[0], size=50)]
    misses = rng.uniform(-0.2, 1.2, size=(50, 2))
    for x, y in np.vstack([hits, misses]).tolist():
        result = built_rsmi.point_query(x, y)
        leaf, _, _ = built_rsmi.route_to_leaf(x, y)
        assert (result.scan_begin, result.scan_end) == leaf.scan_range(x, y)
        if result.found:
            assert result.scan_begin <= result.position <= result.scan_end


@pytest.mark.parametrize("curve", ["hilbert", "z"])
def test_window_block_range_equals_two_descent_range(curve, built_rsmi, zcurve_rsmi, skewed_points):
    index = built_rsmi if curve == "hilbert" else zcurve_rsmi
    for window in _windows(skewed_points, seed=len(curve)):
        got, got_reads = _reads(index, window_block_range, index, window)
        expected, expected_reads = _reads(index, _two_descent_block_range, index, window)
        assert got == expected
        assert got_reads == expected_reads


def _touched_chain_reads(index, queries: np.ndarray) -> int:
    """Logical reads of reading, once each, every chain a per-query scan of
    the error range touches until it finds the query point."""
    touched = set()
    for x, y in queries.tolist():
        leaf, _, _ = index.route_to_leaf(x, y)
        begin, end = leaf.scan_range(x, y)
        for position in range(begin, end + 1):
            touched.add(position)
            if any(block.contains(x, y) for block in index.store.iter_chain(position)):
                break
    index.stats.reset()
    for position in touched:
        for _ in index.store.iter_chain(position):
            pass
    return index.stats.total_reads


@pytest.mark.parametrize("size", [1, 16, 128, 2000])
@pytest.mark.parametrize("hit_share", [1.0, 0.0, 0.5])
def test_engine_point_batches_equal_sequential_contains(size, hit_share, built_rsmi, skewed_points):
    rng = np.random.default_rng(size)
    n_hits = int(size * hit_share)
    hits = skewed_points[rng.integers(0, skewed_points.shape[0], size=n_hits)]
    misses = rng.uniform(0.0, 1.0, size=(size - n_hits, 2))
    queries = rng.permutation(np.vstack([hits, misses]))
    expected = [built_rsmi.contains(x, y) for x, y in queries.tolist()]
    expected_reads = _touched_chain_reads(built_rsmi, queries)

    result = BatchQueryEngine(built_rsmi).execute(QueryRequest.for_points(queries))
    assert result.values == expected
    assert result.access.logical_reads == expected_reads


def test_hashed_chain_probes_answer_like_array_compares(built_rsmi):
    """Past HASH_AFTER_PROBES probes a chain answers from its hashed point
    set (a 2000-row batch gets there), agreeing with the array compares of
    the first probes on hits and misses."""
    engine = BatchQueryEngine(built_rsmi)
    stored = np.vstack([block.points() for block in built_rsmi.store.iter_chain(0)]).tolist()
    queries = [(x, y) for x, y in stored] + [(x, y + 1e-9) for x, y in stored]
    expected = [True] * len(stored) + [False] * len(stored)
    cache: dict = {}
    probes: dict = {}
    hashed: dict = {}
    answers = [engine._chain_holds(0, x, y, cache, probes, hashed) for x, y in queries]
    assert probes[0] == HASH_AFTER_PROBES and 0 in hashed
    assert answers == expected


@pytest.mark.parametrize("repeats", [1, 2000])
def test_signed_zero_queries_match_below_and_past_the_hash_threshold(repeats):
    points = np.random.default_rng(5).uniform(0.1, 1.0, size=(200, 2))
    points[:3] = [[0.0, 0.5], [0.3, 0.0], [0.0, 0.0]]
    config = RSMIConfig(block_capacity=8, partition_threshold=400, training=FAST_TRAINING)
    index = RSMI(config).build(points)
    queries = np.tile([[-0.0, 0.5], [0.3, -0.0], [-0.0, -0.0], [-0.0, 0.25]], (repeats, 1))
    expected = [index.contains(x, y) for x, y in queries.tolist()]
    assert expected[:4] == [True, True, True, False]
    assert BatchQueryEngine(index).execute(QueryRequest.for_points(queries)).values == expected
