"""Benchmarks of the sharded serving layer (``repro.sharding``).

Two claims are asserted at 100k points (override the size with
``REPRO_BENCH_SHARDED_N``):

1. **Batched point-query throughput scales with the shard count.**  With
   the per-query cost of an index growing with its size, dispatching a
   batch across N small shards beats one big index.  The headline assert
   wraps the HRR-tree baseline — whose point lookups descend the tree, so
   per-shard trees are structurally cheaper — and requires the best
   sharded configuration (4+ shards) to reach **≥ 1.5×** the single-index
   :class:`~repro.engine.BatchQueryEngine`.

2. **Window batches touch only the shards they intersect**, asserted via
   the per-shard :class:`~repro.storage.AccessStats` attribution on the
   returned :class:`~repro.analytics.QueryResult` — the spatial
   data-skipping property of partition-aware routing.

A reporting (non-gating) companion measures the RSMI-wrapped sharded
deployment: the RSMI's recursive partitioning already bounds per-leaf
error, so its vectorised single-index engine leaves little single-thread
headroom for sharding (parity, ~1.0–1.3×); sharding an RSMI buys update
isolation, smaller rebuilds and per-shard attribution instead.  The
assertion there is a parity floor, not a speedup.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.datasets import dataset_by_name
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import generate_point_queries
from repro.sharding import (
    RegularGridPolicy,
    ShardedBatchEngine,
    ShardedSpatialIndex,
    shard_index_factory,
)

THROUGHPUT_N = int(os.environ.get("REPRO_BENCH_SHARDED_N", "100000"))
THROUGHPUT_QUERIES = 1_000
SHARD_COUNTS = (4, 8, 16)
MIN_SPEEDUP = 1.5


def _best_of(fn, repeats: int = 5):
    """Best wall-clock of ``repeats`` runs (noise floor on a busy machine)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.fixture(scope="module")
def workload():
    points = dataset_by_name("uniform", THROUGHPUT_N, seed=7)
    queries = generate_point_queries(points, THROUGHPUT_QUERIES, seed=21)
    return points, queries


def test_sharded_point_throughput_scaling(benchmark, workload):
    """Headline: best sharded config ≥ 1.5x the single-index batched engine."""
    points, queries = workload
    single = shard_index_factory("HRR", block_capacity=100)(points, 0)
    single_engine = BatchQueryEngine(single)
    single_s, single_batch = _best_of(lambda: single_engine.execute(QueryRequest.for_points(queries)))

    speedups: dict[int, float] = {}
    best_engine = None
    best_speedup = 0.0
    for n_shards in SHARD_COUNTS:
        factory = shard_index_factory("HRR", block_capacity=100)
        sharded = ShardedSpatialIndex(factory, n_shards=n_shards, policy="grid").build(points)
        engine = ShardedBatchEngine(sharded)
        sharded_s, sharded_batch = _best_of(lambda: engine.execute(QueryRequest.for_points(queries)))
        assert sharded_batch.values == single_batch.values
        speedups[n_shards] = single_s / sharded_s
        if speedups[n_shards] > best_speedup:
            best_speedup = speedups[n_shards]
            best_engine = engine

    benchmark.extra_info.update(
        n_points=THROUGHPUT_N,
        n_queries=len(queries),
        wrapped_kind="HRR",
        single_qps=round(len(queries) / single_s, 1),
        speedups={k: round(v, 2) for k, v in speedups.items()},
    )
    benchmark(lambda: best_engine.execute(QueryRequest.for_points(queries)))
    assert best_speedup >= MIN_SPEEDUP, (
        f"sharded batched point queries only {best_speedup:.2f}x the single-index "
        f"engine (per shard count: { {k: round(v, 2) for k, v in speedups.items()} })"
    )


def test_rsmi_sharded_parity(benchmark, workload):
    """RSMI sharding keeps (does not collapse) vectorised batch throughput."""
    points, queries = workload
    training = TrainingConfig(epochs=30)
    single = shard_index_factory(
        "RSMI", block_capacity=100, partition_threshold=10_000, training=training
    )(points, 0)
    single_engine = BatchQueryEngine(single)
    single_s, single_batch = _best_of(lambda: single_engine.execute(QueryRequest.for_points(queries)), repeats=3)

    factory = shard_index_factory(
        "RSMI",
        block_capacity=100,
        partition_threshold=max(100, 10_000 // 4),
        training=training,
    )
    sharded = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
    engine = ShardedBatchEngine(sharded)
    sharded_s, sharded_batch = _best_of(lambda: engine.execute(QueryRequest.for_points(queries)), repeats=3)
    assert sharded_batch.values == single_batch.values

    ratio = single_s / sharded_s
    benchmark.extra_info.update(
        n_points=THROUGHPUT_N,
        single_qps=round(len(queries) / single_s, 1),
        sharded_qps=round(len(queries) / sharded_s, 1),
        ratio=round(ratio, 2),
    )
    benchmark(lambda: engine.execute(QueryRequest.for_points(queries)))
    # parity floor: the vectorised engine is already level-synchronous, so
    # sharding must at minimum not regress it materially
    assert ratio >= 0.7, f"sharded RSMI collapsed to {ratio:.2f}x of the single engine"


WINDOW_N = 20_000


def test_window_batches_touch_only_intersecting_shards(benchmark):
    """Per-shard AccessStats prove the spatial data-skipping of the router."""
    points = dataset_by_name("uniform", WINDOW_N, seed=9)
    factory = shard_index_factory("HRR", block_capacity=50)
    index = ShardedSpatialIndex(
        factory, policy=RegularGridPolicy(4, nx=2, ny=2)
    ).build(points)
    engine = ShardedBatchEngine(index)

    # one window strictly inside each quadrant: each batch touches only its shard
    quadrant_windows = {
        0: Rect(0.1, 0.1, 0.3, 0.3),
        1: Rect(0.6, 0.1, 0.9, 0.4),
        2: Rect(0.1, 0.6, 0.4, 0.9),
        3: Rect(0.6, 0.6, 0.9, 0.9),
    }
    for shard_id, window in quadrant_windows.items():
        batch = engine.execute(QueryRequest.for_windows([window]))
        assert set(batch.access.per_shard_logical_reads) == {shard_id}, (
            f"window {window.as_tuple()} leaked to shards "
            f"{sorted(batch.access.per_shard_logical_reads)}"
        )

    # a two-shard straddling window touches exactly those two shards
    straddle = Rect(0.3, 0.1, 0.7, 0.4)
    batch = engine.execute(QueryRequest.for_windows([straddle]))
    assert set(batch.access.per_shard_logical_reads) == {0, 1}

    # the full-space window touches everything — completeness, not skipping
    full_batch = engine.execute(QueryRequest.for_windows([Rect.unit()]))
    assert set(full_batch.access.per_shard_logical_reads) == {0, 1, 2, 3}
    assert sum(r.shape[0] for r in full_batch.values) == WINDOW_N

    batch_request = QueryRequest.for_windows(list(quadrant_windows.values()))
    result = benchmark(lambda: engine.execute(batch_request))
    assert set(result.access.per_shard_logical_reads) == {0, 1, 2, 3}
