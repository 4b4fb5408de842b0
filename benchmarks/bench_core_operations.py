"""Micro-benchmarks of the core RSMI operations.

Unlike the experiment benchmarks (which regenerate whole paper figures in a
single round), these measure individual operations — index construction,
point query, window query, kNN query — with pytest-benchmark's normal
statistics so regressions in the hot paths are visible.

The query benchmarks run each workload in both the **sequential** per-query
mode and the **batched** mode (:class:`repro.engine.BatchQueryEngine`) and
record queries/second plus the :class:`AccessStats` block-access totals in
``extra_info``, so a batched speedup is attributable to the blocks it stopped
re-reading.  ``test_point_query_batched_speedup`` additionally asserts the
engine's headline win — ≥3× point-query throughput over the sequential path
on a large uniform data set (100k points by default; override with
``REPRO_BENCH_THROUGHPUT_N``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.core import RSMI, RSMIConfig
from repro.datasets import dataset_by_name
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import generate_point_queries, generate_window_queries


N_POINTS = 4_000
CONFIG = RSMIConfig(
    block_capacity=25,
    partition_threshold=500,
    training=TrainingConfig(epochs=30),
)

THROUGHPUT_N = int(os.environ.get("REPRO_BENCH_THROUGHPUT_N", "100000"))
THROUGHPUT_QUERIES = 2_000


@pytest.fixture(scope="module")
def skewed_points():
    return dataset_by_name("skewed", N_POINTS, seed=3)


@pytest.fixture(scope="module")
def built_index(skewed_points):
    return RSMI(CONFIG).build(skewed_points)


def _record_query_stats(benchmark, index, mode: str, n_queries: int) -> None:
    """Attach attribution data: executed mode, workload size, block accesses."""
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["n_queries"] = n_queries
    benchmark.extra_info["block_accesses"] = index.stats.total_reads
    mean = benchmark.stats.stats.mean if benchmark.stats is not None else None
    if mean:
        benchmark.extra_info["queries_per_second"] = round(n_queries / mean, 1)


def test_rsmi_build(benchmark, skewed_points):
    index = benchmark.pedantic(
        lambda: RSMI(CONFIG).build(skewed_points), iterations=1, rounds=1, warmup_rounds=0
    )
    assert index.n_points == N_POINTS


def test_rsmi_point_query_sequential(benchmark, built_index, skewed_points):
    queries = skewed_points[:200]

    def run():
        built_index.stats.reset()
        return sum(built_index.contains(float(x), float(y)) for x, y in queries)

    found = benchmark(run)
    assert found == len(queries)
    _record_query_stats(benchmark, built_index, "sequential", len(queries))


def test_rsmi_point_query_batched(benchmark, built_index, skewed_points):
    queries = skewed_points[:200]
    engine = BatchQueryEngine(built_index)

    def run():
        return sum(engine.execute(QueryRequest.for_points(queries)).values)

    found = benchmark(run)
    assert found == len(queries)
    _record_query_stats(benchmark, built_index, "batched", len(queries))


def test_rsmi_window_query_sequential(benchmark, built_index):
    window = Rect(0.2, 0.0, 0.4, 0.05)

    def run():
        built_index.stats.reset()
        return built_index.window_query(window)

    result = benchmark(run)
    assert result.shape[1] == 2
    _record_query_stats(benchmark, built_index, "sequential", 1)


def test_rsmi_window_query_batched(benchmark, built_index, skewed_points):
    windows = generate_window_queries(skewed_points, 20, area_fraction=0.001, seed=5)
    engine = BatchQueryEngine(built_index)

    result = benchmark(lambda: engine.execute(QueryRequest.for_windows(windows)))
    assert result.n_queries == len(windows)
    _record_query_stats(benchmark, built_index, "batched", len(windows))


def test_rsmi_knn_query(benchmark, built_index):
    def run():
        built_index.stats.reset()
        return built_index.knn_query(0.35, 0.02, 10)

    result = benchmark(run)
    assert result.shape == (10, 2)
    _record_query_stats(benchmark, built_index, "sequential", 1)


def test_rsmi_insert_then_delete(benchmark, built_index):
    rng = np.random.default_rng(9)

    def run():
        x, y = rng.random(), rng.random()
        built_index.insert(x, y)
        assert built_index.delete(x, y)

    benchmark(run)


def test_point_query_batched_speedup(benchmark):
    """Acceptance check: batched ≥3× sequential point-query throughput at scale."""
    points = dataset_by_name("uniform", THROUGHPUT_N, seed=7)
    index = RSMI(
        RSMIConfig(
            block_capacity=100,
            partition_threshold=10_000,
            training=TrainingConfig(epochs=30),
        )
    ).build(points)
    queries = generate_point_queries(points, THROUGHPUT_QUERIES, seed=21)
    engine = BatchQueryEngine(index)

    index.stats.reset()
    start = time.perf_counter()
    sequential_found = sum(index.contains(float(x), float(y)) for x, y in queries)
    sequential_s = time.perf_counter() - start
    sequential_accesses = index.stats.total_reads

    def run_batched():
        return sum(engine.execute(QueryRequest.for_points(queries)).values)

    batched_found = benchmark(run_batched)
    assert batched_found == sequential_found == len(queries)

    if benchmark.stats is not None:
        batched_s = benchmark.stats.stats.mean
    else:  # --benchmark-disable: time the batched run directly
        start = time.perf_counter()
        run_batched()
        batched_s = time.perf_counter() - start
    batched_accesses = index.stats.total_reads
    speedup = sequential_s / batched_s
    benchmark.extra_info.update(
        n_points=THROUGHPUT_N,
        n_queries=len(queries),
        sequential_qps=round(len(queries) / sequential_s, 1),
        batched_qps=round(len(queries) / batched_s, 1),
        sequential_block_accesses=sequential_accesses,
        batched_block_accesses=batched_accesses,
        speedup=round(speedup, 2),
    )
    assert speedup >= 3.0, (
        f"batched point queries only {speedup:.2f}x faster than sequential "
        f"({sequential_s:.3f}s vs {batched_s:.3f}s for {len(queries)} queries)"
    )
