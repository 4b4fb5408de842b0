"""Batched queries: push whole workloads through the index in one call.

Mirrors ``examples/quickstart.py`` but executes the workloads through
:class:`repro.BatchQueryEngine`, comparing throughput and block accesses
against the sequential per-query loops.  Run with::

    python examples/batched_queries.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import BatchQueryEngine, RSMI, RSMIConfig
from repro.analytics import QueryRequest
from repro.datasets import generate_uniform
from repro.nn import TrainingConfig
from repro.queries import generate_point_queries, generate_window_queries


def main() -> None:
    # 1. build the same scaled-down index as the quickstart
    points = generate_uniform(20_000, seed=7)
    config = RSMIConfig(
        block_capacity=50,
        partition_threshold=2_000,
        training=TrainingConfig(epochs=60),
    )
    index = RSMI(config).build(points)
    print(f"built {index!r}")

    # 2. point queries: 2 000 lookups, sequential loop vs one engine call
    queries = generate_point_queries(points, 2_000, seed=21)
    engine = BatchQueryEngine(index)

    index.stats.reset()
    start = time.perf_counter()
    sequential_found = sum(index.contains(float(x), float(y)) for x, y in queries)
    sequential_s = time.perf_counter() - start
    sequential_accesses = index.stats.total_reads

    start = time.perf_counter()
    batch = engine.execute(QueryRequest.for_points(queries))
    batched_s = time.perf_counter() - start

    assert sum(batch.values) == sequential_found == len(queries)
    print(f"\npoint queries ({len(queries)} lookups, all stored points):")
    print(f"  sequential: {len(queries) / sequential_s:>10.0f} q/s, "
          f"{sequential_accesses} block accesses")
    print(f"  batched:    {len(queries) / batched_s:>10.0f} q/s, "
          f"{batch.access.logical_reads} block accesses "
          f"({sequential_s / batched_s:.1f}x faster)")

    # 3. window queries: identical answers, shared block scans
    windows = generate_window_queries(points, 200, area_fraction=0.0004, seed=22)
    index.stats.reset()
    start = time.perf_counter()
    sequential_results = [index.window_query(w) for w in windows]
    sequential_s = time.perf_counter() - start
    sequential_accesses = index.stats.total_reads

    start = time.perf_counter()
    window_batch = engine.execute(QueryRequest.for_windows(windows))
    batched_s = time.perf_counter() - start

    assert all(
        np.array_equal(got, want)
        for got, want in zip(window_batch.values, sequential_results)
    )
    total_hits = sum(r.shape[0] for r in window_batch.values)
    print(f"\nwindow queries ({len(windows)} windows, {total_hits} result points):")
    print(f"  sequential: {len(windows) / sequential_s:>10.0f} q/s, "
          f"{sequential_accesses} block accesses")
    print(f"  batched:    {len(windows) / batched_s:>10.0f} q/s, "
          f"{window_batch.access.logical_reads} block accesses "
          f"({sequential_s / batched_s:.1f}x faster)")

    # 4. kNN batches run through the uniform per-query path (Algorithm 3 is
    #    adaptive, so there is no vectorised formulation) — same answers
    knn_batch = engine.execute(QueryRequest.for_knn(queries[:50], k=10))
    print(f"\nkNN queries: {knn_batch.n_queries} batched lookups, "
          f"avg {knn_batch.avg_block_accesses:.1f} block accesses/query")


if __name__ == "__main__":
    main()
