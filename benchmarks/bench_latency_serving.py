"""Benchmark of the latency-measurement subsystem (``repro.workloads.latency``).

Three serving claims, each persisted machine-readably to
``benchmarks/results/BENCH_latency.json`` (and mirrored to the committed
repo-root canonical snapshot):

* **Closed vs open loop** — replaying the ``latency-hotspot`` scenario
  closed-loop measures the server's capacity; re-offering the same stream
  open-loop at 1.5x that capacity must push p99 *sojourn* (queueing delay
  included, via the virtual clock) above the closed-loop p99, while the
  service percentiles stay in the same regime.
* **Per-shard breakdown** — one-point requests against a sharded
  deployment, each timed by the caller and grouped by the shard that owns
  its point; under hotspot traffic the hot shard carries most of the load,
  and the per-shard groups must account for every query.
* **Multi-tenant fairness** — N identically-shaped tenants merged by
  arrival time experience statistically similar latency: Jain's fairness
  index over their mean sojourns stays high.

Wall-clock milliseconds vary per machine; the *gated* metrics (see
``tools/check_bench.py``) are the machine-independent ones — ratios, counts
and fairness — while raw percentiles are recorded for trajectory inspection.
Override the data size with ``REPRO_BENCH_LATENCY_N``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import record_bench_result
from repro.analytics import QueryRequest
from repro.baselines import KDBTree
from repro.datasets import dataset_by_name
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory
from repro.workloads import (
    MultiTenantOracle,
    ScenarioRunner,
    generate_tenant_operations,
    scenario_by_name,
)

LATENCY_N = int(os.environ.get("REPRO_BENCH_LATENCY_N", "20000"))
BLOCK_CAPACITY = 50
N_OPS = 2_000
N_SHARDS = 4
N_TENANTS = 3
#: open-loop offered load relative to the measured closed-loop capacity
OVERLOAD_FRACTION = 1.5

RESULTS_FILE = "BENCH_latency.json"
#: only default-budget runs refresh the committed repo-root snapshot
_CANONICAL = LATENCY_N == 20000


def _record(name: str, payload: dict) -> None:
    record_bench_result(RESULTS_FILE, name, payload, canonical=_CANONICAL)


def _points():
    return dataset_by_name("uniform", LATENCY_N, seed=3)


def _spec():
    return scenario_by_name("latency-hotspot").with_overrides(
        n_ops=N_OPS, snapshot_every=max(1, N_OPS // 2), seed=11
    )


def _p99_ms(seconds: np.ndarray) -> float:
    return round(float(np.quantile(seconds, 0.99)) * 1e3, 4)


def _build(points: np.ndarray) -> KDBTree:
    return KDBTree(block_capacity=BLOCK_CAPACITY).build(points)


def test_open_loop_p99_includes_queueing(benchmark):
    """Open loop at 1.5x capacity: p99 sojourn rises above the closed-loop p99."""
    points = _points()
    spec = _spec()

    closed = ScenarioRunner(
        _build(points), spec.with_overrides(arrival_model="closed-loop")
    ).run(points)
    capacity = closed.ops_per_s
    open_spec = spec.with_overrides(
        arrival_model="open-loop", arrival_rate=max(capacity * OVERLOAD_FRACTION, 1.0)
    )
    open_result = ScenarioRunner(_build(points), open_spec).run(points)

    queueing_ratio = open_result.latency.p99_ms / max(
        open_result.service_latency.p99_ms, 1e-9
    )
    payload = {
        "n_points": points.shape[0],
        "n_ops": N_OPS,
        "block_capacity": BLOCK_CAPACITY,
        "overload_fraction": OVERLOAD_FRACTION,
        "closed_loop": closed.latency.as_dict(),
        "closed_loop_capacity_ops_per_s": round(capacity, 1),
        "open_loop": open_result.latency.as_dict(),
        "open_loop_service": open_result.service_latency.as_dict(),
        "queueing_ratio": round(queueing_ratio, 2),
    }
    _record("closed_vs_open_loop/KDB", payload)
    benchmark.extra_info.update(payload)

    # the replay mutates the index, so every timing round gets a fresh build
    benchmark.pedantic(
        lambda runner: runner.run(points),
        setup=lambda: ((ScenarioRunner(_build(points), open_spec),), {}),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert open_result.latency.count == N_OPS
    assert open_result.latency.p99_ms > closed.latency.p99_ms, (
        f"open-loop p99 {open_result.latency.p99_ms:.3f} ms did not exceed "
        f"closed-loop p99 {closed.latency.p99_ms:.3f} ms at "
        f"{OVERLOAD_FRACTION}x offered load"
    )
    # at 1.5x offered load the queue, not the service time, dominates p99
    assert queueing_ratio > 1.0


def test_per_shard_latency_attribution(benchmark):
    """Sharded hotspot queries: per-shard percentiles account for every query."""
    points = _points()
    rng = np.random.default_rng(17)
    # 95% of queries from one small region -> one shard runs hot
    lo = rng.uniform(0.1, 0.8, size=2)
    n_hot = int(0.95 * N_OPS)
    hot = lo + rng.random((n_hot, 2)) * 0.05
    cold = points[rng.integers(0, points.shape[0], size=N_OPS - n_hot)]
    queries = np.vstack([hot, cold])
    rng.shuffle(queries)

    factory = shard_index_factory("KDB", block_capacity=BLOCK_CAPACITY)
    index = ShardedSpatialIndex(factory, n_shards=N_SHARDS, policy="grid").build(points)
    engine = ShardedBatchEngine(index)
    # engines do not time requests, so each query is its own timed request
    seconds = np.empty(len(queries))
    for position, row in enumerate(queries):
        request = QueryRequest.for_points(row.reshape(1, 2))
        started = time.perf_counter()
        engine.execute(request)
        seconds[position] = time.perf_counter() - started
    owners = index.router.shards_for_points(queries)
    per_shard_seconds = {
        int(shard): seconds[owners == shard] for shard in np.unique(owners)
    }
    counts = {shard: len(times) for shard, times in per_shard_seconds.items()}
    assert sum(counts.values()) == len(queries)
    hot_shard, hot_count = max(counts.items(), key=lambda item: item[1])
    payload = {
        "n_points": points.shape[0],
        "n_queries": len(queries),
        "n_shards": N_SHARDS,
        "per_shard_query_counts": {str(k): v for k, v in sorted(counts.items())},
        "hot_shard_query_fraction": round(hot_count / len(queries), 4),
        "per_shard_p99_ms": {
            str(shard): _p99_ms(times) for shard, times in sorted(per_shard_seconds.items())
        },
        "batch_p99_ms": _p99_ms(seconds),
    }
    _record("per_shard_breakdown/sharded_KDB", payload)
    benchmark.extra_info.update(payload)
    benchmark(lambda: engine.execute(QueryRequest.for_points(queries)))
    # the hot region fits one grid shard (plus boundary spill)
    assert hot_count / len(queries) >= 0.5, f"hotspot did not concentrate: {counts}"


def test_multi_tenant_fairness(benchmark):
    """Identically-shaped tenants see similar latency: fairness stays high."""
    points = _points()
    spec = scenario_by_name("tenant-mixed").with_overrides(
        n_ops=N_OPS, snapshot_every=max(1, N_OPS // 2), seed=23
    )
    operations, tenant_points = generate_tenant_operations(spec, points, N_TENANTS)
    oracle = MultiTenantOracle(N_TENANTS).build(tenant_points)
    runner = ScenarioRunner(_build(points), spec, oracle=oracle, exact_results=True)
    result = runner.replay(operations)

    assert result.checked
    assert sum(s.count for s in result.latency_by_tenant.values()) == N_OPS
    payload = {
        "n_points": points.shape[0],
        "n_ops": N_OPS,
        "n_tenants": N_TENANTS,
        "fairness_index": round(result.fairness, 4),
        "per_tenant_p99_ms": {
            str(tenant): round(summary.p99_ms, 4)
            for tenant, summary in result.latency_by_tenant.items()
        },
        "per_tenant_ops": {
            str(tenant): summary.count
            for tenant, summary in result.latency_by_tenant.items()
        },
    }
    _record("multi_tenant/KDB", payload)
    benchmark.extra_info.update(payload)

    # the replay mutates the index, so every timing round gets a fresh build
    benchmark.pedantic(
        lambda runner: runner.replay(operations),
        setup=lambda: ((ScenarioRunner(_build(points), spec),), {}),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.fairness >= 0.5, (
        f"fairness index collapsed to {result.fairness:.3f}: "
        f"{result.latency_by_tenant}"
    )
