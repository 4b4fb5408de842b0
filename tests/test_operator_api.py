"""The unified operator API: execute(), AccessSummary, capability flags.

Pins the operator-API contracts: ``execute`` is the engines' one entry
point and answers every kind exactly like the per-query reference helpers
(identical answers and identical access accounting), the request
constructors reject non-finite input before any engine sees it, the
unified :class:`AccessSummary` carries the read accounting, and exactness
is a capability flag on the index classes instead of a string-matched
name set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import AggregateSpec, QueryRequest, QueryResult, exact_aggregate
from tests.reference_loops import batch_knn_queries, batch_point_queries, batch_window_queries
from repro.engine import BatchQueryEngine
from repro.evaluation.adapters import build_index_suite
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory
from repro.storage import AccessStats, AccessSummary
from repro.workloads import OracleIndex, ScenarioRunner, scenario_by_name
from repro.workloads.tenants import MultiTenantOracle

from tests.conftest import FAST_TRAINING


def _points(n=600, seed=21):
    return np.random.default_rng(seed).random((n, 2))


def _windows(points, n=6, seed=3):
    rng = np.random.default_rng(seed)
    centers = points[rng.integers(0, points.shape[0], size=n)]
    return [
        Rect.from_center(float(cx), float(cy), 0.12, 0.1).clip_to(Rect.unit())
        for cx, cy in centers
    ]


@pytest.fixture(scope="module")
def kdb_adapter():
    points = _points()
    suite = build_index_suite(
        points, ["KDB"], block_capacity=16, training=TrainingConfig(epochs=5, seed=0)
    )
    return suite["KDB"], points


class TestExecuteDispatch:
    def test_point_kind_matches_reference(self, kdb_adapter):
        adapter, points = kdb_adapter
        engine = BatchQueryEngine(adapter)
        queries = np.vstack([points[:5], [[0.5, 0.123]]])
        result = engine.execute(QueryRequest.for_points(queries))
        assert isinstance(result, QueryResult)
        reference = batch_point_queries(adapter, queries)
        assert result.values == reference.results
        assert result.access.logical_reads == reference.total_block_accesses

    def test_window_kind_matches_reference(self, kdb_adapter):
        adapter, points = kdb_adapter
        engine = BatchQueryEngine(adapter)
        windows = _windows(points)
        result = engine.execute(QueryRequest.for_windows(windows))
        reference = batch_window_queries(adapter, windows)
        for got, want in zip(result.values, reference.results):
            np.testing.assert_array_equal(got, want)
        assert result.access.logical_reads == reference.total_block_accesses

    def test_knn_kind_matches_reference(self, kdb_adapter):
        adapter, points = kdb_adapter
        engine = BatchQueryEngine(adapter)
        queries = points[:4]
        result = engine.execute(QueryRequest.for_knn(queries, k=3))
        reference = batch_knn_queries(adapter, queries, 3)
        for got, want in zip(result.values, reference.results):
            np.testing.assert_array_equal(got, want)
        assert result.access.logical_reads == reference.total_block_accesses

    def test_aggregate_kind(self, kdb_adapter):
        adapter, points = kdb_adapter
        engine = BatchQueryEngine(adapter)
        specs = [
            AggregateSpec(op=op, window=window, q=0.4, k=3)
            for op, window in zip(
                ("count", "sum", "mean", "quantile", "top-k"), _windows(points, n=5)
            )
        ]
        result = engine.execute(QueryRequest.for_aggregates(specs))
        assert result.kind == "aggregate"
        for spec, outcome in zip(specs, result.values):
            assert outcome == exact_aggregate(spec, points)
        assert result.access.logical_reads > 0

    def test_sharded_execute_aggregates(self):
        points = _points(seed=5)
        factory = shard_index_factory("KDB", block_capacity=16)
        index = ShardedSpatialIndex(factory, n_shards=3, policy="grid").build(points)
        engine = ShardedBatchEngine(index)
        specs = [
            AggregateSpec(op="sum", window=window) for window in _windows(points, n=4)
        ]
        result = engine.execute(QueryRequest.for_aggregates(specs))
        for spec, outcome in zip(specs, result.values):
            assert outcome == exact_aggregate(spec, points)
        assert result.access.per_shard_logical_reads


class TestAccessSummary:
    def test_merged_and_hit_ratio(self):
        a = AccessSummary(logical_reads=10, physical_reads=4)
        b = AccessSummary(logical_reads=6, physical_reads=6, per_shard_logical_reads={1: 6})
        merged = a.merged(b)
        assert merged.logical_reads == 16
        assert merged.physical_reads == 10
        assert merged.per_shard_logical_reads == {1: 6}
        assert a.cache_hit_ratio == pytest.approx(0.6)
        assert AccessSummary().cache_hit_ratio is None
        assert AccessSummary(logical_reads=0, physical_reads=0).cache_hit_ratio == 0.0

    def test_from_stats(self):
        stats = AccessStats()
        stats.record_block_read()
        summary = stats.summary()
        assert summary.logical_reads == 1
        assert summary.physical_reads == 1

    def test_result_access_carries_physical_reads(self, kdb_adapter):
        adapter, points = kdb_adapter
        result = BatchQueryEngine(adapter).execute(QueryRequest.for_points(points[:4]))
        assert result.access.logical_reads == adapter.stats.total_reads
        assert result.access.physical_reads == adapter.stats.physical_reads


_NAN = float("nan")
_INF = float("inf")


class TestInputContract:
    """Bad input fails at request construction, naming the offending op."""

    @pytest.mark.parametrize("bad", [(_NAN, 0.5), (0.5, _INF), (-_INF, _NAN)])
    def test_for_points_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="point op 2 has a non-finite coordinate"):
            QueryRequest.for_points([(0.1, 0.2), (0.3, 0.4), bad])

    @pytest.mark.parametrize("bad", [(_NAN, 0.5), (0.5, _INF), (-_INF, _NAN)])
    def test_for_knn_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="knn op 1 has a non-finite coordinate"):
            QueryRequest.for_knn([(0.1, 0.2), bad], k=3)

    @pytest.mark.parametrize(
        "bad",
        [Rect(_NAN, 0.1, 0.5, 0.5), Rect(0.1, 0.1, _INF, 0.5), Rect(-_INF, _NAN, 0.5, 0.5)],
    )
    def test_for_windows_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="window op 1 has a non-finite window"):
            QueryRequest.for_windows([Rect(0.1, 0.1, 0.2, 0.2), bad])

    @pytest.mark.parametrize(
        "bad",
        [Rect(_NAN, 0.1, 0.5, 0.5), Rect(0.1, 0.1, _INF, 0.5), Rect(-_INF, _NAN, 0.5, 0.5)],
    )
    def test_for_aggregates_rejects_non_finite(self, bad):
        specs = [AggregateSpec("count", Rect(0.1, 0.1, 0.2, 0.2)), AggregateSpec("sum", bad)]
        with pytest.raises(ValueError, match="aggregate op 1 has a non-finite window"):
            QueryRequest.for_aggregates(specs)

    @pytest.mark.parametrize("k", [0, -1])
    def test_for_knn_rejects_non_positive_k(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            QueryRequest.for_knn([(0.1, 0.2)], k=k)

    def test_finite_input_accepted(self):
        assert QueryRequest.for_points([(0.0, 1.0)]).n_ops == 1
        assert QueryRequest.for_knn(np.empty((0, 2)), k=1).n_ops == 0
        assert QueryRequest.for_windows([Rect.unit()]).n_ops == 1

    def test_per_kind_entry_points_are_gone(self, kdb_adapter):
        engine = BatchQueryEngine(kdb_adapter[0])
        for name in ("point_queries", "window_queries", "knn_queries"):
            assert not hasattr(engine, name)


class TestCapabilityFlags:
    def test_adapter_flags(self):
        points = _points(300, seed=9)
        suite = build_index_suite(
            points,
            ["Grid", "KDB", "ZM", "RSMI", "RSMIa"],
            block_capacity=32,
            partition_threshold=150,
            training=FAST_TRAINING,
        )
        assert suite["Grid"].supports_exact_results
        assert suite["KDB"].supports_exact_results
        assert not suite["ZM"].supports_exact_results
        assert not suite["RSMI"].supports_exact_results
        assert suite["RSMIa"].supports_exact_results
        assert all(adapter.supports_attributes for adapter in suite.values())

    def test_sharded_flag_follows_kind(self):
        points = _points(300, seed=10)
        exact = ShardedSpatialIndex(
            shard_index_factory("Grid", block_capacity=32), n_shards=2, policy="grid"
        ).build(points)
        assert exact.supports_exact_results
        approx = ShardedSpatialIndex(
            shard_index_factory(
                "ZM", block_capacity=32, training=FAST_TRAINING
            ),
            n_shards=2,
            policy="grid",
        ).build(points)
        assert not approx.supports_exact_results

    def test_oracles_are_exact(self):
        assert OracleIndex.supports_exact_results
        assert MultiTenantOracle.supports_exact_results

    def test_runner_autodetects_exactness(self):
        points = _points(200, seed=11)
        spec = scenario_by_name("mixed").with_overrides(n_ops=20)
        suite = build_index_suite(
            points,
            ["Grid", "ZM"],
            block_capacity=32,
            training=TrainingConfig(epochs=5, seed=0),
        )
        assert ScenarioRunner(suite["Grid"], spec).exact_results
        assert not ScenarioRunner(suite["ZM"], spec).exact_results
        # explicit argument still wins over detection
        assert not ScenarioRunner(suite["Grid"], spec, exact_results=False).exact_results
