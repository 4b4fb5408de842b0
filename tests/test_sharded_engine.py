"""The sharded batch engine: same answers, shard-grouped dispatch.

:class:`ShardedBatchEngine` must return exactly what the sharded index's
sequential per-query methods return (which the differential tests pin to
brute force), in input order, under every dispatch mode — and its per-shard
block-access attribution must prove the routing claim: a batch only
touches the shards its queries intersect.
"""

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.datasets import dataset_by_name
from repro.geometry import Rect
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory

from tests.conftest import FAST_TRAINING

POINTS = dataset_by_name("skewed", 600, seed=51)


@pytest.fixture(scope="module", params=["Grid", "RSMI"])
def sharded_index(request):
    factory = shard_index_factory(
        request.param,
        block_capacity=12,
        partition_threshold=120,
        training=FAST_TRAINING,
    )
    return ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(POINTS)


@pytest.fixture(scope="module")
def grid_sharded():
    factory = shard_index_factory("Grid", block_capacity=12)
    return ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(POINTS)


WINDOWS = [
    Rect(0.1, 0.1, 0.3, 0.25),
    Rect(0.0, 0.0, 1.0, 1.0),
    Rect(0.48, 0.48, 0.52, 0.52),
    Rect(0.7, 0.2, 0.9, 0.4),
]


@pytest.mark.parametrize("mode", ["auto", "sequential"])
class TestDispatchModes:
    def test_point_batches_match_sequential_queries(self, sharded_index, mode):
        engine = ShardedBatchEngine(sharded_index, mode=mode)
        queries = np.vstack([POINTS[:80], np.random.default_rng(3).random((40, 2))])
        batch = engine.execute(QueryRequest.for_points(queries))
        expected = [sharded_index.contains(float(x), float(y)) for x, y in queries]
        assert batch.values == expected
        assert batch.n_queries == queries.shape[0]

    def test_window_batches_match_sequential_queries(self, sharded_index, mode):
        engine = ShardedBatchEngine(sharded_index, mode=mode)
        batch = engine.execute(QueryRequest.for_windows(WINDOWS))
        for window, got in zip(WINDOWS, batch.values):
            want = {tuple(p) for p in sharded_index.window_query(window)}
            assert {tuple(p) for p in got} == want

    def test_knn_batches_match_sequential_queries(self, sharded_index, mode):
        engine = ShardedBatchEngine(sharded_index, mode=mode)
        queries = POINTS[:25]
        batch = engine.execute(QueryRequest.for_knn(queries, k=6))
        for (x, y), got in zip(queries, batch.values):
            want = sharded_index.knn_query(float(x), float(y), 6)
            got_d = np.sort(np.hypot(got[:, 0] - x, got[:, 1] - y))
            want_d = np.sort(np.hypot(want[:, 0] - x, want[:, 1] - y))
            np.testing.assert_allclose(got_d, want_d, atol=1e-12)


class TestPerShardAttribution:
    def test_single_shard_window_touches_only_that_shard(self, grid_sharded):
        engine = ShardedBatchEngine(grid_sharded)
        # upper-right shard only
        batch = engine.execute(QueryRequest.for_windows([Rect(0.6, 0.6, 0.9, 0.9)]))
        assert set(batch.access.per_shard_logical_reads) == {3}
        assert batch.access.logical_reads == batch.access.per_shard_logical_reads[3] > 0

    def test_spanning_window_touches_every_nonempty_shard(self, grid_sharded):
        engine = ShardedBatchEngine(grid_sharded)
        batch = engine.execute(QueryRequest.for_windows([Rect.unit()]))
        nonempty = {s.shard_id for s in grid_sharded.shards if not s.is_empty}
        assert set(batch.access.per_shard_logical_reads) == nonempty

    def test_point_batch_attribution_sums_to_total(self, grid_sharded):
        engine = ShardedBatchEngine(grid_sharded)
        batch = engine.execute(QueryRequest.for_points(POINTS[:100]))
        assert sum(batch.access.per_shard_logical_reads.values()) == batch.access.logical_reads

    def test_empty_batches(self, grid_sharded):
        engine = ShardedBatchEngine(grid_sharded)
        assert engine.execute(QueryRequest.for_points(np.empty((0, 2)))).values == []
        assert engine.execute(QueryRequest.for_windows([])).values == []
        assert engine.execute(QueryRequest.for_knn(np.empty((0, 2)), 3)).values == []


class TestWindowPrefetchAccounting:
    """PR-7 follow-up: the sharded window path warms each shard's cache for
    the whole sub-batch up front, and the speculative I/O shows up in the
    per-shard ``prefetch_block_reads`` counters — never in logical reads."""

    WINDOWS = [
        Rect(x, y, x + 0.25, y + 0.25)
        for x in np.linspace(0.0, 0.7, 4)
        for y in np.linspace(0.0, 0.7, 3)
    ]

    @staticmethod
    def _run(shared_pool_capacity=None):
        from repro.storage import SharedBufferPool

        factory = shard_index_factory(
            "ZM", block_capacity=12, training=FAST_TRAINING
        )
        index = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(POINTS)
        kwargs = {}
        if shared_pool_capacity is not None:
            kwargs["shared_pool"] = SharedBufferPool(shared_pool_capacity)
        engine = ShardedBatchEngine(index, **kwargs)
        batch = engine.execute(QueryRequest.for_windows(TestWindowPrefetchAccounting.WINDOWS))
        prefetched = {
            shard.shard_id: shard.stats.prefetch_block_reads
            for shard in index.shards
        }
        return batch, prefetched

    def test_pooled_window_batch_records_prefetches_per_shard(self):
        plain, plain_prefetch = self._run()
        pooled, pooled_prefetch = self._run(shared_pool_capacity=96)
        # without a cache there is nothing to warm; with the pool every
        # touched shard issues speculative reads for its sub-batch
        assert all(count == 0 for count in plain_prefetch.values())
        touched = set(pooled.access.per_shard_logical_reads)
        assert touched
        assert all(pooled_prefetch[shard_id] > 0 for shard_id in touched)
        # prefetching is physical-only: answers and logical reads unchanged
        assert pooled.access.per_shard_logical_reads == plain.access.per_shard_logical_reads
        for got, want in zip(pooled.values, plain.values):
            assert {tuple(p) for p in got} == {tuple(p) for p in want}
        # ...and the speculative I/O is billed to physical reads honestly,
        # yet the warm pool still beats the uncached run overall
        assert pooled.access.physical_reads >= sum(pooled_prefetch.values())
        assert pooled.access.physical_reads < plain.access.physical_reads

    def test_prefetch_plans_without_touching_logical_counters(self):
        from repro.storage import SharedBufferPool

        factory = shard_index_factory(
            "ZM", block_capacity=12, training=FAST_TRAINING
        )
        index = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(POINTS)
        index.attach_shared_pool(SharedBufferPool(96))
        shard = next(s for s in index.shards if not s.is_empty)
        shard.stats.reset()
        admitted = shard.prefetch_windows([Rect(0.0, 0.0, 0.5, 0.5)])
        assert admitted > 0
        assert shard.stats.prefetch_block_reads == admitted
        assert shard.stats.block_reads == 0
        assert shard.stats.node_reads == 0


class TestEngineContract:
    def test_requires_a_sharded_index(self):
        with pytest.raises(TypeError):
            ShardedBatchEngine(object())

    @pytest.mark.parametrize("mode", ["warp", "threaded", "vectorized"])
    def test_rejects_unknown_mode(self, grid_sharded, mode):
        with pytest.raises(ValueError, match="unknown engine mode"):
            ShardedBatchEngine(grid_sharded, mode=mode)

    def test_has_no_thread_pool_width(self, grid_sharded):
        with pytest.raises(TypeError):
            ShardedBatchEngine(grid_sharded, n_workers=2)

    def test_rejects_unbuilt_index(self):
        factory = shard_index_factory("Grid")
        with pytest.raises(RuntimeError):
            ShardedBatchEngine(ShardedSpatialIndex(factory))

    def test_engine_tracks_lazily_built_shards(self):
        points = np.random.default_rng(5).random((120, 2)) * 0.45
        factory = shard_index_factory("Grid", block_capacity=8)
        index = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
        engine = ShardedBatchEngine(index)
        assert engine.execute(QueryRequest.for_points(np.array([[0.9, 0.9]]))).values == [False]
        index.insert(0.9, 0.9)  # builds shard 3 lazily; engine must pick it up
        assert engine.execute(QueryRequest.for_points(np.array([[0.9, 0.9]]))).values == [True]
