"""Differential tests of the cache layer: answers must not depend on caching.

Every case replays an oracle-checked scenario stream (the same machinery as
``tests/test_scenario_fuzz.py``) with a :class:`~repro.storage.PageCache`
attached — per index kind, per replacement policy, and per sharding policy —
so any stale-page bug (a missed invalidation after an insert, delete, split
or overflow growth) surfaces as a :class:`ScenarioMismatch`.  On top of the
oracle checks, logical access counts are asserted to be cache-independent
and, on hot workloads, physical reads are asserted to actually drop.

Also holds the :class:`CompositeAccessStats` parity suite: a sharded run
must report per-query deltas through the exact same snapshot/delta surface
as a single-index run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.datasets import dataset_by_name
from repro.engine import BatchQueryEngine
from repro.evaluation.adapters import build_index_suite
from repro.nn import TrainingConfig
from repro.sharding import (
    SHARDING_POLICY_NAMES,
    CompositeAccessStats,
    ShardedBatchEngine,
    ShardedSpatialIndex,
    shard_index_factory,
)
from repro.geometry import Rect
from repro.storage import AccessStats, PageCache, SharedBufferPool, make_page_cache
from repro.workloads import OracleIndex, ScenarioRunner, scenario_by_name

INDEX_NAMES = ("Grid", "HRR", "KDB", "RR*", "ZM", "RSMI", "RSMIa")
EXACT_INDICES = frozenset({"Grid", "HRR", "KDB", "RR*", "RSMIa"})
SHARDED_KINDS = ("Grid", "KDB", "RSMIa")


def _build_index(name: str, points, epochs: int = 6):
    suite = build_index_suite(
        points,
        index_names=[name],
        block_capacity=16,
        partition_threshold=150,
        training=TrainingConfig(epochs=epochs, seed=0),
        seed=0,
    )
    return suite[name]


def _spec(seed: int, n_ops: int = 140):
    return scenario_by_name("cache-hotspot").with_overrides(
        n_ops=n_ops,
        snapshot_every=max(1, n_ops // 3),
        seed=seed,
        k=5,
        window_area_fraction=0.004,
    )


@pytest.mark.parametrize("policy", ("lru", "clock"))
@pytest.mark.parametrize("name", INDEX_NAMES)
def test_cached_scenario_agrees_with_oracle(name, policy):
    """Oracle-checked churny stream with a small cache attached: any stale
    page (missed invalidation) breaks agreement and raises."""
    seed = INDEX_NAMES.index(name) + (17 if policy == "clock" else 0)
    points = dataset_by_name("uniform", 300, seed=seed)
    index = _build_index(name, points)
    index.attach_cache(PageCache(8, policy))  # tiny: forces constant eviction
    oracle = OracleIndex().build(points)
    result = ScenarioRunner(
        index, _spec(seed + 1), oracle=oracle, exact_results=name in EXACT_INDICES
    ).run(points)
    assert result.checked
    assert result.total_physical_accesses <= result.total_block_accesses
    # snapshots must report the hit ratio now that a cache is attached
    assert all(s.cache_hit_ratio is not None for s in result.snapshots)


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_logical_reads_identical_with_and_without_cache(name):
    """The paper's cost metric must be byte-identical whether a cache sits in
    front of the storage or not — only physical reads may differ."""
    points = dataset_by_name("skewed", 400, seed=9)
    queries = points[np.random.default_rng(3).integers(0, 400, size=120)]

    request = QueryRequest.for_points(queries)
    uncached = BatchQueryEngine(_build_index(name, points)).execute(request)
    cached = BatchQueryEngine(
        _build_index(name, points), cache_blocks=6, cache_policy="lru"
    ).execute(request)

    assert cached.values == uncached.values
    assert cached.access.logical_reads == uncached.access.logical_reads
    assert uncached.access.physical_reads == uncached.access.logical_reads
    assert cached.access.physical_reads <= cached.access.logical_reads


@pytest.mark.parametrize("sharding_policy", SHARDING_POLICY_NAMES)
@pytest.mark.parametrize("kind", SHARDED_KINDS)
def test_sharded_cached_scenario_agrees_with_oracle(kind, sharding_policy):
    """Per-shard caches under churn across every sharding policy: sharded
    answers with caching on must match the brute-force oracle exactly."""
    seed = SHARDED_KINDS.index(kind) + 5 * SHARDING_POLICY_NAMES.index(sharding_policy)
    points = dataset_by_name("uniform", 400, seed=seed)
    factory = shard_index_factory(
        kind, block_capacity=16, partition_threshold=80,
        training=TrainingConfig(epochs=6, seed=0),
    )
    index = ShardedSpatialIndex(
        factory, n_shards=4, policy=sharding_policy, cache_blocks=8
    ).build(points)
    assert index.cache_hit_ratio() is not None
    oracle = OracleIndex().build(points)
    result = ScenarioRunner(
        index, _spec(seed + 3), oracle=oracle, exact_results=True
    ).run(points)
    assert result.checked
    assert result.total_physical_accesses <= result.total_block_accesses


def test_sharded_answers_identical_cache_on_off():
    """The same batch through the same sharded index, cache on vs off."""
    points = dataset_by_name("osm", 500, seed=2)
    queries = points[np.random.default_rng(7).integers(0, 500, size=200)]
    factory = shard_index_factory("KDB", block_capacity=16)

    plain = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
    uncached = ShardedBatchEngine(plain).execute(QueryRequest.for_points(queries))

    cached_index = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
    engine = ShardedBatchEngine(cached_index, cache_blocks=8)
    cached = engine.execute(QueryRequest.for_points(queries))

    assert cached.values == uncached.values
    assert cached.access.logical_reads == uncached.access.logical_reads
    assert cached.access.physical_reads < uncached.access.physical_reads


def test_shard_local_write_invalidation():
    """A write routed to one shard invalidates pages in that shard's cache
    only — sibling shards keep their working sets resident."""
    points = dataset_by_name("uniform", 400, seed=4)
    factory = shard_index_factory("Grid", block_capacity=16)
    index = ShardedSpatialIndex(
        factory, n_shards=4, policy="grid", cache_blocks=16
    ).build(points)
    caches = index.per_shard_caches()
    assert all(cache is not None for cache in caches)

    # warm every shard, then snapshot invalidation counters
    for x, y in points[:100]:
        index.contains(float(x), float(y))
    before = [cache.invalidations for cache in caches]

    # a point in the lower-left quadrant belongs to exactly one shard
    owner = index.router.shard_for_point(0.1, 0.1)
    index.insert(0.1, 0.1)
    after = [cache.invalidations for cache in caches]
    for shard_id, (b, a) in enumerate(zip(before, after)):
        if shard_id == owner:
            assert a >= b  # the owning shard may invalidate its dirty page
        else:
            assert a == b, f"write leaked an invalidation into shard {shard_id}"
    assert index.contains(0.1, 0.1)


def test_lazily_built_shard_inherits_cache():
    """A shard that is empty at build time gets its cache when the first
    insert materialises its index."""
    rng = np.random.default_rng(11)
    # all build points in one corner: at least one shard stays index-less
    points = rng.uniform(0.0, 0.2, size=(200, 2))
    factory = shard_index_factory("KDB", block_capacity=16)
    index = ShardedSpatialIndex(
        factory, n_shards=4, policy="grid", cache_blocks=8
    ).build(points)
    lazy = [shard for shard in index.shards if shard.index is None]
    assert lazy, "expected at least one unbuilt shard"
    index.insert(0.9, 0.9)  # materialises the far-corner shard
    shard = index.shards[index.router.shard_for_point(0.9, 0.9)]
    assert shard in lazy and shard.index is not None
    assert shard.index.cache is shard.cache
    index.contains(0.9, 0.9)
    index.contains(0.9, 0.9)
    assert shard.cache.hits > 0


class TestCompositeAccessStatsParity:
    """Sharded runs must report per-query deltas exactly like single-index
    runs: same snapshot()/delta_since() surface, same logical/physical
    fields."""

    def _sharded(self, points):
        factory = shard_index_factory("Grid", block_capacity=16)
        return ShardedSpatialIndex(
            factory, n_shards=4, policy="grid", cache_blocks=8
        ).build(points)

    def test_snapshot_returns_plain_access_stats(self):
        points = dataset_by_name("uniform", 300, seed=1)
        index = self._sharded(points)
        snap = index.stats.snapshot()
        assert isinstance(snap, AccessStats)
        for field in (
            "block_reads", "block_writes", "node_reads",
            "physical_block_reads", "physical_node_reads",
        ):
            assert getattr(snap, field) == getattr(index.stats, field)

    def test_delta_since_matches_manual_difference(self):
        points = dataset_by_name("uniform", 300, seed=1)
        index = self._sharded(points)
        for x, y in points[:40]:
            index.contains(float(x), float(y))
        snap = index.stats.snapshot()
        for x, y in points[40:80]:
            index.contains(float(x), float(y))
        delta = index.stats.delta_since(snap)
        assert delta.block_reads == index.stats.block_reads - snap.block_reads
        assert delta.physical_block_reads == (
            index.stats.physical_block_reads - snap.physical_block_reads
        )
        assert delta.total_reads > 0
        # warm re-reads were hits, so the delta shows fewer physical reads
        assert delta.physical_reads <= delta.logical_reads

    def test_per_query_deltas_match_single_index_protocol(self):
        """Drive a sharded and a single index through the same delta-based
        measurement loop; both must support it identically."""
        points = dataset_by_name("uniform", 300, seed=6)
        single = _build_index("Grid", points)
        sharded = self._sharded(points)
        for index in (single, sharded):
            per_query = []
            for x, y in points[:10]:
                before = index.stats.snapshot()
                index.contains(float(x), float(y))
                delta = index.stats.delta_since(before)
                per_query.append(delta.total_reads)
            assert len(per_query) == 10
            assert all(reads >= 1 for reads in per_query)

    def test_composite_aggregates_hit_ratio(self):
        points = dataset_by_name("uniform", 300, seed=8)
        index = self._sharded(points)
        index.stats.reset()
        for _ in range(3):
            for x, y in points[:30]:
                index.contains(float(x), float(y))
        assert isinstance(index.stats, CompositeAccessStats)
        assert index.stats.cache_hits > 0
        assert 0.0 < index.stats.hit_ratio <= 1.0
        assert index.stats.physical_reads < index.stats.logical_reads

    def test_reset_clears_every_shard(self):
        points = dataset_by_name("uniform", 300, seed=8)
        index = self._sharded(points)
        for x, y in points[:20]:
            index.contains(float(x), float(y))
        index.stats.reset()
        assert index.stats.total_reads == 0
        assert index.stats.physical_reads == 0
        assert all(part.total_reads == 0 for part in index.per_shard_stats())


@pytest.mark.slow
@pytest.mark.parametrize("policy", ("lru", "clock"))
@pytest.mark.parametrize("name", INDEX_NAMES)
def test_cached_scenario_fuzz_large_randomized(name, policy):
    """--runslow budget: longer cached streams over more points, fresh seeds,
    still under constant eviction pressure."""
    seed = 300 + INDEX_NAMES.index(name) + (31 if policy == "clock" else 0)
    points = dataset_by_name("skewed", 1_000, seed=seed)
    index = _build_index(name, points, epochs=12)
    index.attach_cache(PageCache(16, policy))
    oracle = OracleIndex().build(points)
    result = ScenarioRunner(
        index,
        _spec(seed + 1, n_ops=1_000),
        oracle=oracle,
        exact_results=name in EXACT_INDICES,
    ).run(points)
    assert result.checked
    assert result.total_physical_accesses <= result.total_block_accesses


@pytest.mark.slow
@pytest.mark.parametrize("sharding_policy", SHARDING_POLICY_NAMES)
def test_sharded_cached_scenario_fuzz_large_randomized(sharding_policy):
    """--runslow budget for the sharded cached deployment, every policy."""
    seed = 400 + 9 * SHARDING_POLICY_NAMES.index(sharding_policy)
    points = dataset_by_name("uniform", 1_200, seed=seed)
    factory = shard_index_factory(
        kind="KDB", block_capacity=16, partition_threshold=80,
    )
    index = ShardedSpatialIndex(
        factory, n_shards=4, policy=sharding_policy, cache_blocks=12
    ).build(points)
    oracle = OracleIndex().build(points)
    result = ScenarioRunner(
        index, _spec(seed + 1, n_ops=1_200), oracle=oracle, exact_results=True
    ).run(points)
    assert result.checked


class TestHilbertLayoutDifferential:
    """``ZMConfig(layout="hilbert")`` changes only the physical block order
    and the window scan strategy — never an answer."""

    def _pair(self, points, epochs: int = 6):
        from repro.baselines import ZMConfig, ZMIndex

        training = TrainingConfig(epochs=epochs, seed=0)
        return tuple(
            ZMIndex(ZMConfig(block_capacity=16, training=training, layout=layout)).build(
                points
            )
            for layout in ("z", "hilbert")
        )

    def test_point_and_knn_answers_identical_layout_on_off(self):
        points = dataset_by_name("skewed", 400, seed=21)
        z, hilbert = self._pair(points)
        rng = np.random.default_rng(5)
        probes = np.vstack([points[rng.integers(0, 400, size=80)], rng.random((40, 2))])
        for x, y in probes:
            assert z.contains(float(x), float(y)) == hilbert.contains(float(x), float(y))
        for x, y in probes[:20]:
            a = np.sort(z.knn_query(float(x), float(y), 5), axis=0)
            b = np.sort(hilbert.knn_query(float(x), float(y), 5), axis=0)
            np.testing.assert_array_equal(a, b)

    def test_window_answers_identical_layout_on_off(self):
        """The run-scanning window path must return exactly the same point
        set as the span-scanning one (row order may follow the layout)."""
        points = dataset_by_name("uniform", 400, seed=22)
        z, hilbert = self._pair(points)
        rng = np.random.default_rng(6)
        for _ in range(40):
            lo = rng.random(2) * 0.8
            extent = 0.02 + rng.random(2) * 0.3
            window = Rect(lo[0], lo[1], lo[0] + extent[0], lo[1] + extent[1])
            a = np.sort(z.window_query(window), axis=0)
            b = np.sort(hilbert.window_query(window), axis=0)
            np.testing.assert_array_equal(a, b)

    def test_hilbert_layout_scenario_agrees_with_oracle(self):
        """Churny oracle-checked stream against the hilbert layout, with a
        pool client attached so run scans also exercise prefetch."""
        from repro.baselines import ZMConfig, ZMIndex

        points = dataset_by_name("uniform", 300, seed=23)
        index = ZMIndex(
            ZMConfig(block_capacity=16, training=TrainingConfig(epochs=6, seed=0),
                     layout="hilbert")
        ).build(points)
        index.attach_cache(SharedBufferPool(16).client("zm"))
        oracle = OracleIndex().build(points)
        result = ScenarioRunner(index, _spec(24), oracle=oracle).run(points)
        assert result.checked
        assert result.total_physical_accesses <= result.total_block_accesses


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_shared_pool_answers_match_private_cache(name):
    """Routing a single index through a shared-pool client instead of a
    private PageCache must not change any answer or logical count."""
    points = dataset_by_name("skewed", 400, seed=31)
    queries = points[np.random.default_rng(13).integers(0, 400, size=120)]

    private = BatchQueryEngine(
        _build_index(name, points), cache_blocks=6, cache_policy="lru"
    ).execute(QueryRequest.for_points(queries))
    pooled = BatchQueryEngine(
        _build_index(name, points), shared_pool=SharedBufferPool(6)
    ).execute(QueryRequest.for_points(queries))

    assert pooled.values == private.values
    assert pooled.access.logical_reads == private.access.logical_reads


@pytest.mark.parametrize("sharding_policy", SHARDING_POLICY_NAMES)
@pytest.mark.parametrize("kind", SHARDED_KINDS)
def test_sharded_pool_scenario_agrees_with_oracle(kind, sharding_policy):
    """Shared pool under churn, per index kind x sharding policy: the pooled
    sharded index must still match the brute-force oracle exactly."""
    seed = 50 + SHARDED_KINDS.index(kind) + 7 * SHARDING_POLICY_NAMES.index(sharding_policy)
    points = dataset_by_name("uniform", 400, seed=seed)
    factory = shard_index_factory(
        kind, block_capacity=16, partition_threshold=80,
        training=TrainingConfig(epochs=6, seed=0),
    )
    index = ShardedSpatialIndex(factory, n_shards=4, policy=sharding_policy).build(points)
    index.attach_shared_pool(SharedBufferPool(24))
    assert index.cache_hit_ratio() is not None
    oracle = OracleIndex().build(points)
    result = ScenarioRunner(
        index, _spec(seed + 3), oracle=oracle, exact_results=True
    ).run(points)
    assert result.checked
    assert result.total_physical_accesses <= result.total_block_accesses
    assert index.extra_metrics()["shared_pool"]["capacity"] == 24


def test_sharded_answers_identical_pool_vs_private_caches():
    """The same batch through per-shard caches vs one shared pool."""
    points = dataset_by_name("osm", 500, seed=32)
    queries = points[np.random.default_rng(17).integers(0, 500, size=200)]
    factory = shard_index_factory("KDB", block_capacity=16)

    private_index = ShardedSpatialIndex(factory, n_shards=4, policy="hilbert").build(points)
    private = ShardedBatchEngine(private_index, cache_blocks=8).execute(
        QueryRequest.for_points(queries)
    )

    pooled_index = ShardedSpatialIndex(factory, n_shards=4, policy="hilbert").build(points)
    pooled = ShardedBatchEngine(
        pooled_index, shared_pool=SharedBufferPool(32)
    ).execute(QueryRequest.for_points(queries))

    assert pooled.values == private.values
    assert pooled.access.logical_reads == private.access.logical_reads
    assert pooled_index.shared_pool is not None
    assert pooled_index.shared_pool.accesses > 0


@pytest.mark.slow
def test_drifting_tinylfu_pool_beats_private_lru_at_equal_capacity():
    """--runslow: under a drifting hotspot, one shared TinyLFU pool must
    serve a strictly higher hit ratio than the same total capacity split
    into static per-shard LRU caches (the pool follows the drift)."""
    total_capacity = 32
    points = dataset_by_name("uniform", 1_500, seed=41)
    # long enough for the sketch's aging to track the drift: on very short
    # runs stale frequencies block the new hotspot and recency wins instead
    spec = scenario_by_name("drifting").with_overrides(
        n_ops=3_000, seed=42, snapshot_every=1_000, drift_cycles=0.75,
    )
    factory = shard_index_factory("Grid", block_capacity=16)

    lru_index = ShardedSpatialIndex(
        factory, n_shards=4, policy="grid",
        cache_blocks=total_capacity // 4, cache_policy="lru",
    ).build(points)
    ScenarioRunner(lru_index, spec).run(points)
    lru_ratio = lru_index.cache_hit_ratio()

    pool = SharedBufferPool(total_capacity, admission="tinylfu")
    pool_index = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
    pool_index.attach_shared_pool(pool)
    ScenarioRunner(pool_index, spec).run(points)
    pool_ratio = pool_index.cache_hit_ratio()

    assert lru_ratio is not None and pool_ratio is not None
    assert pool_ratio > lru_ratio


def test_rebuild_clears_cache_no_phantom_hits():
    """A rebuild creates a fresh BlockStore whose block ids restart at 0;
    resident pages from the old store must not alias them as hits."""
    from repro.core import RSMI, RSMIConfig

    points = dataset_by_name("uniform", 400, seed=13)
    index = RSMI(
        RSMIConfig(block_capacity=16, partition_threshold=150,
                   training=TrainingConfig(epochs=6, seed=0))
    ).build(points)
    index.attach_cache(PageCache(64, "lru"))
    for x, y in points[:100]:  # warm the cache on the old store
        index.contains(float(x), float(y))
    index.rebuild()
    index.stats.reset()
    for x, y in points[:50]:
        assert index.contains(float(x), float(y))
    # the first pass over the rebuilt store must actually hit storage: every
    # distinct block it touches is a cold miss (the bug showed 0 physical
    # reads — the old store's resident ids aliased the new block ids)
    assert index.stats.physical_block_reads >= index.store.n_base_blocks // 2


def test_zm_rebuild_clears_cache_no_phantom_hits():
    """Same invariant for ZM, whose build() also recreates the store."""
    from repro.baselines import ZMConfig, ZMIndex

    points = dataset_by_name("uniform", 300, seed=14)
    index = ZMIndex(
        ZMConfig(block_capacity=16, training=TrainingConfig(epochs=6, seed=0))
    ).build(points)
    index.attach_cache(PageCache(64, "lru"))
    for x, y in points[:80]:
        index.contains(float(x), float(y))
    index.build(points)  # fresh store, block ids restart at 0
    index.stats.reset()
    index.contains(*map(float, points[0]))
    assert index.stats.physical_reads > 0


def test_kdb_split_retires_replaced_pages():
    """A leaf/internal split replaces node objects; their pages must leave
    the cache instead of squatting on slots forever."""
    from repro.baselines import KDBTree

    points = dataset_by_name("uniform", 200, seed=15)
    index = KDBTree(block_capacity=8).build(points)
    cache = PageCache(256, "lru")
    index.attach_cache(cache)
    rng = np.random.default_rng(1)
    for x, y in rng.uniform(0.4, 0.42, size=(60, 2)):  # force splits in one leaf
        index.contains(float(x), float(y))  # warm pages on the descent path
        index.insert(float(x), float(y))
    # every resident page must still be reachable from the live tree
    live_ids = set()
    stack = [index.root]
    while stack:
        node = stack.pop()
        if node.page_id is not None:
            live_ids.add(node.page_id)
        stack.extend(node.children)
    resident = {key for key in (cache._lru if cache.policy == "lru" else cache._slot_of)}
    dead = {pid for kind, pid in resident if pid not in live_ids}
    assert not dead, f"split-replaced pages still resident: {sorted(dead)[:5]}"


def test_grid_delete_scan_counts_block_reads():
    """Grid deletes scan bucket blocks; the scan must be accounted (and
    cached) like the contains() scan is."""
    from repro.baselines import GridFile

    points = dataset_by_name("uniform", 300, seed=16)
    index = GridFile(block_capacity=16).build(points)
    index.stats.reset()
    assert index.delete(*map(float, points[0]))
    assert index.stats.block_reads >= 1
    index.attach_cache(PageCache(16))
    x, y = map(float, points[1])
    index.contains(x, y)  # warms the bucket block
    before = index.stats.physical_block_reads
    assert index.delete(x, y)
    assert index.stats.physical_block_reads == before  # scan hit the cache


def test_allocate_base_invalidates_previous_tail_page():
    """Growing the store with a new base block rewrites the previous chain
    tail's next link; the tail's cached page must be dropped and the write
    accounted — the regression was a silent in-place mutation that left the
    stale page resident (and, with a disk tier, the stale link on disk)."""
    from repro.storage import BlockStore

    store = BlockStore(capacity=4, cache=PageCache(8, "lru"))
    first = store.allocate_base()
    first.bulk_fill(np.asarray([[0.1, 0.1]], dtype=float))
    store.read(first.block_id)
    assert store.cache.contains(("b", first.block_id))

    writes_before = store.stats.block_writes
    second = store.allocate_base()
    assert store.peek(first.block_id).next_id == second.block_id
    assert store.stats.block_writes > writes_before, "relink write not accounted"
    assert not store.cache.contains(
        ("b", first.block_id)
    ), "previous tail's dirty page stayed resident after the relink"


def test_allocate_base_writes_relink_through_to_disk(tmp_path):
    """With a block file attached, the previous tail's rewritten next link
    must reach the file — a cache-missing read deserialises from disk, so a
    missed write-through truncates the chain to any such reader."""
    from repro.storage import BlockFile, BlockStore

    store = BlockStore(capacity=4, cache=PageCache(8, "lru"))
    first = store.allocate_base()
    first.bulk_fill(np.asarray([[0.1, 0.1]], dtype=float))
    store.attach_disk(BlockFile(tmp_path / "blocks.dat", store.capacity))
    second = store.allocate_base()
    on_disk = store.disk.read_block(first.block_id)
    assert on_disk.next_id == second.block_id
    # and the cache-missing read path serves exactly that disk state
    assert store.read(first.block_id).next_id == second.block_id


def test_make_page_cache_disabled_paths():
    """attach_caches(None)/(0) detaches; extra_metrics drops cache keys."""
    points = dataset_by_name("uniform", 200, seed=3)
    factory = shard_index_factory("Grid", block_capacity=16)
    index = ShardedSpatialIndex(factory, n_shards=2, policy="grid").build(points)
    assert index.cache_hit_ratio() is None
    assert "cache_hit_ratio" not in index.extra_metrics()
    index.attach_caches(8)
    assert index.cache_hit_ratio() is not None
    assert index.extra_metrics()["cache_blocks_per_shard"] == 8
    index.attach_caches(None)
    assert index.cache_hit_ratio() is None
    assert make_page_cache(None) is None
