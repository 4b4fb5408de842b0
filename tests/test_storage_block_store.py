"""Unit tests for repro.storage.block_store and repro.storage.stats."""

from unittest import mock

import numpy as np
import pytest

from repro.storage import AccessStats, BlockFile, BlockStore, SharedBufferPool
from repro.storage.block_store import chain_points


class TestAccessStats:
    def test_counters_and_total(self):
        stats = AccessStats()
        stats.record_block_read(3)
        stats.record_node_read(2)
        stats.record_block_write()
        assert stats.block_reads == 3
        assert stats.node_reads == 2
        assert stats.block_writes == 1
        assert stats.total_reads == 5

    def test_reset(self):
        stats = AccessStats()
        stats.record_block_read()
        stats.reset()
        assert stats.total_reads == 0

    def test_snapshot_and_delta(self):
        stats = AccessStats()
        stats.record_block_read(2)
        snapshot = stats.snapshot()
        stats.record_block_read(3)
        delta = stats.delta_since(snapshot)
        assert delta.block_reads == 3


class TestBlockStorePacking:
    def test_pack_points_creates_base_blocks(self):
        store = BlockStore(capacity=3)
        points = np.arange(20).reshape(10, 2) / 20.0
        first, last = store.pack_points(points)
        assert (first, last) == (0, 3)
        assert store.n_base_blocks == 4
        assert store.n_points == 10
        assert store.n_overflow_blocks == 0

    def test_pack_empty_raises(self):
        store = BlockStore(capacity=3)
        with pytest.raises(ValueError):
            store.pack_points(np.empty((0, 2)))

    def test_all_points_preserves_order(self):
        store = BlockStore(capacity=4)
        points = np.random.default_rng(0).random((11, 2))
        store.pack_points(points)
        assert np.allclose(store.all_points(), points)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BlockStore(capacity=0)


class TestBlockStoreChains:
    def test_base_blocks_are_linked_in_order(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.random.default_rng(1).random((6, 2)))
        first = store.peek(store.base_block_id(0))
        second = store.peek(store.base_block_id(1))
        assert first.next_id == second.block_id
        assert second.prev_id == first.block_id

    def test_overflow_is_linked_after_base(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.random.default_rng(2).random((4, 2)))
        base0 = store.peek(store.base_block_id(0))
        overflow = store.allocate_overflow(base0.block_id)
        overflow.append(0.5, 0.5)
        assert base0.next_id == overflow.block_id
        assert overflow.is_overflow
        chain = list(store.iter_chain(0))
        assert [b.block_id for b in chain] == [base0.block_id, overflow.block_id]
        # the next base chain is unaffected
        assert [b.block_id for b in store.iter_chain(1)] == [store.base_block_id(1)]

    def test_all_points_includes_overflow_points(self):
        store = BlockStore(capacity=2)
        points = np.random.default_rng(3).random((4, 2))
        store.pack_points(points)
        overflow = store.allocate_overflow(store.base_block_id(0))
        overflow.append(0.9, 0.9)
        collected = store.all_points()
        assert collected.shape[0] == 5
        assert [0.9, 0.9] in collected.tolist()

    def test_scan_positions_clamps_range(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.random.default_rng(4).random((6, 2)))
        blocks = list(store.scan_positions(-5, 100))
        assert len(blocks) == store.n_base_blocks

    def test_clamp_position(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.random.default_rng(5).random((6, 2)))
        assert store.clamp_position(-1) == 0
        assert store.clamp_position(999) == store.n_base_blocks - 1

    def test_clamp_on_empty_store_raises(self):
        with pytest.raises(RuntimeError):
            BlockStore(capacity=2).clamp_position(0)

    def test_base_block_id_out_of_range(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.random.default_rng(6).random((2, 2)))
        with pytest.raises(IndexError):
            store.base_block_id(5)


class TestBlockStoreAccounting:
    def test_read_records_access(self):
        stats = AccessStats()
        store = BlockStore(capacity=2, stats=stats)
        store.pack_points(np.random.default_rng(7).random((4, 2)))
        stats.reset()
        store.read(store.base_block_id(0))
        assert stats.block_reads == 1

    def test_peek_does_not_record_access(self):
        stats = AccessStats()
        store = BlockStore(capacity=2, stats=stats)
        store.pack_points(np.random.default_rng(8).random((4, 2)))
        stats.reset()
        store.peek(store.base_block_id(0))
        assert stats.block_reads == 0

    def test_iter_chain_counts_every_block(self):
        stats = AccessStats()
        store = BlockStore(capacity=2, stats=stats)
        store.pack_points(np.random.default_rng(9).random((2, 2)))
        store.allocate_overflow(store.base_block_id(0))
        stats.reset()
        list(store.iter_chain(0))
        assert stats.block_reads == 2

    def test_size_bytes_grows_with_blocks(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.random.default_rng(10).random((2, 2)))
        small = store.size_bytes()
        store.allocate_overflow(store.base_block_id(0))
        assert store.size_bytes() > small

    def test_unknown_block_id_raises(self):
        store = BlockStore(capacity=2)
        with pytest.raises(IndexError):
            store.read(0)


# -- touch_chain: iter_chain's reads, one call ------------------------------------

#: overflow depth behind a few base positions (the rest have none)
_CHAIN_DEPTHS = {1: 1, 4: 3, 7: 2}


def _chained_store(seed: int, stats: AccessStats) -> BlockStore:
    """Ten capacity-4 base blocks, overflow chains of depth 1-3, and some
    deleted slots, so chains mix full, partial and emptied blocks."""
    rng = np.random.default_rng(seed)
    store = BlockStore(capacity=4, stats=stats)
    store.pack_points(rng.random((40, 2)))
    for position, depth in _CHAIN_DEPTHS.items():
        tail = store.base_block_id(position)
        for _ in range(depth):
            block = store.allocate_overflow(tail)
            for x, y in rng.random((int(rng.integers(1, 5)), 2)).tolist():
                block.append(x, y)
            tail = block.block_id
    for block_id in rng.choice(store.n_blocks, size=8, replace=False).tolist():
        block = store.peek(block_id)
        if len(block):
            block.delete(*block.points()[0])
    return store


def _tiered(tmp_path, name: str):
    """Two disk-backed chained stores behind one small TinyLFU pool."""
    pool = SharedBufferPool(capacity=6, admission="tinylfu")
    stores = []
    for shard in range(2):
        store = _chained_store(seed=shard, stats=AccessStats())
        store.attach_disk(BlockFile(tmp_path / f"{name}-{shard}.blk", store.capacity))
        store.attach_cache(pool.client(f"shard-{shard}"))
        stores.append(store)
    return pool, stores


def test_touch_chain_reads_what_iter_chain_reads(tmp_path):
    """Same points in the same order, and the same logical, physical and
    prefetch reads, pool hits, evictions, rejections and LRU order."""
    pool_a, stores_a = _tiered(tmp_path, "touch_chain")
    pool_b, stores_b = _tiered(tmp_path, "iter_chain")
    rng = np.random.default_rng(11)
    shards = rng.integers(0, 2, 300).tolist()
    for shard, position in zip(shards, rng.integers(0, 10, 300).tolist()):
        got = chain_points(stores_a[shard].touch_chain(position))
        want = np.vstack([block.points() for block in stores_b[shard].iter_chain(position)])
        assert got.tolist() == want.tolist()
    for store_a, store_b in zip(stores_a, stores_b):
        assert store_a.stats.block_reads == store_b.stats.block_reads
        assert store_a.stats.physical_block_reads == store_b.stats.physical_block_reads
        assert store_a.stats.prefetch_block_reads == store_b.stats.prefetch_block_reads
        assert store_a.cache.metrics() == store_b.cache.metrics()
    assert pool_a.metrics() == pool_b.metrics()
    assert pool_a.evictions and pool_a.rejections and pool_a.prefetch_issued
    assert list(pool_a._lru.items()) == list(pool_b._lru.items())
    assert pool_a._prefetched == pool_b._prefetched
    for store in stores_a + stores_b:
        store.disk.close()


def test_chain_points_without_overflow_returns_the_block_array():
    store = _chained_store(seed=3, stats=AccessStats())
    assert chain_points(store.touch_chain(0)) is store.peek(store.base_block_id(0)).points()
    chain = chain_points(store.touch_chain(4))
    assert chain.shape[0] == sum(len(block) for block in store.iter_chain(4))


def test_touch_chain_returns_the_blocks_iter_chain_yields():
    store = _chained_store(seed=4, stats=AccessStats())
    for position in range(store.n_base_blocks):
        chain = store.touch_chain(position)
        walked = list(store.iter_chain(position))
        assert [block.block_id for block in chain] == [block.block_id for block in walked]
        assert all(a is b for a, b in zip(chain, walked))  # no disk tier: same objects
        assert len(chain) == _CHAIN_DEPTHS.get(position, 0) + 1
        want = np.vstack([block.points() for block in walked])
        assert chain_points(chain).tolist() == want.tolist()


def test_iter_chain_looks_up_successors_only_behind_an_overflow_link(tmp_path):
    """The chain prefetch is issued exactly for chains with overflow blocks,
    with their successor ids, and no successor walk runs for the others."""
    _, stores = _tiered(tmp_path, "successors")
    store = stores[0]
    walks, prefetches = [], []
    successor_ids, prefetch = BlockStore._chain_successor_ids, BlockStore._cache_prefetch

    def spy_successors(self, block):
        ids = successor_ids(self, block)
        walks.append(ids)
        return ids

    def spy_prefetch(self, block_ids):
        prefetches.append(list(block_ids))
        return prefetch(self, block_ids)

    with mock.patch.object(BlockStore, "_chain_successor_ids", spy_successors), mock.patch.object(
        BlockStore, "_cache_prefetch", spy_prefetch
    ):
        for position in range(store.n_base_blocks):
            list(store.iter_chain(position))
    assert len(walks) == len(_CHAIN_DEPTHS) and all(walks)
    assert prefetches == walks
    for store in stores:
        store.disk.close()
