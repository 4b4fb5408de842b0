"""Unit tests of the shared multi-index buffer pool.

Covers the :class:`~repro.storage.SharedBufferPool` contract directly —
TinyLFU scan resistance, per-client budgets, non-harmful prefetch, the
:class:`~repro.storage.PageCache`-compatible client surface, config-only
pickling — plus the :class:`~repro.storage.BlockStore` prefetch hooks
(overflow chains and position scans) including their
``prefetch_block_reads`` accounting and the disk-tier re-deserialisation
invariant.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.storage import (
    POOL_ADMISSIONS,
    BlockFile,
    BlockStore,
    FrequencySketch,
    PageCache,
    PoolClient,
    SharedBufferPool,
)
from repro.storage import buffer_pool
from repro.storage.buffer_pool import _SKETCH_SEEDS, _WORD, _stable_hash


class TestFrequencySketch:
    def test_estimate_starts_at_zero_and_tracks_increments(self):
        sketch = FrequencySketch(8)
        assert sketch.estimate("a") == 0
        for _ in range(3):
            sketch.increment("a")
        assert sketch.estimate("a") >= 3  # collisions may only inflate

    def test_counters_saturate(self):
        sketch = FrequencySketch(8)
        for _ in range(100):
            sketch.increment("hot")
        assert sketch.estimate("hot") == 15

    def test_aging_halves_counters(self):
        sketch = FrequencySketch(1)  # sample period = 64
        for _ in range(20):
            sketch.increment("hot")
        assert sketch.estimate("hot") == 15
        for filler in range(44):  # 20 + 44 = 64 -> one aging pass
            sketch.increment(("filler", filler))
        assert sketch.ages == 1
        # every counter was halved, so no estimate can exceed 7
        assert sketch.estimate("hot") <= 7


class _RowSketch:
    """The four-row count-min layout the flat sketch replaced, kept as the
    reference: one list per row, indexes recomputed on every call."""

    def __init__(self, capacity: int):
        size = 8
        while size < capacity * 4:
            size <<= 1
        self.mask = size - 1
        self.rows = [[0] * size for _ in _SKETCH_SEEDS]
        self.samples = 0
        self.period = max(10 * capacity, 64)

    def _indexes(self, key):
        h = _stable_hash(key)
        return [
            (((h ^ seed) * 0x9E3779B97F4A7C15) & _WORD) >> 32 & self.mask
            for seed in _SKETCH_SEEDS
        ]

    def increment(self, key) -> None:
        for row, index in zip(self.rows, self._indexes(key)):
            if row[index] < 15:
                row[index] += 1
        self.samples += 1
        if self.samples >= self.period:
            self.rows = [[count >> 1 for count in row] for row in self.rows]
            self.samples = 0

    def estimate(self, key) -> int:
        return min(row[index] for row, index in zip(self.rows, self._indexes(key)))


def test_flat_sketch_decides_like_the_row_layout(monkeypatch):
    """A long zipf-like key stream that ages the sketch hundreds of times and
    overflows the index memo: every estimate, and so every admission
    comparison, equals the row layout's."""
    monkeypatch.setattr(buffer_pool, "_MEMO_LIMIT", 256)
    flat, rows = FrequencySketch(8), _RowSketch(8)
    rng = np.random.default_rng(17)
    keys = [("shard", ("b", int(k))) for k in rng.zipf(1.3, 20_000) % 1_000]
    for step, key in enumerate(keys):
        flat.increment(key)
        rows.increment(key)
        probe = keys[step // 2]
        assert flat.estimate(key) == rows.estimate(key)
        assert flat.estimate(probe) == rows.estimate(probe)
    assert flat.ages >= 200
    assert len(flat._memo) <= 256


class TestPoolBasics:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SharedBufferPool(0)
        with pytest.raises(ValueError):
            SharedBufferPool(4, admission="mru")
        assert set(POOL_ADMISSIONS) == {"tinylfu", "lru"}

    def test_client_is_created_once_and_recappable(self):
        pool = SharedBufferPool(8)
        a = pool.client("a")
        assert pool.client("a") is a
        assert a.budget is None
        assert pool.client("a", budget=3) is a
        assert a.budget == 3
        with pytest.raises(ValueError):
            pool.client("b", budget=0)
        assert [c.name for c in pool.clients()] == ["a"]

    def test_hits_misses_and_namespacing(self):
        pool = SharedBufferPool(8, admission="lru")
        a, b = pool.client("a"), pool.client("b")
        assert a.access("k") is False  # cold miss admits
        assert a.access("k") is True
        # the same key under another client is a distinct page
        assert b.access("k") is False
        assert (a.hits, a.misses) == (1, 1)
        assert (b.hits, b.misses) == (0, 1)
        assert (pool.hits, pool.misses) == (1, 2)
        assert len(pool) == 2 and len(a) == 1 and len(b) == 1
        assert a.contains("k") and b.contains("k")
        assert 0.0 < pool.hit_ratio < 1.0

    def test_lru_admission_evicts_coldest(self):
        pool = SharedBufferPool(2, admission="lru")
        a = pool.client("a")
        a.access("k1")
        a.access("k2")
        a.access("k1")  # k2 is now coldest
        a.access("k3")
        assert not a.contains("k2")
        assert a.contains("k1") and a.contains("k3")
        assert pool.evictions == 1 and a.evictions == 1

    def test_invalidate_and_clear(self):
        pool = SharedBufferPool(8)
        a, b = pool.client("a"), pool.client("b")
        a.access("k")
        b.access("k")
        assert a.invalidate("k") is True
        assert a.invalidate("k") is False  # already gone
        assert not a.contains("k") and b.contains("k")
        assert a.invalidations == 1 and pool.invalidations == 1
        b.access("other")
        a.access("mine")
        b.clear()
        assert len(b) == 0 and a.contains("mine")
        pool.clear()
        assert len(pool) == 0 and len(a) == 0

    def test_reset_counters_keeps_residency(self):
        pool = SharedBufferPool(8)
        a = pool.client("a")
        a.access("k")
        a.access("k")
        pool.reset_counters()
        assert pool.accesses == 0 and a.accesses == 0
        assert a.contains("k")  # residency survives a counter reset

    def test_metrics_surfaces(self):
        pool = SharedBufferPool(8)
        a = pool.client("a", budget=4)
        a.access("k")
        m = pool.metrics()
        assert m["capacity"] == 8 and m["admission"] == "tinylfu"
        assert m["resident"] == 1 and m["clients"]["a"]["resident"] == 1
        cm = a.metrics()
        assert cm["capacity"] == 4  # the budget caps the reported capacity
        assert cm["policy"] == "pool-tinylfu"
        assert cm["misses"] == 1


class TestTinyLFUAdmission:
    def _warm(self, client, n_hot: int, rounds: int = 3):
        for _ in range(rounds):
            for i in range(n_hot):
                client.access(("h", i))

    def test_one_touch_scan_cannot_flush_hot_set(self):
        pool = SharedBufferPool(8, admission="tinylfu")
        hot, scan = pool.client("hot"), pool.client("scan")
        self._warm(hot, 8)
        assert len(pool) == 8
        for i in range(40):  # stays under the sketch's aging period
            scan.access(("s", i))
        # one-touch pages lose the frequency comparison against the warm set
        # (a stray count-min collision may admit the odd page, nothing more)
        assert scan.rejections >= 30
        assert sum(hot.contains(("h", i)) for i in range(8)) >= 6

    def test_same_scan_flushes_a_shared_lru(self):
        pool = SharedBufferPool(8, admission="lru")
        hot, scan = pool.client("hot"), pool.client("scan")
        self._warm(hot, 8)
        for i in range(40):
            scan.access(("s", i))
        assert scan.rejections == 0  # lru always admits...
        assert sum(hot.contains(("h", i)) for i in range(8)) == 0  # ...and thrashes
        hot.reset_counters()
        self._warm(hot, 8, rounds=1)
        assert hot.hits == 0

    def test_rejected_miss_still_counts_as_miss(self):
        pool = SharedBufferPool(4, admission="tinylfu")
        hot, scan = pool.client("hot"), pool.client("scan")
        self._warm(hot, 4)
        misses_before = scan.misses
        scan.access(("s", 0))
        assert scan.misses == misses_before + 1
        assert scan.rejections == 1


class TestClientBudgets:
    def test_budget_evicts_own_coldest_page(self):
        pool = SharedBufferPool(8)
        a = pool.client("a", budget=2)
        b = pool.client("b")
        b.access("b1")
        a.access("k1")
        a.access("k2")
        a.access("k3")  # over budget: a's own coldest page goes
        assert not a.contains("k1")
        assert a.contains("k2") and a.contains("k3")
        assert len(a) == 2
        assert b.contains("b1")  # the neighbour is never touched

    def test_budget_validation(self):
        pool = SharedBufferPool(8)
        with pytest.raises(ValueError):
            PoolClient(pool, "bad", budget=0)


class TestPrefetch:
    def test_prefetch_never_displaces_demanded_pages(self):
        pool = SharedBufferPool(4)
        c = pool.client("c")
        for key in ("d1", "d2", "d3"):
            c.access(key)
        admitted = c.prefetch(["p1", "p2"])
        # one free slot: p1 takes it, p2 finds no prefetched victim outside
        # its own batch and is skipped rather than evicting a demanded page
        assert admitted == ["p1"]
        assert all(c.contains(key) for key in ("d1", "d2", "d3"))
        assert c.prefetch_issued == 1 and pool.prefetch_issued == 1

    def test_prefetch_hit_counts_as_hit_and_used(self):
        pool = SharedBufferPool(4)
        c = pool.client("c")
        c.prefetch(["p"])
        assert c.access("p") is True
        assert c.hits == 1
        assert pool.prefetch_used == 1

    def test_resident_keys_are_not_reprefetched(self):
        pool = SharedBufferPool(4)
        c = pool.client("c")
        c.access("k")
        assert c.prefetch(["k", "p"]) == ["p"]

    def test_demand_admission_reclaims_prefetched_first(self):
        pool = SharedBufferPool(2, admission="tinylfu")
        c = pool.client("c")
        c.prefetch(["x"])  # speculative, sits at the cold end
        c.access("y")
        c.access("z")  # full pool: the unused prefetch is displaced, gate-free
        assert not c.contains("x")
        assert c.contains("y") and c.contains("z")
        assert pool.prefetch_evictions == 1

    def test_budget_capped_prefetch_recycles_own_prefetches(self):
        pool = SharedBufferPool(8)
        b = pool.client("b")
        b.access("demanded")
        a = pool.client("a", budget=2)
        assert a.prefetch(["q1", "q2"]) == ["q1", "q2"]
        assert a.prefetch(["q3"]) == ["q3"]  # evicts one of a's own prefetches
        assert len(a) == 2
        assert a.contains("q3")
        assert b.contains("demanded")
        assert pool.prefetch_evictions == 1

    def test_full_pool_of_demanded_pages_skips_prefetch(self):
        pool = SharedBufferPool(2)
        c = pool.client("c")
        c.access("d1")
        c.access("d2")
        assert c.prefetch(["p1", "p2"]) == []
        assert c.contains("d1") and c.contains("d2")


class _LRUWalkPool(SharedBufferPool):
    """The pool with the prefetch-victim search it replaced, kept as the
    reference: a walk of the whole LRU from its cold end."""

    def _prefetched_victim(self, fresh, owner=None):
        for full in self._lru:
            if full in self._prefetched and full not in fresh:
                if owner is None or self._lru[full] == owner:
                    return full
        return None


@pytest.mark.parametrize("admission", POOL_ADMISSIONS)
def test_prefetch_victims_match_the_lru_walk(admission):
    """Demand accesses, prefetch bursts, invalidations and clears from a
    budgeted and an unbudgeted client: every victim, counter and the LRU
    order equal the reference walk's, and the prefetched-unused pages stay
    in their LRU order."""
    pools = [SharedBufferPool(12, admission), _LRUWalkPool(12, admission)]
    rng = np.random.default_rng(29)
    for step in range(3_000):
        name, budget = [("a", None), ("b", 5)][int(rng.integers(0, 2))]
        kind = rng.choice(
            ["access", "prefetch", "invalidate", "clear"], p=[0.65, 0.3, 0.04, 0.01]
        )
        keys = [int(k) for k in rng.integers(0, 40, size=int(rng.integers(1, 7)))]
        for pool in pools:
            client = pool.client(name, budget)
            if kind == "access":
                client.access(keys[0])
            elif kind == "prefetch":
                client.prefetch(keys)
            elif kind == "invalidate":
                client.invalidate(keys[0])
            else:
                client.clear()
        fast, walk = pools
        assert list(fast._lru.items()) == list(walk._lru.items())
        assert list(fast._prefetched) == [full for full in fast._lru if full in fast._prefetched]
        assert list(fast._prefetched) == list(walk._prefetched)
        assert fast.metrics() == walk.metrics()
    assert fast.prefetch_evictions and fast.prefetch_used and fast.evictions


class TestPageCacheSurfaceParity:
    """A PoolClient must be drop-in wherever a PageCache is accepted."""

    SURFACE = (
        "access", "invalidate", "contains", "clear", "reset_counters",
        "metrics", "capacity", "policy", "hits", "misses", "evictions",
        "invalidations", "accesses", "hit_ratio",
    )

    def test_client_exposes_the_page_cache_surface(self):
        cache = PageCache(8)
        client = SharedBufferPool(8).client("c")
        for attribute in self.SURFACE:
            assert hasattr(cache, attribute)
            assert hasattr(client, attribute)
        assert len(client) == 0  # __len__, like PageCache

    def test_identical_counter_semantics_on_a_hot_loop(self):
        cache = PageCache(8, "lru")
        client = SharedBufferPool(8, admission="lru").client("c")
        for sink in (cache, client):
            for _ in range(3):
                for key in ("a", "b", "c"):
                    sink.access(key)
        assert client.hits == cache.hits == 6
        assert client.misses == cache.misses == 3
        assert client.hit_ratio == cache.hit_ratio


class TestPickling:
    def test_pool_pickles_config_only(self):
        pool = SharedBufferPool(16, admission="tinylfu")
        client = pool.client("c", budget=4)
        client.access("k")
        loaded = pickle.loads(pickle.dumps(pool))
        assert loaded.capacity == 16 and loaded.admission == "tinylfu"
        assert len(loaded) == 0 and loaded.clients() == []
        assert loaded.accesses == 0

    def test_client_pickles_cold_and_reregisters(self):
        pool = SharedBufferPool(16)
        client = pool.client("c", budget=4)
        client.access("k")
        client.access("k")
        loaded = pickle.loads(pickle.dumps(client))
        assert loaded.name == "c" and loaded.budget == 4
        assert loaded.accesses == 0 and len(loaded) == 0
        # the unpickled client owns its name inside the unpickled pool
        assert loaded.pool.client("c") is loaded
        # ...and the original registry is untouched
        assert pool.client("c") is client


class TestBlockStorePrefetchHooks:
    def _packed_store(self, n_points: int, capacity: int = 4) -> BlockStore:
        store = BlockStore(capacity=capacity)
        rng = np.random.default_rng(0)
        store.pack_points(rng.uniform(size=(n_points, 2)))
        store.stats.reset()
        return store

    def test_scan_prefetches_ahead_and_accounts_separately(self):
        store = self._packed_store(64)  # 16 base blocks
        pool = SharedBufferPool(32)
        store.attach_cache(pool.client("store"))
        blocks = list(store.scan_positions(0, 15))
        assert len(blocks) == 16
        # the first position faults; the 15 ahead of it were prefetched
        assert store.stats.block_reads == 16
        assert store.stats.physical_block_reads == 1
        assert store.stats.prefetch_block_reads == 15
        assert store.stats.cache_hits == 15
        assert store.stats.physical_reads == 16  # demand misses + prefetch I/O

    def test_plain_page_cache_gets_no_prefetch(self):
        store = self._packed_store(64)
        store.attach_cache(PageCache(32, "lru"))
        list(store.scan_positions(0, 15))
        assert store.stats.prefetch_block_reads == 0
        assert store.stats.physical_block_reads == 16  # every block cold-faults

    def test_chain_walk_prefetches_overflow_successors(self):
        store = BlockStore(capacity=2)
        store.pack_points(np.asarray([[0.1, 0.1], [0.2, 0.2]], dtype=float))
        base_id = store.base_block_id(0)
        tail = base_id
        for i in range(3):
            block = store.allocate_overflow(tail)
            block.append(0.3 + i / 10, 0.3)
            tail = block.block_id
        pool = SharedBufferPool(16)
        store.attach_cache(pool.client("store"))
        store.stats.reset()
        chain = list(store.iter_chain(0))
        assert len(chain) == 4
        assert store.stats.block_reads == 4
        assert store.stats.physical_block_reads == 1  # only the base faults
        assert store.stats.prefetch_block_reads == 3
        assert store.stats.cache_hits == 3

    def test_chain_walk_without_overflow_asks_for_no_prefetch(self, monkeypatch):
        """A base block linked to the next base block has no chain behind
        it: walking it asks the pool for nothing."""
        store = self._packed_store(8)
        assert store.peek(store.base_block_id(0)).next_id is not None
        client = SharedBufferPool(16).client("store")
        store.attach_cache(client)
        calls = []
        monkeypatch.setattr(client, "prefetch", lambda keys: calls.append(keys) or [])
        assert len(list(store.iter_chain(0))) == 1
        assert calls == []

    def test_prefetch_admission_refreshes_from_disk(self, tmp_path):
        store = self._packed_store(32)
        store.attach_disk(BlockFile(tmp_path / "blocks.dat", store.capacity))
        pool = SharedBufferPool(32)
        store.attach_cache(pool.client("store"))
        before = store.all_points()
        stale = [store.peek(store.base_block_id(p)) for p in range(1, 4)]
        list(store.scan_positions(0, 7))
        # an admitted prefetch re-deserialises the block, upholding the
        # "cache hit => in-memory object is current" invariant of _touch
        for position, old in zip(range(1, 4), stale):
            assert store.peek(store.base_block_id(position)) is not old
        assert store.stats.prefetch_block_reads > 0
        np.testing.assert_array_equal(store.all_points(), before)

    def test_prefetch_skipped_when_pool_rejects(self):
        store = self._packed_store(64)
        pool = SharedBufferPool(4)
        hot = pool.client("hot")
        for _ in range(3):
            for i in range(4):
                hot.access(("h", i))
        store.attach_cache(pool.client("store"))
        list(store.scan_positions(0, 15))
        # a full pool of demanded pages admits no speculation: nothing is
        # charged as prefetch I/O for blocks the pool never took
        assert store.stats.prefetch_block_reads == 0
        # the tiny sketch can suffer a collision or two, but the hot set as
        # a whole stays resident behind the admission filter
        assert sum(hot.contains(("h", i)) for i in range(4)) >= 2
