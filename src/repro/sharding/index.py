"""The sharded serving index: N shards, each wrapping one ordinary index.

:class:`ShardedSpatialIndex` partitions the data space across ``n_shards``
shards according to a :class:`~repro.sharding.policy.ShardingPolicy`; each
shard wraps an independent index instance (an RSMI or any baseline) built
over exactly the points falling in its region.  All single-operation query
and update methods route through the :class:`~repro.sharding.router
.ShardRouter` to the minimal shard set:

* point lookups / inserts / deletes touch exactly one shard,
* window queries fan out only to shards whose region intersects the window,
* kNN queries expand shards best-first by region MINDIST and stop as soon
  as the k-th candidate is closer than every unvisited shard — usually
  after a single shard.

Shards are **lazily built**: a shard whose region holds no points at build
time stays index-less (queries over it short-circuit to empty) until the
first insert lands there, and a shard whose wrapped index was drained by
deletes short-circuits the same way.  This is what lets the sharded index
survive bulk-churn streams that empty whole regions.

Per-shard :class:`~repro.storage.AccessStats` are created eagerly and
shared with the wrapped index, so block-access accounting both aggregates
across the whole index (:class:`CompositeAccessStats`, which is what the
batched engines and the scenario runner see) and stays attributable per
shard (:meth:`ShardedSpatialIndex.per_shard_stats` — how the benchmarks
assert that window queries skip non-intersecting shards).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.geometry import Rect, require_finite_point
from repro.sharding.policy import ShardingPolicy, make_policy
from repro.sharding.rebalance import AdaptiveShardingPolicy, RebalanceError
from repro.sharding.router import ShardRouter
from repro.storage import AccessStats, PageCache, SharedBufferPool, make_page_cache
from repro.storage.block_file import BlockFile

__all__ = [
    "CompositeAccessStats",
    "ShardedSpatialIndex",
    "shard_index_factory",
    "SHARDABLE_KINDS",
    "EXACT_KINDS",
]

_EMPTY = np.empty((0, 2), dtype=float)

#: wrapped index kinds :func:`shard_index_factory` can build; ``RSMIa`` is
#: the exact-query RSMI kind (window/kNN via MBR traversal)
SHARDABLE_KINDS = ("RSMI", "RSMIa", "Grid", "KDB", "HRR", "RR*", "ZM")

#: kinds whose window/kNN answers are exact: a sharded index over one of them
#: declares ``supports_exact_results``
EXACT_KINDS = frozenset({"Grid", "KDB", "HRR", "RR*", "RSMIa"})


class _ShardIndexFactory:
    """Picklable ``factory(points, shard_id, stats) -> index`` for one kind.

    A plain class (not a closure) so a built :class:`ShardedSpatialIndex`
    — which keeps its factory for lazily rebuilding emptied shards — can be
    checkpointed through :func:`~repro.core.persistence.save_index`.
    """

    def __init__(self, kind, block_capacity, partition_threshold, training, seed):
        self.kind = kind
        self.block_capacity = block_capacity
        self.partition_threshold = partition_threshold
        self.training = training
        self.seed = seed

    def __call__(
        self, points: np.ndarray, shard_id: int, stats: Optional[AccessStats] = None
    ) -> object:
        from repro.baselines import GridFile, HRRTree, KDBTree, RStarTree, ZMConfig, ZMIndex
        from repro.core import RSMI, RSMIa, RSMIConfig

        shard_seed = self.seed + 7919 * shard_id
        stats = stats if stats is not None else AccessStats()
        if self.kind in ("RSMI", "RSMIa"):
            config = RSMIConfig(
                block_capacity=self.block_capacity,
                partition_threshold=self.partition_threshold,
                training=self.training,
                seed=shard_seed,
            )
            kind = RSMI if self.kind == "RSMI" else RSMIa
            return kind(config, stats=stats).build(points)
        if self.kind == "ZM":
            config = ZMConfig(
                block_capacity=self.block_capacity, training=self.training, seed=shard_seed
            )
            return ZMIndex(config, stats=stats).build(points)
        if self.kind == "Grid":
            return GridFile(block_capacity=self.block_capacity, stats=stats).build(points)
        if self.kind == "KDB":
            return KDBTree(block_capacity=self.block_capacity, stats=stats).build(points)
        if self.kind == "HRR":
            return HRRTree(block_capacity=self.block_capacity, stats=stats).build(points)
        return RStarTree(block_capacity=self.block_capacity, stats=stats).build(points)


def shard_index_factory(
    kind: str,
    block_capacity: int = 50,
    partition_threshold: int = 1_000,
    training=None,
    seed: int = 0,
) -> Callable[..., object]:
    """A builder for per-shard indices of one ``kind``.

    Returns ``factory(points, shard_id, stats) -> index``; every shard gets
    an independent instance (with a shard-decorrelated seed for the learned
    kinds) recording its block accesses into the shard's ``stats`` counter.
    ``partition_threshold`` applies per shard, so it should be sized for the
    expected per-shard population, not the global one.  The factory is
    picklable, so sharded indices can be checkpointed by the durable tier.
    """
    from repro.nn import TrainingConfig

    normalized = kind.strip()
    if normalized not in SHARDABLE_KINDS:
        raise ValueError(f"unknown index kind {kind!r}; available: {SHARDABLE_KINDS}")
    training = training if training is not None else TrainingConfig()
    return _ShardIndexFactory(
        normalized, block_capacity, partition_threshold, training, seed
    )


class CompositeAccessStats:
    """Aggregate view over the per-shard :class:`AccessStats` counters.

    Implements the same read/reset/snapshot/delta surface as
    :class:`AccessStats` — including the logical/physical read split — so
    the batched engines and the scenario runner can treat a sharded index
    exactly like a single-index one (per-query deltas included); the
    underlying per-shard counters stay addressable for locality assertions.
    """

    def __init__(self, parts: Sequence[AccessStats]):
        self._parts = list(parts)

    @property
    def block_reads(self) -> int:
        return sum(part.block_reads for part in self._parts)

    @property
    def block_writes(self) -> int:
        return sum(part.block_writes for part in self._parts)

    @property
    def node_reads(self) -> int:
        return sum(part.node_reads for part in self._parts)

    @property
    def total_reads(self) -> int:
        return sum(part.total_reads for part in self._parts)

    @property
    def logical_reads(self) -> int:
        return self.total_reads

    @property
    def physical_block_reads(self) -> int:
        return sum(part.physical_block_reads for part in self._parts)

    @property
    def physical_node_reads(self) -> int:
        return sum(part.physical_node_reads for part in self._parts)

    @property
    def physical_reads(self) -> int:
        return sum(part.physical_reads for part in self._parts)

    @property
    def prefetch_block_reads(self) -> int:
        return sum(part.prefetch_block_reads for part in self._parts)

    @property
    def cache_hits(self) -> int:
        return sum(part.cache_hits for part in self._parts)

    @property
    def hit_ratio(self) -> float:
        logical = self.logical_reads
        return self.cache_hits / logical if logical > 0 else 0.0

    def reset(self) -> None:
        for part in self._parts:
            part.reset()

    def snapshot(self) -> AccessStats:
        """The aggregated counters frozen into a plain :class:`AccessStats`."""
        return AccessStats(
            self.block_reads,
            self.block_writes,
            self.node_reads,
            self.physical_block_reads,
            self.physical_node_reads,
            self.prefetch_block_reads,
        )

    def delta_since(self, earlier: AccessStats) -> AccessStats:
        """Counters accumulated since ``earlier`` (an :class:`AccessStats`
        snapshot, e.g. from :meth:`snapshot`) — same contract as
        :meth:`AccessStats.delta_since`, so sharded runs report per-query
        deltas exactly like single-index runs."""
        return self.snapshot().delta_since(earlier)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompositeAccessStats(shards={len(self._parts)}, total={self.total_reads})"


class _Shard:
    """One shard: a region's stats, cache, live-point count and lazily built index."""

    __slots__ = ("shard_id", "stats", "index", "cache", "disk_path")

    def __init__(self, shard_id: int, cache: Optional[PageCache] = None):
        self.shard_id = shard_id
        self.stats = AccessStats()
        self.index: Optional[object] = None
        #: shard-local page cache; writes to this shard invalidate only here
        self.cache = cache
        #: where this shard's block-file mirror lives, when the durable tier
        #: asked for one (the open handle lives on the index's block store
        #: and is never pickled; the path survives so lazy builds re-attach)
        self.disk_path: Optional[Path] = None

    @property
    def n_points(self) -> int:
        return int(self.index.n_points) if self.index is not None else 0

    @property
    def is_empty(self) -> bool:
        return self.n_points == 0

    # -- queries (guarded so empty/unbuilt shards short-circuit) ---------------

    def contains(self, x: float, y: float) -> bool:
        if self.is_empty:
            return False
        return bool(self.index.contains(x, y))

    def window_query(self, window: Rect) -> np.ndarray:
        if self.is_empty:
            return _EMPTY.copy()
        return self.index.window_query(window)

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        if self.is_empty:
            return _EMPTY.copy()
        return self.index.knn_query(x, y, min(k, self.n_points))

    def prefetch_windows(self, windows: Sequence[Rect]) -> int:
        """Warm the cache for an upcoming window sub-batch, when the wrapped
        kind can plan its scan range without touching the store (currently
        the ZM family); returns the number of blocks admitted."""
        if self.is_empty:
            return 0
        prefetch = getattr(self.index, "prefetch_window", None)
        if prefetch is None:
            return 0
        return sum(prefetch(window) for window in windows)

    # -- updates ---------------------------------------------------------------

    def insert(self, x: float, y: float, factory, points: Optional[np.ndarray] = None) -> None:
        if self.index is None:
            seedling = (
                points
                if points is not None
                else np.asarray([[x, y]], dtype=float)
            )
            self.index = factory(seedling, self.shard_id, self.stats)
            if self.cache is not None:
                self.attach_cache(self.cache)
            if self.disk_path is not None:
                self.attach_disk(self.disk_path)
            return
        self.index.insert(x, y)

    def attach_cache(self, cache: Optional[PageCache]) -> None:
        """Install this shard's page cache on its (possibly lazy) index."""
        self.cache = cache
        if self.index is not None:
            self.index.attach_cache(cache)

    def attach_disk(self, path: Optional[Path]) -> None:
        """Install (or remove, with None) this shard's block-file mirror.

        Only block-store-backed shard kinds mirror to disk; tree baselines
        (NodePager nodes) record the path but attach nothing.  A lazily
        built shard attaches its mirror the moment its index first exists.
        """
        self.disk_path = path
        store = getattr(self.index, "store", None)
        if store is None:
            return
        if path is None:
            disk = store.disk
            store.attach_disk(None)
            if disk is not None:
                disk.close()
            return
        if path.exists():
            path.unlink()  # stale mirror from an earlier attach
        store.attach_disk(BlockFile(path, store.capacity))

    def delete(self, x: float, y: float) -> bool:
        if self.is_empty:
            return False
        return bool(self.index.delete(x, y))

    def size_bytes(self) -> int:
        return int(self.index.size_bytes()) if self.index is not None else 0


class ShardedSpatialIndex:
    """N shards behind one spatial-index interface.

    Parameters
    ----------
    factory:
        ``factory(points, shard_id, stats) -> index`` building one shard's
        wrapped index over the shard's ``stats`` counter; use
        :func:`shard_index_factory` for the standard kinds.
    n_shards:
        Number of shards (ignored when ``policy`` is an instance).
    policy:
        A policy name (``"grid"``, ``"zorder"``, ``"balanced"``) resolved at
        :meth:`build` time against the build points, or a ready
        :class:`ShardingPolicy` instance.
    data_space:
        The space the policy partitions (default: the unit square).
    cache_blocks / cache_policy:
        When ``cache_blocks`` is positive, every shard gets its **own**
        :class:`~repro.storage.PageCache` of that capacity (policy
        ``"lru"`` or ``"clock"``).  Caches are shard-local by construction:
        a write routed to one shard invalidates pages in that shard's cache
        only, so hot shards keep their working sets warm regardless of
        churn elsewhere.
    """

    def __init__(
        self,
        factory: Callable[..., object],
        n_shards: int = 4,
        policy: Union[str, ShardingPolicy] = "grid",
        data_space: Optional[Rect] = None,
        name: Optional[str] = None,
        cache_blocks: Optional[int] = None,
        cache_policy: str = "lru",
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.factory = factory
        self.cache_blocks = cache_blocks
        self.cache_policy = cache_policy
        kind = getattr(factory, "kind", None)
        #: capability flag: exact per-shard kinds make the merged sharded
        #: answers agree exactly with a brute-force oracle
        self.supports_exact_results = kind in EXACT_KINDS
        self.supports_attributes = True
        self.data_space = data_space if data_space is not None else Rect.unit()
        if isinstance(policy, ShardingPolicy):
            self._policy_spec: Optional[str] = None
            self.policy: Optional[ShardingPolicy] = policy
            self.n_shards = policy.n_shards
        else:
            self._policy_spec = policy
            self.policy = None
            self.n_shards = n_shards
        self.router: Optional[ShardRouter] = None
        #: the shared buffer pool, when :meth:`attach_shared_pool` installed one
        self.shared_pool: Optional[SharedBufferPool] = None
        self._pool_namespace = "shard"
        self._pool_budget: Optional[int] = None
        self._disk_directory: Optional[Path] = None
        #: rescue buffers for in-flight migrations: writes routed to a
        #: migrating shard are recorded here (as well as applied normally)
        #: so the migration can replay them into the replacement shards
        self._rescue: dict[int, list] = {}
        self.shards: list[_Shard] = []
        self.stats = CompositeAccessStats([])
        self.name = name or f"Sharded[{kind or 'index'}x{self.n_shards}:" + (
            policy.name if isinstance(policy, ShardingPolicy) else str(policy)
        ) + "]"

    # -- lifecycle ------------------------------------------------------------

    def build(self, points: np.ndarray) -> "ShardedSpatialIndex":
        """Partition ``points`` across the shards and build each wrapped index."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if points.shape[0] == 0:
            raise ValueError("cannot build an index over an empty point set")
        if self.policy is None:
            self.policy = make_policy(
                self._policy_spec, self.n_shards, self.data_space, sample=points
            )
        self.router = ShardRouter(self.policy)
        self.shards = [
            _Shard(i, make_page_cache(self.cache_blocks, self.cache_policy))
            for i in range(self.n_shards)
        ]
        self.stats = CompositeAccessStats([shard.stats for shard in self.shards])
        owners = self.router.shards_for_points(points)
        self.router.record_assignments(points, owners)
        for shard in self.shards:
            mine = points[owners == shard.shard_id]
            if mine.shape[0] > 0:
                shard.insert(float(mine[0, 0]), float(mine[0, 1]), self.factory, points=mine)
        return self

    def build_assigned(self, shard_points: dict) -> "ShardedSpatialIndex":
        """Build from an explicit ``shard_id -> points`` assignment.

        Requires a resolved :class:`ShardingPolicy` instance (the assignment
        must come from the same policy, or from a snapshot of a built index).
        Shards absent from the map — or mapped to an empty array — stay
        lazily empty, which is how the process-pool serving workers build
        only the shards they own.  Each shard's wrapped index is constructed
        over the given array *in the given order*, so two builds from the
        same assignment produce byte-identical per-shard structures (and
        therefore byte-identical query answers, enumeration order included).
        """
        if self.policy is None:
            raise ValueError("build_assigned requires a ShardingPolicy instance")
        self.router = ShardRouter(self.policy)
        self.shards = [
            _Shard(i, make_page_cache(self.cache_blocks, self.cache_policy))
            for i in range(self.n_shards)
        ]
        self.stats = CompositeAccessStats([shard.stats for shard in self.shards])
        for shard_id in sorted(shard_points):
            mine = np.asarray(shard_points[shard_id], dtype=float).reshape(-1, 2)
            if mine.shape[0] == 0:
                continue
            owners = np.full(mine.shape[0], shard_id, dtype=np.int64)
            self.router.record_assignments(mine, owners)
            self.shards[shard_id].insert(
                float(mine[0, 0]), float(mine[0, 1]), self.factory, points=mine
            )
        return self

    def attach_caches(self, cache_blocks: Optional[int], cache_policy: str = "lru") -> None:
        """(Re)install one fresh shard-local page cache per shard.

        ``cache_blocks`` is the per-shard capacity; ``None``/``0`` detaches
        all caches.  Usable after :meth:`build` — e.g. by a serving engine
        that decides cache sizing at deployment time.
        """
        self._require_built()
        self.cache_blocks = cache_blocks
        self.cache_policy = cache_policy
        self.shared_pool = None
        for shard in self.shards:
            shard.attach_cache(make_page_cache(cache_blocks, cache_policy))

    def attach_shared_pool(
        self,
        pool: "SharedBufferPool",
        budget_per_shard: Optional[int] = None,
        namespace: str = "shard",
    ) -> "SharedBufferPool":
        """Serve every shard from one shared buffer pool instead of
        shard-local caches.

        Each shard reads through its own
        :class:`~repro.storage.buffer_pool.PoolClient`
        (``"<namespace>-<shard_id>"``), so writes still invalidate only the
        owning shard's pages, while the pool's whole capacity follows the
        traffic — a drifting hotspot re-uses the full budget instead of
        thrashing one statically sized shard cache.  ``budget_per_shard``
        optionally caps any one shard's occupancy; ``namespace`` keeps
        client names disjoint when several indices share one pool.
        """
        self._require_built()
        self.cache_blocks = None
        self.cache_policy = pool.admission
        self.shared_pool = pool
        self._pool_namespace = namespace
        self._pool_budget = budget_per_shard
        for shard in self.shards:
            shard.attach_cache(pool.client(f"{namespace}-{shard.shard_id}", budget_per_shard))
        return pool

    def attach_disk(self, directory: Union[str, Path]) -> None:
        """Give every shard its own block-file mirror under ``directory``.

        Shard ``i`` writes through to ``shard-<i>.blocks``; shards whose
        wrapped kind has no block store (the tree baselines) are skipped.
        The durability layer calls this for ``--storage-backend disk`` runs,
        and again after recovery — the mirrors are rebuilt from the
        recovered in-memory state, which is authoritative.
        """
        self._require_built()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._disk_directory = directory
        for shard in self.shards:
            shard.attach_disk(directory / f"shard-{shard.shard_id}.blocks")

    def detach_disk(self) -> None:
        """Close and remove every shard's block-file mirror."""
        self._disk_directory = None
        for shard in self.shards:
            shard.attach_disk(None)

    def _require_built(self) -> None:
        if self.router is None:
            raise RuntimeError("index is not built yet; call build(points) first")

    # -- queries --------------------------------------------------------------

    def contains(self, x: float, y: float) -> bool:
        """True when a point with exactly these coordinates is stored."""
        self._require_built()
        return self.shards[self.router.shard_for_point(float(x), float(y))].contains(
            float(x), float(y)
        )

    def window_query(self, window: Rect) -> np.ndarray:
        """All stored points inside ``window``; only intersecting shards are
        touched."""
        self._require_built()
        chunks = [
            self.shards[shard_id].window_query(window)
            for shard_id in self.router.shards_for_window(window)
        ]
        chunks = [chunk for chunk in chunks if chunk.shape[0] > 0]
        return np.vstack(chunks) if chunks else _EMPTY.copy()

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """The k nearest stored points via best-first shard expansion.

        Shards are visited in ascending region-MINDIST order; expansion
        stops once k candidates are closer than the next shard's bound, so
        far-away shards are never touched.  Exact when the wrapped indices
        answer kNN exactly (shards partition the data, so merging per-shard
        answers loses nothing).
        """
        self._require_built()
        if k < 1:
            raise ValueError("k must be >= 1")
        x, y = float(x), float(y)
        best: list[tuple[float, float, float]] = []  # (distance, px, py), sorted
        for bound, shard_id in self.router.knn_shard_order(x, y):
            if len(best) >= k and bound > best[k - 1][0]:
                break
            shard = self.shards[shard_id]
            if shard.is_empty:
                continue
            for px, py in shard.knn_query(x, y, k):
                distance = float(np.hypot(px - x, py - y))
                best.append((distance, float(px), float(py)))
            best.sort()
            del best[k:]
        return np.asarray([(px, py) for _, px, py in best], dtype=float).reshape(-1, 2)

    # -- updates --------------------------------------------------------------

    def insert(self, x: float, y: float) -> None:
        """Insert a point into the single shard owning it (building the
        shard's index on first use)."""
        self._require_built()
        require_finite_point(x, y)
        x, y = float(x), float(y)
        shard_id = self.router.record_insert(x, y)
        self.shards[shard_id].insert(x, y, self.factory)
        rescue = self._rescue.get(shard_id)
        if rescue is not None:
            rescue.append(("insert", x, y))

    def delete(self, x: float, y: float) -> bool:
        """Delete a stored point from the shard owning it."""
        self._require_built()
        require_finite_point(x, y)
        x, y = float(x), float(y)
        shard_id = self.router.shard_for_point(x, y)
        deleted = self.shards[shard_id].delete(x, y)
        rescue = self._rescue.get(shard_id)
        if rescue is not None and deleted:
            rescue.append(("delete", x, y))
        return deleted

    # -- online rebalancing hooks ----------------------------------------------
    #
    # The split/merge *decision and staging* live in
    # :mod:`repro.sharding.rebalance`; the methods below are the index-side
    # primitives a migration composes: capture writes into rescue buffers,
    # snapshot a shard's live points, build replacement shards off to the
    # side, and atomically swap them in (policy + shard list + router +
    # caches + disk mirrors all mutate inside one call, so a reader between
    # any two operations sees either the old topology or the new one —
    # never half of each).

    def enable_rebalancing(self) -> AdaptiveShardingPolicy:
        """Wrap the policy so shard regions can be split/merged online.

        Idempotent; routing answers are unchanged until the first split.
        """
        self._require_built()
        if not isinstance(self.policy, AdaptiveShardingPolicy):
            self.policy = AdaptiveShardingPolicy(self.policy)
            self.router.policy = self.policy
        return self.policy

    def register_rescue(self, shard_ids: Sequence[int]) -> list:
        """Start capturing writes routed to ``shard_ids`` (one shared,
        arrival-ordered buffer, so merge migrations replay in order)."""
        buffer: list = []
        for shard_id in shard_ids:
            if shard_id in self._rescue:
                raise RebalanceError(f"shard {shard_id} is already migrating")
            self._rescue[shard_id] = buffer
        return buffer

    def release_rescue(self, shard_ids: Sequence[int]) -> None:
        """Stop capturing writes for ``shard_ids``."""
        for shard_id in shard_ids:
            self._rescue.pop(shard_id, None)

    def live_shard_points(self, shard_id: int) -> np.ndarray:
        """Snapshot every live point of one shard (the migration source).

        Block-store-backed kinds enumerate their store directly; tree kinds
        run an exact window query over the shard's effective extent.  Either
        way the snapshot must account for every live point — a mismatch
        aborts the migration rather than silently dropping data.
        """
        self._require_built()
        shard = self.shards[shard_id]
        if shard.is_empty:
            return _EMPTY.copy()
        store = getattr(shard.index, "store", None)
        if store is not None:
            points = np.asarray(store.all_points(), dtype=float).reshape(-1, 2)
        else:
            extent = self.router.shard_extent(shard_id)
            pad = 1e-9 * max(1.0, abs(extent.xhi), abs(extent.yhi))
            window = Rect(
                extent.xlo - pad, extent.ylo - pad, extent.xhi + pad, extent.yhi + pad
            )
            points = shard.window_query(window)
        if points.shape[0] != shard.n_points:
            raise RebalanceError(
                f"shard {shard_id} snapshot found {points.shape[0]} points, "
                f"index holds {shard.n_points}"
            )
        return points

    def build_replacement_shard(self, shard_id: int, points: np.ndarray) -> _Shard:
        """Build a detached shard over ``points`` (no cache/disk attached —
        the swap equips it once its id is final)."""
        shard = _Shard(shard_id)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if points.shape[0] > 0:
            shard.insert(
                float(points[0, 0]), float(points[0, 1]), self.factory, points=points
            )
        return shard

    def _equip_shard(self, shard: _Shard) -> None:
        """Attach the index-level cache/pool/disk configuration to a shard
        whose id is final (new children, relocated shards)."""
        if self.shared_pool is not None:
            client = self.shared_pool.client(
                f"{self._pool_namespace}-{shard.shard_id}", self._pool_budget
            )
            client.clear()  # the name may be reused from a merged-away shard
            shard.attach_cache(client)
        elif self.cache_blocks:
            shard.attach_cache(make_page_cache(self.cache_blocks, self.cache_policy))
        if self._disk_directory is not None:
            shard.attach_disk(self._disk_directory / f"shard-{shard.shard_id}.blocks")

    def swap_in_split(
        self, shard_id: int, axis: int, threshold: float, left: _Shard, right: _Shard
    ) -> int:
        """Atomically replace shard ``shard_id`` with its two children.

        The ``< threshold`` child keeps ``shard_id`` (so per-shard state
        keyed by id stays mostly valid); the other child gets the next free
        id.  Policy, shard list, router overflow bookkeeping, aggregate
        stats and storage attachments all change inside this one call.
        """
        self._require_built()
        if not isinstance(self.policy, AdaptiveShardingPolicy):
            raise RebalanceError("call enable_rebalancing() before splitting")
        if shard_id in self._rescue:
            raise RebalanceError("release the rescue buffer before swapping")
        right_id = self.policy.split(shard_id, axis, threshold)
        old = self.shards[shard_id]
        left.shard_id = shard_id
        right.shard_id = right_id
        self.shards[shard_id] = left
        self.shards.append(right)
        self.n_shards = self.policy.n_shards
        self.router.note_split(shard_id, right_id)
        old.attach_disk(None)  # close the parent's mirror before the child reuses its path
        self._equip_shard(left)
        self._equip_shard(right)
        self.stats = CompositeAccessStats([shard.stats for shard in self.shards])
        return right_id

    def swap_in_merge(self, a: int, b: int, merged: _Shard) -> int:
        """Atomically replace sibling shards ``a`` and ``b`` with ``merged``.

        The merged shard takes ``min(a, b)``; the id hole at ``max(a, b)``
        is filled by relocating the last shard (mirroring the policy's leaf
        move), whose disk mirror — if any — is re-homed to its new name.
        Returns the merged shard's id.
        """
        self._require_built()
        if not isinstance(self.policy, AdaptiveShardingPolicy):
            raise RebalanceError("call enable_rebalancing() before merging")
        if a in self._rescue or b in self._rescue:
            raise RebalanceError("release the rescue buffer before swapping")
        keep, moved = self.policy.merge(a, b)
        drop = b if keep == a else a
        old_keep, old_drop = self.shards[keep], self.shards[drop]
        old_keep.attach_disk(None)
        old_drop.attach_disk(None)
        merged.shard_id = keep
        self.shards[keep] = merged
        last = len(self.shards) - 1
        if moved is not None:
            relocated = self.shards[last]
            had_disk = relocated.disk_path is not None
            if had_disk:
                relocated.attach_disk(None)
            relocated.shard_id = moved[1]
            self.shards[moved[1]] = relocated
            if had_disk and self._disk_directory is not None:
                # attach_disk re-dumps the store, so the mirror follows the id
                relocated.attach_disk(
                    self._disk_directory / f"shard-{relocated.shard_id}.blocks"
                )
        self.shards.pop()
        self.n_shards = self.policy.n_shards
        self.router.note_merge(keep, drop, moved)
        self._equip_shard(merged)
        if self._disk_directory is not None:
            stale = self._disk_directory / f"shard-{last}.blocks"
            if stale.exists():
                stale.unlink()
        self.stats = CompositeAccessStats([shard.stats for shard in self.shards])
        return keep

    def resize_shard_budgets(
        self, shares: dict, min_blocks: int = 1
    ) -> bool:
        """Redistribute the fixed cache budget across shards by ``shares``.

        ``shares`` maps shard id to its fraction of recent heat.  With a
        shared pool attached, per-client budget caps are re-cut from the
        pool's capacity; with shard-local page caches, the total private
        budget (``cache_blocks × n_shards``) is re-cut via
        :meth:`PageCache.resize`.  Returns True when any budget changed.
        """
        self._require_built()
        min_blocks = max(1, int(min_blocks))
        if self.shared_pool is not None:
            total = self.shared_pool.capacity
        elif self.cache_blocks:
            total = int(self.cache_blocks) * len(self.shards)
        else:
            return False
        changed = False
        for shard in self.shards:
            cache = shard.cache
            if cache is None:
                continue
            share = float(shares.get(shard.shard_id, 0.0))
            budget = min(total, max(min_blocks, int(round(total * share))))
            if self.shared_pool is not None:
                if cache.budget != budget:
                    self.shared_pool.client(cache.name, budget)
                    changed = True
            elif cache.capacity != budget:
                cache.resize(budget)
                changed = True
        return changed

    # -- persistence -----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Checkpoint state: rescue buffers are dropped, so a checkpoint
        taken while a migration is in flight persists the pre-swap topology
        (the old shards stay authoritative until the swap — recovery then
        either rolls the whole migration back or, if a later checkpoint
        captured the completed swap, keeps it; never half of each)."""
        state = dict(self.__dict__)
        state["_rescue"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_rescue", {})
        self.__dict__.setdefault("_pool_namespace", "shard")
        self.__dict__.setdefault("_pool_budget", None)
        self.__dict__.setdefault("_disk_directory", None)

    # -- accounting -----------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Live points across all shards."""
        return sum(shard.n_points for shard in self.shards)

    def size_bytes(self) -> int:
        """Total size of all shard indices."""
        return sum(shard.size_bytes() for shard in self.shards)

    def per_shard_points(self) -> list[int]:
        """Live point count per shard (in shard-id order)."""
        return [shard.n_points for shard in self.shards]

    def per_shard_stats(self) -> list[AccessStats]:
        """Each shard's own :class:`AccessStats` (shared with its index)."""
        return [shard.stats for shard in self.shards]

    def per_shard_caches(self) -> list[Optional[PageCache]]:
        """Each shard's page cache (None entries when uncached)."""
        return [shard.cache for shard in self.shards]

    def cache_hit_ratio(self) -> Optional[float]:
        """Aggregate hit ratio across all shard caches (None when uncached)."""
        caches = [cache for cache in self.per_shard_caches() if cache is not None]
        if not caches:
            return None
        accesses = sum(cache.accesses for cache in caches)
        hits = sum(cache.hits for cache in caches)
        return hits / accesses if accesses > 0 else 0.0

    def shard_extents(self) -> list[Rect]:
        """Effective extent of every shard (region plus overflow)."""
        self._require_built()
        return [self.router.shard_extent(i) for i in range(self.n_shards)]

    def extra_metrics(self) -> dict:
        """Shard-level metadata for evaluation reports."""
        per_shard = self.per_shard_points()
        metrics = {
            "n_shards": self.n_shards,
            "policy": self.policy.describe() if self.policy is not None else self._policy_spec,
            "per_shard_points": per_shard,
            "empty_shards": sum(1 for n in per_shard if n == 0),
        }
        hit_ratio = self.cache_hit_ratio()
        if hit_ratio is not None:
            metrics["cache_blocks_per_shard"] = self.cache_blocks
            metrics["cache_policy"] = self.cache_policy
            metrics["cache_hit_ratio"] = round(hit_ratio, 4)
        if self.shared_pool is not None:
            metrics["shared_pool"] = {
                "capacity": self.shared_pool.capacity,
                "admission": self.shared_pool.admission,
                "hit_ratio": round(self.shared_pool.hit_ratio, 4),
                "rejections": self.shared_pool.rejections,
                "prefetch_issued": self.shared_pool.prefetch_issued,
                "prefetch_used": self.shared_pool.prefetch_used,
            }
        return metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSpatialIndex(name={self.name!r}, shards={self.n_shards}, "
            f"points={self.n_points})"
        )
