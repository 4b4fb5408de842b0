"""A shared multi-index buffer pool with TinyLFU admission and prefetch.

The per-index :class:`~repro.storage.page_cache.PageCache` gives every index
(or every shard) a private budget.  That is simple but wasteful under skew:
a drifting hotspot leaves most per-shard caches idle while the hot shard
thrashes, and one large scan can flush an LRU cache's entire hot working set
("scan thrash").  :class:`SharedBufferPool` addresses both:

* **One pool, many clients.**  Every index/shard gets a
  :class:`PoolClient` — a façade with the exact :class:`PageCache` surface
  (``access`` / ``invalidate`` / ``contains`` / counters), namespacing its
  keys into the shared resident set — so the whole capacity follows the
  traffic instead of being statically partitioned.  An optional per-client
  ``budget`` caps how much of the pool one client may occupy; over-budget
  admissions evict that client's own coldest page, never a neighbour's.
* **TinyLFU admission.**  A count-min :class:`FrequencySketch` with periodic
  halving estimates each page's recent access frequency.  On a miss with a
  full pool the candidate is admitted only if its estimated frequency is at
  least the eviction victim's — one-touch scan pages lose that comparison
  against a warm working set, so scans stream through the pool without
  displacing it (the classic LRU failure mode).
* **Non-harmful prefetch.**  :meth:`PoolClient.prefetch` admits speculative
  pages at the *cold* end of the recency order, and makes room only by
  evicting other not-yet-used prefetched pages — a prefetch burst can never
  displace a demanded page.  Prefetch I/O is charged separately (see
  :meth:`~repro.storage.stats.AccessStats.record_block_prefetch`), so wasted
  prefetches honestly show up as extra physical reads.

Like :class:`PageCache`, the pool is an *accounting* cache: it tracks which
pages are resident, while contents stay in the owning structures.  Pickling
keeps configuration only — a loaded index always starts cold.

**Process-pool safety.**  The pool and its clients are plain in-process
Python objects with no cross-process coordination: a pool inherited through
``fork`` (or rebuilt by ``spawn`` pickling) becomes an independent copy
whose resident set silently diverges from its siblings', wrecking the
shared-capacity accounting it exists to provide.  The multi-core serving
tier therefore never ships pool clients across process boundaries —
:class:`~repro.serving.ServingSpec` carries cache *configuration* only
(``cache_blocks``/``cache_policy``), and each worker process builds its own
private per-shard :class:`PageCache`\\ s for the shards it owns.  Use the
shared pool inside one process; use per-worker caches across processes.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Hashable, Iterable, Optional

__all__ = ["FrequencySketch", "SharedBufferPool", "PoolClient", "POOL_ADMISSIONS"]

#: recognised admission policies: ``"tinylfu"`` gates admission on the
#: frequency sketch, ``"lru"`` always admits (classic shared LRU)
POOL_ADMISSIONS = ("tinylfu", "lru")

#: counters saturate at this value (4-bit style, as in real TinyLFU sketches)
_SKETCH_MAX = 15

#: multiplicative hash seeds deriving the four count-min rows from one hash
_SKETCH_SEEDS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)

_WORD = (1 << 64) - 1

#: keys whose counter indexes :class:`FrequencySketch` memoises before it
#: starts the memo over (a few hundred bytes each)
_MEMO_LIMIT = 1 << 14


def _stable_hash(key: Hashable) -> int:
    """Deterministic 64-bit hash of a cache key.

    Python's ``hash`` is randomised per process for strings (and any tuple
    containing one), which would make admission decisions — and therefore
    hit ratios, eviction counts and every differential test built on them —
    unreproducible across runs.  Cache keys here are small printable tuples,
    so hashing their ``repr`` is stable and cheap.
    """
    data = repr(key).encode("utf-8", "backslashreplace")
    return ((zlib.adler32(data) << 32) | zlib.crc32(data)) & _WORD


class FrequencySketch:
    """Count-min frequency estimator with periodic halving ("aging").

    Four rows of saturating counters; :meth:`estimate` returns the row
    minimum.  After ``10 x capacity`` increments every counter is halved,
    so stale popularity decays and a drifting working set can win admission
    comparisons against pages that were hot long ago.

    The rows live back to back in one flat list, and a key's four counter
    indexes are computed once and memoised.  Indexes do not depend on the
    counters, so aging keeps the memo; it is cleared only when it grows
    past :data:`_MEMO_LIMIT` keys.
    """

    def __init__(self, capacity: int):
        size = 8
        while size < capacity * 4:
            size <<= 1
        self._mask = size - 1
        self._size = size
        self._table = [0] * (size * len(_SKETCH_SEEDS))
        self._samples = 0
        self._sample_period = max(10 * capacity, 64)
        self.ages = 0
        self._memo: dict[Hashable, tuple[int, int, int, int]] = {}

    def _indexes(self, key: Hashable) -> tuple[int, int, int, int]:
        indexes = self._memo.get(key)
        if indexes is None:
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            h = _stable_hash(key)
            mask, size = self._mask, self._size
            a, b, c, d = (
                (((h ^ seed) * 0x9E3779B97F4A7C15) & _WORD) >> 32 & mask
                for seed in _SKETCH_SEEDS
            )
            indexes = self._memo[key] = (a, size + b, 2 * size + c, 3 * size + d)
        return indexes

    def increment(self, key: Hashable) -> None:
        a, b, c, d = self._indexes(key)
        table = self._table
        if table[a] < _SKETCH_MAX:
            table[a] += 1
        if table[b] < _SKETCH_MAX:
            table[b] += 1
        if table[c] < _SKETCH_MAX:
            table[c] += 1
        if table[d] < _SKETCH_MAX:
            table[d] += 1
        self._samples += 1
        if self._samples >= self._sample_period:
            self._age()

    def estimate(self, key: Hashable) -> int:
        a, b, c, d = self._indexes(key)
        table = self._table
        return min(table[a], table[b], table[c], table[d])

    def _age(self) -> None:
        self._table = [count >> 1 for count in self._table]
        self._samples = 0
        self.ages += 1


class PoolClient:
    """One index's (or shard's) view of a :class:`SharedBufferPool`.

    Exposes the full :class:`~repro.storage.page_cache.PageCache` surface,
    so a :class:`~repro.storage.block_store.BlockStore` or
    :class:`~repro.storage.paged.NodePager` can be pointed at a pool client
    through the ordinary ``attach_cache`` without knowing pools exist.
    Counters are per client; the pool aggregates its own.
    """

    def __init__(self, pool: "SharedBufferPool", name: str, budget: Optional[int] = None):
        if budget is not None and budget < 1:
            raise ValueError("client budget must be >= 1 (or None for unlimited)")
        self.pool = pool
        self.name = name
        self.budget = budget
        self._zero_counters()

    def _zero_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0
        self.prefetch_issued = 0

    # -- PageCache surface -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """This client's budget when capped, else the whole pool's capacity."""
        return self.budget if self.budget is not None else self.pool.capacity

    @property
    def policy(self) -> str:
        return f"pool-{self.pool.admission}"

    def access(self, key: Hashable) -> bool:
        """Touch ``key``: True on a hit; on a miss the pool decides admission."""
        return self.pool._access(self, key)

    def prefetch(self, keys: Iterable[Hashable]) -> list[Hashable]:
        """Speculatively admit ``keys``; returns the keys actually admitted."""
        return self.pool._prefetch(self, keys)

    def invalidate(self, key: Hashable) -> bool:
        return self.pool._invalidate(self, key)

    def contains(self, key: Hashable) -> bool:
        return self.pool._contains(self, key)

    def clear(self) -> None:
        """Drop this client's resident pages (counters are kept)."""
        self.pool._clear_client(self)

    def reset_counters(self) -> None:
        self._zero_counters()

    def __len__(self) -> int:
        return self.pool._resident.get(self.name, 0)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total > 0 else 0.0

    def metrics(self) -> dict:
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "resident": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
            "prefetch_issued": self.prefetch_issued,
            "hit_ratio": self.hit_ratio,
        }

    # -- persistence: configuration only ---------------------------------------

    def __getstate__(self) -> dict:
        return {"pool": self.pool, "name": self.name, "budget": self.budget}

    def __setstate__(self, state: dict) -> None:
        self.pool = state["pool"]
        self.name = state["name"]
        self.budget = state["budget"]
        self._zero_counters()
        # latest unpickled client wins the name, mirroring pool.client()
        self.pool._clients[self.name] = self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PoolClient(name={self.name!r}, budget={self.budget}, "
            f"resident={len(self)}, hit_ratio={self.hit_ratio:.2f})"
        )


class SharedBufferPool:
    """A fixed-capacity buffer pool shared by many indices/shards.

    Parameters
    ----------
    capacity:
        Maximum resident pages across *all* clients (>= 1).
    admission:
        ``"tinylfu"`` (default) gates admission on the frequency sketch;
        ``"lru"`` always admits, giving a plain shared LRU for comparison.
    """

    def __init__(self, capacity: int, admission: str = "tinylfu"):
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        if admission not in POOL_ADMISSIONS:
            raise ValueError(
                f"unknown admission policy {admission!r}; available: {POOL_ADMISSIONS}"
            )
        self.capacity = int(capacity)
        self.admission = admission
        self._clients: dict[str, PoolClient] = {}
        self._reset_state()

    def _reset_state(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0
        self.prefetch_issued = 0
        self.prefetch_used = 0
        self.prefetch_evictions = 0
        #: (client name, key) -> client name, in recency order (coldest first)
        self._lru: "OrderedDict[tuple, str]" = OrderedDict()
        #: prefetched pages not yet touched by a demand access
        self._prefetched: set[tuple] = set()
        #: resident page count per client name
        self._resident: dict[str, int] = {}
        self._sketch = (
            FrequencySketch(self.capacity) if self.admission == "tinylfu" else None
        )

    # -- client registry --------------------------------------------------------

    def client(self, name: str, budget: Optional[int] = None) -> PoolClient:
        """The pool client called ``name``, created on first use.

        An existing client keeps its counters and resident pages; passing a
        ``budget`` re-caps it (None leaves the current budget unchanged).
        """
        existing = self._clients.get(name)
        if existing is not None:
            if budget is not None:
                if budget < 1:
                    raise ValueError("client budget must be >= 1 (or None for unlimited)")
                existing.budget = budget
            return existing
        fresh = PoolClient(self, name, budget)
        self._clients[name] = fresh
        return fresh

    def clients(self) -> list[PoolClient]:
        """All registered clients (registration order)."""
        return list(self._clients.values())

    # -- the hot path (called through PoolClient) -------------------------------

    def _access(self, client: PoolClient, key: Hashable) -> bool:
        full = (client.name, key)
        if self._sketch is not None:
            self._sketch.increment(full)
        if full in self._lru:
            self._lru.move_to_end(full)
            if full in self._prefetched:
                self._prefetched.discard(full)
                self.prefetch_used += 1
            self.hits += 1
            client.hits += 1
            return True
        self.misses += 1
        client.misses += 1
        self._admit(client, full)
        return False

    def _admit(self, client: PoolClient, full: tuple) -> None:
        if len(self._lru) >= self.capacity:
            victim = next(iter(self._lru))
            # prefetched-unused pages are speculative: always displaceable.
            # Demanded victims are protected by the admission filter — a
            # candidate colder than the victim is rejected (the miss still
            # counted), which is what makes one-touch scans stream through.
            if self._sketch is not None and victim not in self._prefetched:
                if self._sketch.estimate(full) < self._sketch.estimate(victim):
                    self.rejections += 1
                    client.rejections += 1
                    return
            self._evict(victim)
        self._lru[full] = client.name
        self._resident[client.name] = self._resident.get(client.name, 0) + 1
        if client.budget is not None:
            self._enforce_budget(client, keep=full)

    def _evict(self, full: tuple) -> None:
        owner = self._lru.pop(full)
        self._resident[owner] -= 1
        if full in self._prefetched:
            self._prefetched.discard(full)
            self.prefetch_evictions += 1
        self.evictions += 1
        owner_client = self._clients.get(owner)
        if owner_client is not None:
            owner_client.evictions += 1

    def _enforce_budget(self, client: PoolClient, keep: tuple) -> None:
        while self._resident.get(client.name, 0) > client.budget:
            victim = next(
                full for full, owner in self._lru.items()
                if owner == client.name and full != keep
            )
            self._evict(victim)

    # -- prefetch ---------------------------------------------------------------

    def _prefetch(self, client: PoolClient, keys: Iterable[Hashable]) -> list[Hashable]:
        admitted: list[Hashable] = []
        fresh: set[tuple] = set()
        for key in keys:
            full = (client.name, key)
            if full in self._lru:
                continue
            if client.budget is not None and self._resident.get(client.name, 0) >= client.budget:
                victim = self._prefetched_victim(fresh, owner=client.name)
                if victim is None:
                    continue
                self._evict_prefetched(victim)
            if len(self._lru) >= self.capacity:
                victim = self._prefetched_victim(fresh)
                if victim is None:
                    continue  # never displace a demanded page for speculation
                self._evict_prefetched(victim)
            # admit at the *cold* end: the next demand eviction reclaims
            # unused prefetches first, so speculation cannot age hot pages
            self._lru[full] = client.name
            self._lru.move_to_end(full, last=False)
            self._prefetched.add(full)
            fresh.add(full)
            self._resident[client.name] = self._resident.get(client.name, 0) + 1
            self.prefetch_issued += 1
            client.prefetch_issued += 1
            admitted.append(key)
        return admitted

    def _prefetched_victim(self, fresh: set, owner: Optional[str] = None) -> Optional[tuple]:
        """Coldest prefetched-unused page outside this batch (``owner``-only
        when enforcing a client budget); None when no such victim exists."""
        for full in self._lru:
            if full in self._prefetched and full not in fresh:
                if owner is None or self._lru[full] == owner:
                    return full
        return None

    def _evict_prefetched(self, full: tuple) -> None:
        owner = self._lru.pop(full)
        self._resident[owner] -= 1
        self._prefetched.discard(full)
        self.prefetch_evictions += 1

    # -- maintenance ------------------------------------------------------------

    def _invalidate(self, client: PoolClient, key: Hashable) -> bool:
        full = (client.name, key)
        if full not in self._lru:
            return False
        del self._lru[full]
        self._resident[client.name] -= 1
        self._prefetched.discard(full)
        self.invalidations += 1
        client.invalidations += 1
        return True

    def _contains(self, client: PoolClient, key: Hashable) -> bool:
        return (client.name, key) in self._lru

    def _clear_client(self, client: PoolClient) -> None:
        mine = [full for full, owner in self._lru.items() if owner == client.name]
        for full in mine:
            del self._lru[full]
            self._prefetched.discard(full)
        self._resident[client.name] = 0

    def clear(self) -> None:
        """Drop every resident page of every client (counters are kept)."""
        self._lru.clear()
        self._prefetched.clear()
        self._resident.clear()

    def reset_counters(self) -> None:
        """Zero the pool's and every client's counters (residency is kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0
        self.prefetch_issued = 0
        self.prefetch_used = 0
        self.prefetch_evictions = 0
        for client in self._clients.values():
            client.reset_counters()

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total > 0 else 0.0

    def metrics(self) -> dict:
        """Pool-wide counters plus a per-client breakdown."""
        return {
            "capacity": self.capacity,
            "admission": self.admission,
            "resident": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_used": self.prefetch_used,
            "prefetch_evictions": self.prefetch_evictions,
            "hit_ratio": self.hit_ratio,
            "clients": {name: dict(resident=self._resident.get(name, 0),
                                   hit_ratio=client.hit_ratio)
                        for name, client in self._clients.items()},
        }

    # -- persistence: configuration only, never pool state ----------------------

    def __getstate__(self) -> dict:
        return {"capacity": self.capacity, "admission": self.admission}

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.admission = state["admission"]
        self._clients = {}
        self._reset_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedBufferPool(capacity={self.capacity}, admission={self.admission!r}, "
            f"clients={len(self._clients)}, resident={len(self)}, "
            f"hit_ratio={self.hit_ratio:.2f})"
        )
