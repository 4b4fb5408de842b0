"""Access accounting shared by all indices.

Every index in the evaluation reports two cost numbers per query: wall-clock
time and the number of blocks (data blocks plus index nodes) touched.  The
latter is hardware independent, so it is the metric this reproduction tracks
most carefully.  :class:`AccessStats` is a tiny counter object that the paged
storage layer increments whenever an index reads a data block or an internal
node.

With the block-cache layer (:mod:`repro.storage.page_cache`) the counters
split into two views of every read:

* **logical** reads (``block_reads`` / ``node_reads``) count what the query
  *algorithm* touched — the paper's "# block accesses" metric.  They are
  identical with and without a cache, which is what keeps cached runs
  comparable to the paper's numbers.
* **physical** reads (``physical_block_reads`` / ``physical_node_reads``)
  count what actually had to come from (simulated) storage — a cache hit
  bumps the logical counter only.  Without a cache the two views coincide.

``cache_hits`` and ``hit_ratio`` are derived from the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["AccessStats", "AccessSummary"]


@dataclass
class AccessStats:
    """Counters of storage accesses performed since the last reset."""

    block_reads: int = 0
    block_writes: int = 0
    node_reads: int = 0
    #: block reads that missed (or bypassed) the page cache
    physical_block_reads: int = 0
    #: node reads that missed (or bypassed) the page cache
    physical_node_reads: int = 0
    #: speculative block reads issued by cache prefetching: physical I/O with
    #: no logical read behind it (a later demand access of a prefetched page
    #: is a cache hit), so wasted prefetches honestly inflate physical reads
    prefetch_block_reads: int = 0

    def record_block_read(self, count: int = 1, *, cached: bool = False) -> None:
        self.block_reads += count
        if not cached:
            self.physical_block_reads += count

    def record_block_prefetch(self, count: int = 1) -> None:
        self.prefetch_block_reads += count

    def record_block_write(self, count: int = 1) -> None:
        self.block_writes += count

    def record_node_read(self, count: int = 1, *, cached: bool = False) -> None:
        self.node_reads += count
        if not cached:
            self.physical_node_reads += count

    @property
    def total_reads(self) -> int:
        """Logical data-block plus index-node reads (the paper's "# block accesses")."""
        return self.block_reads + self.node_reads

    @property
    def logical_reads(self) -> int:
        """Alias of :attr:`total_reads`, named for the logical/physical split."""
        return self.total_reads

    @property
    def physical_reads(self) -> int:
        """Reads that actually hit storage (post-cache), prefetches included."""
        return self.physical_block_reads + self.physical_node_reads + self.prefetch_block_reads

    @property
    def cache_hits(self) -> int:
        """Logical reads served from the page cache (demand misses excluded;
        a hit on a prefetched page counts — its I/O happened at prefetch)."""
        return self.logical_reads - self.physical_block_reads - self.physical_node_reads

    @property
    def hit_ratio(self) -> float:
        """Fraction of logical reads served from the cache (0.0 when idle)."""
        logical = self.logical_reads
        return self.cache_hits / logical if logical > 0 else 0.0

    def add(self, other: "AccessStats") -> None:
        """Accumulate ``other``'s counters (e.g. a delta measured elsewhere)."""
        self.block_reads += other.block_reads
        self.block_writes += other.block_writes
        self.node_reads += other.node_reads
        self.physical_block_reads += other.physical_block_reads
        self.physical_node_reads += other.physical_node_reads
        self.prefetch_block_reads += other.prefetch_block_reads

    def reset(self) -> None:
        self.block_reads = 0
        self.block_writes = 0
        self.node_reads = 0
        self.physical_block_reads = 0
        self.physical_node_reads = 0
        self.prefetch_block_reads = 0

    def snapshot(self) -> "AccessStats":
        """A copy of the current counters (useful for per-query deltas)."""
        return AccessStats(
            self.block_reads,
            self.block_writes,
            self.node_reads,
            self.physical_block_reads,
            self.physical_node_reads,
            self.prefetch_block_reads,
        )

    def delta_since(self, earlier: "AccessStats") -> "AccessStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return AccessStats(
            self.block_reads - earlier.block_reads,
            self.block_writes - earlier.block_writes,
            self.node_reads - earlier.node_reads,
            self.physical_block_reads - earlier.physical_block_reads,
            self.physical_node_reads - earlier.physical_node_reads,
            self.prefetch_block_reads - earlier.prefetch_block_reads,
        )

    def summary(self, per_shard: Mapping[int, int] | None = None) -> "AccessSummary":
        """The counters as one immutable :class:`AccessSummary`."""
        return AccessSummary(
            logical_reads=self.total_reads,
            physical_reads=self.physical_reads,
            per_shard_logical_reads=dict(per_shard) if per_shard is not None else None,
        )


@dataclass(frozen=True)
class AccessSummary:
    """One batch's (or interval's) read accounting, in one shape.

    Every engine's ``QueryResult`` carries one of these: logical reads
    (the paper's "# block accesses"), physical (post-cache) reads, and —
    for sharded engines — the logical reads attributed per shard id.

    Fields are ``None`` when the underlying index exposes no
    :class:`AccessStats` (callers rely on that to mean "unaccounted").
    """

    #: logical block/node reads (identical with and without a cache)
    logical_reads: int | None = None
    #: reads that actually hit (simulated) storage, prefetches included
    physical_reads: int | None = None
    #: logical reads attributed per shard id (sharded engines only)
    per_shard_logical_reads: Mapping[int, int] | None = None

    @property
    def cache_hit_ratio(self) -> float | None:
        """Fraction of logical reads served by the cache (None if unknown)."""
        if self.logical_reads is None or self.physical_reads is None:
            return None
        if self.logical_reads <= 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads

    def merged(self, other: "AccessSummary") -> "AccessSummary":
        """Element-wise sum; ``None`` on either side stays ``None``."""

        def _add(a, b):
            return None if a is None or b is None else a + b

        per_shard = None
        if self.per_shard_logical_reads is not None or other.per_shard_logical_reads is not None:
            per_shard = dict(self.per_shard_logical_reads or {})
            for shard_id, reads in (other.per_shard_logical_reads or {}).items():
                per_shard[shard_id] = per_shard.get(shard_id, 0) + reads
        return AccessSummary(
            logical_reads=_add(self.logical_reads, other.logical_reads),
            physical_reads=_add(self.physical_reads, other.physical_reads),
            per_shard_logical_reads=per_shard,
        )

    def as_dict(self) -> dict:
        return {
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "per_shard_logical_reads": (
                dict(self.per_shard_logical_reads)
                if self.per_shard_logical_reads is not None
                else None
            ),
        }
