"""Simulated external-memory block storage with a pluggable cache layer.

The paper stores data points in fixed-capacity disk blocks (``B = 100``
points per block, Section 6.1) and reports the number of block accesses per
query as a hardware-independent cost metric.  This package simulates that
storage layer in main memory:

* :class:`~repro.storage.block.Block` — a fixed-capacity container of points
  with deletion flags and previous/next links,
* :class:`~repro.storage.block_store.BlockStore` — the collection of blocks
  with global block ids, overflow-block insertion and access accounting,
* :class:`~repro.storage.stats.AccessStats` — counters shared by every index
  so experiments can report block accesses uniformly, split into **logical**
  reads (what the algorithm touched — the paper's metric) and **physical**
  reads (what actually hit storage once a cache sits in front),
* :class:`~repro.storage.page_cache.PageCache` — a fixed-capacity buffer
  pool (LRU or clock replacement) with dirty-page invalidation,
* :class:`~repro.storage.buffer_pool.SharedBufferPool` — one buffer pool
  shared across many indices/shards through per-client
  :class:`~repro.storage.buffer_pool.PoolClient` façades, with TinyLFU
  (frequency-sketch) admission, non-harmful prefetch along overflow chains
  and layout runs, and optional per-client budgets,
* :mod:`~repro.storage.layout` — Hilbert block-layout primitives: the
  contiguous key runs a window decomposes into (what makes run-scanning a
  Hilbert layout pay),
* :class:`~repro.storage.paged.NodePager` — the paged-access façade that
  gives node-based indices (Grid file, K-D-B-tree, the R-trees) stable page
  ids and the same cache-aware accounting as ``BlockStore``,
* :class:`~repro.storage.block_file.BlockFile` — the optional disk tier: one
  CRC-checked fixed-size record per block, written through on every
  mutation and deserialised back on cache-missing reads,
* :class:`~repro.storage.wal.WriteAheadLog` — framed, checksummed logical
  mutation log with torn-tail truncation on recovery,
* :class:`~repro.storage.durability.DurableIndex` — checkpoint + WAL
  durability (and optionally the block-file tier) around any built index,
  with :meth:`~repro.storage.durability.DurableIndex.recover` bringing a
  killed process's index back to a state the crash-recovery fuzz harness
  can verify against an oracle.
"""

from repro.storage.block import Block
from repro.storage.block_file import BlockFile, BlockFileError
from repro.storage.block_store import BlockStore
from repro.storage.buffer_pool import (
    POOL_ADMISSIONS,
    FrequencySketch,
    PoolClient,
    SharedBufferPool,
)
from repro.storage.layout import window_key_runs
from repro.storage.durability import (
    STORAGE_BACKENDS,
    DurableIndex,
    RecoveryReport,
    storage_root,
)
from repro.storage.page_cache import PAGE_CACHE_POLICIES, PageCache, make_page_cache
from repro.storage.paged import NodePager
from repro.storage.stats import AccessStats, AccessSummary
from repro.storage.wal import WalError, WriteAheadLog

__all__ = [
    "Block",
    "BlockStore",
    "AccessStats",
    "AccessSummary",
    "PageCache",
    "NodePager",
    "PAGE_CACHE_POLICIES",
    "make_page_cache",
    "SharedBufferPool",
    "PoolClient",
    "FrequencySketch",
    "POOL_ADMISSIONS",
    "BlockFile",
    "BlockFileError",
    "WriteAheadLog",
    "WalError",
    "DurableIndex",
    "RecoveryReport",
    "STORAGE_BACKENDS",
    "storage_root",
    "window_key_runs",
]
