"""Block store: global block ids, curve-ordered base blocks, overflow chains."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.storage.block import Block
from repro.storage.block_file import BlockFile
from repro.storage.page_cache import PageCache
from repro.storage.stats import AccessStats

__all__ = ["BlockStore", "chain_points"]

#: base blocks prefetched ahead of the scan cursor per batch during
#: :meth:`BlockStore.scan_positions` (small, so a run longer than the pool
#: never evicts its own not-yet-scanned prefetches)
PREFETCH_BATCH = 16


def chain_points(chain: list[Block]) -> np.ndarray:
    """The live points of a chain's blocks as one ``(m, 2)`` array.

    Each block's points in slot order, blocks in chain order.  A chain of
    one block gives that block's read-only array (see :meth:`Block.points`)
    without a copy.
    """
    if len(chain) == 1:
        return chain[0].points()
    return np.concatenate([block.points() for block in chain])


class BlockStore:
    """A collection of fixed-capacity blocks simulating external storage.

    Two kinds of blocks exist:

    * **base blocks** are created during the initial bulk build.  They are
      numbered consecutively by their *position* in curve order; a learned
      model predicts such positions.
    * **overflow blocks** are created by insertions when a base block is
      full.  They are linked after their base block (paper Section 5) and do
      not shift the positions of base blocks, so the learned error bounds
      remain valid.

    All reads go through :meth:`read` (or the internal :meth:`_touch`),
    which feeds the shared :class:`~repro.storage.stats.AccessStats`
    counters used by the experiments.  When a
    :class:`~repro.storage.page_cache.PageCache` is attached, reads consult
    it first: hits move only the logical counters, misses also the physical
    ones, and writes invalidate the dirtied block's cache entry.

    When a :class:`~repro.storage.block_file.BlockFile` is attached (see
    :meth:`attach_disk`) the store becomes write-through: every block
    mutation is serialised to the file, and a read that misses the cache
    *re-deserialises the block from the file*, replacing the in-memory
    object — so physical reads are actual I/O and the file is load-bearing,
    not just a backup.
    """

    def __init__(
        self,
        capacity: int,
        stats: Optional[AccessStats] = None,
        cache: Optional[PageCache] = None,
    ):
        if capacity < 1:
            raise ValueError("block capacity must be >= 1")
        self.capacity = int(capacity)
        self.stats = stats if stats is not None else AccessStats()
        self.cache = cache
        self._disk: Optional[BlockFile] = None
        self._blocks: list[Block] = []
        #: position in curve order -> block id of the base block
        self._base_order: list[int] = []
        self._n_overflow = 0

    # -- introspection -------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Total number of blocks (base + overflow)."""
        return len(self._blocks)

    @property
    def n_base_blocks(self) -> int:
        return len(self._base_order)

    @property
    def n_overflow_blocks(self) -> int:
        return self._n_overflow

    @property
    def n_points(self) -> int:
        """Total number of live points across all blocks."""
        return sum(len(block) for block in self._blocks)

    def size_bytes(self) -> int:
        """Approximate storage footprint: 16 bytes per point slot plus per-block header."""
        per_block = self.capacity * 16 + 32
        return self.n_blocks * per_block

    # -- allocation ---------------------------------------------------------------

    def allocate_base(self) -> Block:
        """Create the next base block in curve order and link it after the previous one."""
        block = Block(len(self._blocks), self.capacity, is_overflow=False)
        self._blocks.append(block)
        if self._base_order:
            # link after the tail of the previous base block's overflow chain
            previous_tail = self._chain_tail(self._base_order[-1])
            previous_tail.next_id = block.block_id
            block.prev_id = previous_tail.block_id
            # the relink dirties the previous tail: account the write and
            # drop its cached page, symmetric with allocate_overflow
            self.note_write(previous_tail.block_id)
        self._base_order.append(block.block_id)
        self._disk_write(block.block_id)
        return block

    def allocate_overflow(self, after_block_id: int) -> Block:
        """Create an overflow block linked immediately after ``after_block_id``."""
        predecessor = self._block_by_id(after_block_id)
        block = Block(len(self._blocks), self.capacity, is_overflow=True)
        self._blocks.append(block)
        self._n_overflow += 1
        block.next_id = predecessor.next_id
        block.prev_id = predecessor.block_id
        if predecessor.next_id is not None:
            self._block_by_id(predecessor.next_id).prev_id = block.block_id
            self._disk_write(predecessor.next_id)
        predecessor.next_id = block.block_id
        self.stats.record_block_write()
        if self.cache is not None:
            # the predecessor's chain link changed on disk too
            self.cache.invalidate(("b", predecessor.block_id))
        self._disk_write(predecessor.block_id)
        self._disk_write(block.block_id)
        return block

    # -- access -------------------------------------------------------------------

    def read(self, block_id: int) -> Block:
        """Read a block by id, recording a (cache-aware) block access."""
        self._block_by_id(block_id)  # validate the id before any accounting
        self._touch(block_id)
        return self._blocks[block_id]

    def _touch(self, block_id: int) -> None:
        """Record one block read, consulting the cache when one is attached.

        With a disk tier attached, a cache miss performs the actual I/O:
        the block is re-deserialised from the block file and replaces the
        in-memory object, so stale on-disk state cannot hide behind memory.
        """
        cached = self.cache.access(("b", block_id)) if self.cache is not None else False
        self.stats.record_block_read(cached=cached)
        if not cached and self._disk is not None:
            self._blocks[block_id] = self._disk.read_block(block_id)

    def touch_position(self, position: int) -> None:
        """Record a read of the base block at ``position`` without returning it.

        Directory-style probes (e.g. the ZM binary search over per-block
        Z-ranges) charge a block access without needing the contents; this
        keeps those probes on the same cache-aware accounting path.
        """
        self._touch(self.base_block_id(position))

    def note_write(self, block_id: int) -> None:
        """Record a write to ``block_id`` and invalidate its cached page.

        Indices that mutate a block they located earlier (insert into a
        non-full block, flag a deletion) call this instead of bumping the
        write counter inline, so the dirty page cannot produce stale hits.
        With a disk tier attached, the dirtied block is written through.
        """
        self.stats.record_block_write()
        if self.cache is not None:
            self.cache.invalidate(("b", block_id))
        self._disk_write(block_id)

    def attach_cache(self, cache: Optional[PageCache]) -> None:
        """Install (or remove, with None) the block cache reads go through.

        Accepts anything with the :class:`PageCache` surface — notably a
        :class:`~repro.storage.buffer_pool.PoolClient` of a shared buffer
        pool; when the cache also exposes ``prefetch``, chain and run scans
        prefetch ahead (see :meth:`iter_chain` / :meth:`scan_positions`).
        """
        self.cache = cache

    def _cache_prefetch(self, block_ids) -> int:
        """Speculatively admit ``block_ids`` into a prefetch-capable cache.

        Only admitted prefetches are charged as prefetch I/O (a skipped
        prefetch performed none), and with a disk tier attached the admitted
        blocks are actually re-deserialised — a later cache hit must mean
        the in-memory object is current, same invariant as :meth:`_touch`.
        Returns the number of blocks actually admitted.
        """
        prefetch = getattr(self.cache, "prefetch", None)
        if prefetch is None:
            return 0
        admitted = prefetch([("b", block_id) for block_id in block_ids])
        if not admitted:
            return 0
        self.stats.record_block_prefetch(len(admitted))
        if self._disk is not None:
            for _, block_id in admitted:
                self._blocks[block_id] = self._disk.read_block(block_id)
        return len(admitted)

    def prefetch_positions(self, begin: int, end: int) -> int:
        """Speculatively admit the base blocks at positions ``begin..end``
        (inclusive) before a scan touches them.

        This is the *query-planning* prefetch: :meth:`scan_positions` only
        prefetches **ahead** of its cursor (every :data:`PREFETCH_BATCH`-th
        stride boundary — the first position of each stride — stays a cold
        fault), so a caller that knows the scan range up front issues it
        here and the whole range is warm, stride boundaries included.
        Charged like every prefetch: only actually admitted pages count.
        Returns the number of blocks admitted; 0 without a
        prefetch-capable cache.
        """
        if self.cache is None or not hasattr(self.cache, "prefetch"):
            return 0
        begin = self.clamp_position(begin)
        end = self.clamp_position(end)
        if end < begin:
            return 0
        return self._cache_prefetch(
            [self._base_order[position] for position in range(begin, end + 1)]
        )

    def attach_disk(self, disk: Optional[BlockFile]) -> None:
        """Install (or remove, with None) a write-through block-file mirror.

        Attaching dumps every current block into the file, so the disk tier
        is immediately consistent; from then on every mutation writes
        through and cache-missing reads deserialise from the file (see
        :meth:`_touch`).  The file handle is never pickled — a checkpointed
        store loads back disk-less and the durability manager re-attaches.
        """
        if disk is not None and disk.capacity != self.capacity:
            raise ValueError(
                f"block file holds capacity-{disk.capacity} records, "
                f"store uses capacity {self.capacity}"
            )
        self._disk = disk
        if disk is not None:
            for block in self._blocks:
                disk.write_block(block)
            disk.sync()

    @property
    def disk(self) -> Optional[BlockFile]:
        """The attached block-file mirror, when one exists."""
        return self._disk

    def _disk_write(self, block_id: int) -> None:
        """Write one block through to the attached block file, if any."""
        if self._disk is not None:
            self._disk.write_block(self._blocks[block_id])

    def peek(self, block_id: int) -> Block:
        """Read a block without recording an access (for build/maintenance code)."""
        return self._block_by_id(block_id)

    def base_block_id(self, position: int) -> int:
        """Block id of the base block at ``position`` in curve order."""
        if not 0 <= position < len(self._base_order):
            raise IndexError(
                f"base block position {position} outside [0, {len(self._base_order)})"
            )
        return self._base_order[position]

    def clamp_position(self, position: int) -> int:
        """Clamp a (possibly out-of-range predicted) position into the valid range."""
        if not self._base_order:
            raise RuntimeError("block store has no base blocks")
        return max(0, min(position, len(self._base_order) - 1))

    # -- scanning ------------------------------------------------------------------

    def iter_chain(self, position: int) -> Iterator[Block]:
        """Yield the base block at ``position`` followed by its overflow blocks.

        With a prefetch-capable cache attached, the overflow chain behind the
        base block is prefetched as one batch before it is walked — a chain
        is always read front to back, so its successors are certain hits.
        """
        block = self.read(self.base_block_id(position))
        next_id = block.next_id
        # most base blocks link straight to the next base block: no
        # overflow chain, nothing to prefetch
        if (
            next_id is not None
            and hasattr(self.cache, "prefetch")
            and self._blocks[next_id].is_overflow
        ):
            self._cache_prefetch(self._chain_successor_ids(block))
        yield block
        next_id = block.next_id
        while next_id is not None and self._blocks[next_id].is_overflow:
            self._touch(next_id)
            # the touch may have re-read the block from disk; yield the
            # current object so callers mutate what the store holds
            candidate = self._blocks[next_id]
            yield candidate
            next_id = candidate.next_id

    def touch_chain(self, position: int) -> list[Block]:
        """Read the chain at ``position`` and return its blocks, base first.

        The same reads in the same order as walking :meth:`iter_chain` to
        the end, with the same chain prefetch, but the points stay in the
        blocks: a caller that needs them as one array passes the blocks to
        :func:`chain_points`.
        """
        block_id = self.base_block_id(position)
        self._touch(block_id)
        block = self._blocks[block_id]
        chain = [block]
        next_id = block.next_id
        if next_id is None or not self._blocks[next_id].is_overflow:
            return chain
        if hasattr(self.cache, "prefetch"):
            self._cache_prefetch(self._chain_successor_ids(block))
        while next_id is not None and self._blocks[next_id].is_overflow:
            self._touch(next_id)
            # the touch may have re-read the block from disk
            block = self._blocks[next_id]
            chain.append(block)
            next_id = block.next_id
        return chain

    def scan_positions(self, begin: int, end: int) -> Iterator[Block]:
        """Yield every block whose chain starts at positions ``begin..end`` inclusive.

        With a prefetch-capable cache attached, upcoming base blocks are
        prefetched :data:`PREFETCH_BATCH` positions ahead of the scan cursor
        — a contiguous run (e.g. one Hilbert window run) is read strictly in
        position order, so the prefetches are certain hits.
        """
        begin = self.clamp_position(begin)
        end = self.clamp_position(end)
        prefetching = self.cache is not None and hasattr(self.cache, "prefetch")
        for position in range(begin, end + 1):
            if prefetching and (position - begin) % PREFETCH_BATCH == 0:
                ahead = [
                    self._base_order[p]
                    for p in range(position + 1, min(position + PREFETCH_BATCH, end) + 1)
                ]
                if ahead:
                    self._cache_prefetch(ahead)
            yield from self.iter_chain(position)

    def chain_depths(self) -> list[int]:
        """Overflow blocks linked behind each base block, by curve position.

        A freshly built store is all zeros; insertions into full regions grow
        individual chains.  The scenario runner samples this to track how far
        the structure has degraded from its learned layout.
        """
        depths: list[int] = []
        for position in range(self.n_base_blocks):
            depth = 0
            block = self._block_by_id(self.base_block_id(position))
            next_id = block.next_id
            while next_id is not None:
                candidate = self._block_by_id(next_id)
                if not candidate.is_overflow:
                    break
                depth += 1
                next_id = candidate.next_id
            depths.append(depth)
        return depths

    def all_points(self) -> np.ndarray:
        """Every live point in curve order (base blocks followed by their overflows)."""
        chunks: list[np.ndarray] = []
        for position in range(self.n_base_blocks):
            block = self._block_by_id(self.base_block_id(position))
            chunks.append(block.points())
            next_id = block.next_id
            while next_id is not None:
                candidate = self._block_by_id(next_id)
                if not candidate.is_overflow:
                    break
                chunks.append(candidate.points())
                next_id = candidate.next_id
        if not chunks:
            return np.empty((0, 2), dtype=float)
        return np.vstack(chunks)

    # -- bulk building ----------------------------------------------------------------

    def pack_points(self, points: np.ndarray) -> tuple[int, int]:
        """Pack ``points`` (already in curve order) into consecutive base blocks.

        Returns ``(first_position, last_position)`` of the blocks created.
        Packing every ``B`` consecutive points into one block implements
        Equation 1 of the paper (``p.blk = floor(p.rank * n / B)``).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if points.shape[0] == 0:
            raise ValueError("cannot pack an empty point set")
        first_position = self.n_base_blocks
        for start in range(0, points.shape[0], self.capacity):
            block = self.allocate_base()
            block.bulk_fill(points[start : start + self.capacity])
            self.stats.record_block_write()
            self._disk_write(block.block_id)
        return first_position, self.n_base_blocks - 1

    # -- internals ----------------------------------------------------------------------

    def _block_by_id(self, block_id: int) -> Block:
        if not 0 <= block_id < len(self._blocks):
            raise IndexError(f"unknown block id {block_id}")
        return self._blocks[block_id]

    def _chain_successor_ids(self, block: Block) -> list[int]:
        """Block ids of the overflow blocks chained behind ``block`` (link
        metadata only — no accesses are recorded)."""
        ids: list[int] = []
        next_id = block.next_id
        while next_id is not None:
            candidate = self._block_by_id(next_id)
            if not candidate.is_overflow:
                break
            ids.append(candidate.block_id)
            next_id = candidate.next_id
        return ids

    def _chain_tail(self, base_block_id: int) -> Block:
        block = self._block_by_id(base_block_id)
        while block.next_id is not None:
            candidate = self._block_by_id(block.next_id)
            if not candidate.is_overflow:
                break
            block = candidate
        return block

    # -- persistence: the disk handle is never pickled ----------------------------

    def __getstate__(self) -> dict:
        """Drop the block-file handle: checkpoints hold the blocks themselves,
        and the durability manager re-attaches a mirror after recovery."""
        state = self.__dict__.copy()
        state["_disk"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("_disk", None)  # artefacts written before the disk tier
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockStore(capacity={self.capacity}, base={self.n_base_blocks}, "
            f"overflow={self.n_overflow_blocks}, points={self.n_points})"
        )
