"""A fixed-record block file: the disk tier under :class:`BlockStore`.

Every :class:`~repro.storage.block.Block` serialises into one fixed-size
record (header, chain links, deletion bitmap, point slots, CRC-32), so a
block id maps to a file offset with one multiplication — the same layout a
paged heap file uses.  The file carries a small header recording the magic,
the format version and the block capacity; records are read back with their
checksum verified, so a torn write (a crash mid-record) is detected as
:class:`BlockFileError` instead of silently yielding garbage points.

The :class:`~repro.storage.block_store.BlockStore` uses this as a
write-through mirror (see :meth:`BlockStore.attach_disk`): every block
mutation is serialised to the file, and a read that misses the
:class:`~repro.storage.page_cache.PageCache` deserialises the block back
from the file — physical reads become actual I/O, which is what makes the
crash-recovery fuzz harness load-bearing (a stale link or a bad
serialisation surfaces as oracle disagreement, not just a wasted write).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.storage.block import Block

__all__ = ["BlockFile", "BlockFileError"]

_MAGIC = b"RSMIBLKF"
_VERSION = 1
#: file header: magic, version (u32), block capacity (u32), 16 reserved bytes
_HEADER = struct.Struct("<8sII16x")
#: per-record fixed prefix: flags (u8), slot count (u32), prev id, next id
#: (i64 each, -1 encodes "no link")
_RECORD_PREFIX = struct.Struct("<BIqq")
_CRC = struct.Struct("<I")


class BlockFileError(RuntimeError):
    """A block file (or one of its records) cannot be read back."""


class BlockFile:
    """Fixed-size block records in one file, addressed by block id.

    Parameters
    ----------
    path:
        File to create or open.  An existing file must carry a matching
        header (same magic/version/capacity).
    capacity:
        Points per block; fixes the record size.  Required when creating,
        validated against the header when opening an existing file.
    """

    def __init__(self, path: str | Path, capacity: int):
        if capacity < 1:
            raise ValueError("block capacity must be >= 1")
        self.path = Path(path)
        self.capacity = int(capacity)
        self.record_size = (
            _RECORD_PREFIX.size + self.capacity + 16 * self.capacity + _CRC.size
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        exists = self.path.exists() and self.path.stat().st_size > 0
        # unbuffered so a simulated kill cannot lose user-space buffered writes
        self._handle = open(self.path, "r+b" if exists else "w+b", buffering=0)
        if exists:
            self._check_header()
        else:
            self._handle.write(_HEADER.pack(_MAGIC, _VERSION, self.capacity))

    @classmethod
    def open_existing(cls, path: str | Path) -> "BlockFile":
        """Open an existing block file, reading the capacity from its header."""
        path = Path(path)
        if not path.exists():
            raise BlockFileError(f"no such block file: {path}")
        with path.open("rb") as handle:
            raw = handle.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise BlockFileError(f"{path} is too short to hold a block-file header")
        magic, version, capacity = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise BlockFileError(f"{path} is not a repro block file")
        if version != _VERSION:
            raise BlockFileError(
                f"{path} uses block-file format v{version}, this library reads v{_VERSION}"
            )
        return cls(path, capacity)

    # -- geometry -----------------------------------------------------------------

    def _offset(self, block_id: int) -> int:
        if block_id < 0:
            raise BlockFileError(f"invalid block id {block_id}")
        return _HEADER.size + block_id * self.record_size

    @property
    def n_blocks(self) -> int:
        """Number of whole records the file currently holds."""
        size = self.path.stat().st_size - _HEADER.size
        return max(0, size // self.record_size)

    def _check_header(self) -> None:
        self._handle.seek(0)
        raw = self._handle.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise BlockFileError(f"{self.path} is too short to hold a block-file header")
        magic, version, capacity = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise BlockFileError(f"{self.path} is not a repro block file")
        if version != _VERSION:
            raise BlockFileError(
                f"{self.path} uses block-file format v{version}, "
                f"this library reads v{_VERSION}"
            )
        if capacity != self.capacity:
            raise BlockFileError(
                f"{self.path} holds blocks of capacity {capacity}, expected {self.capacity}"
            )

    # -- records ------------------------------------------------------------------

    def write_block(self, block: Block) -> None:
        """Serialise one block into its record slot (write-through)."""
        if block.capacity != self.capacity:
            raise BlockFileError(
                f"block {block.block_id} has capacity {block.capacity}, "
                f"file records hold {self.capacity}"
            )
        flags = 1 if block.is_overflow else 0
        prev_id = -1 if block.prev_id is None else block.prev_id
        next_id = -1 if block.next_id is None else block.next_id
        # same-package serialisation of the block's slot arrays
        payload = (
            _RECORD_PREFIX.pack(flags, block.slot_count, prev_id, next_id)
            + block._deleted.astype(np.uint8).tobytes()
            + np.ascontiguousarray(block._coords, dtype="<f8").tobytes()
        )
        record = payload + _CRC.pack(zlib.crc32(payload))
        self._handle.seek(self._offset(block.block_id))
        self._handle.write(record)

    def read_block(self, block_id: int) -> Block:
        """Deserialise the record for ``block_id``, verifying its checksum."""
        size = self.record_size
        record = os.pread(self._handle.fileno(), size, self._offset(block_id))
        if len(record) < size:
            raise BlockFileError(
                f"{self.path}: record for block {block_id} is truncated "
                f"({len(record)}/{size} bytes)"
            )
        body = size - _CRC.size
        if zlib.crc32(memoryview(record)[:body]) != _CRC.unpack_from(record, body)[0]:
            raise BlockFileError(
                f"{self.path}: record for block {block_id} fails its checksum "
                f"(torn write or corruption)"
            )
        flags, count, prev_id, next_id = _RECORD_PREFIX.unpack_from(record)
        capacity = self.capacity
        # copy the slot arrays out of the record (the bitmap bytes are the
        # 0/1 that write_block stored, so they read back as booleans)
        deleted = np.frombuffer(
            record, dtype=np.bool_, count=capacity, offset=_RECORD_PREFIX.size
        ).copy()
        coords = np.frombuffer(
            record, dtype="<f8", count=2 * capacity, offset=_RECORD_PREFIX.size + capacity
        ).reshape(capacity, 2).astype(float)
        block = Block(block_id, capacity, is_overflow=bool(flags & 1), slots=(coords, deleted))
        block._count = count
        block.prev_id = None if prev_id < 0 else prev_id
        block.next_id = None if next_id < 0 else next_id
        return block

    # -- lifecycle ----------------------------------------------------------------

    def sync(self) -> None:
        """Flush the file to stable storage (``fsync``)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "BlockFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockFile({str(self.path)!r}, capacity={self.capacity}, "
            f"blocks={self.n_blocks})"
        )
