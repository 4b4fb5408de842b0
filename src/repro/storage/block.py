"""A fixed-capacity block of spatial points."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.geometry import Rect, mbr_of_points

__all__ = ["Block"]

#: marks the MBR memo as not computed (``None`` is the empty block's MBR)
_STALE = object()


class Block:
    """A disk block holding at most ``capacity`` two-dimensional points.

    Points are stored in insertion order.  Deletions flag a slot rather than
    compacting the block (the paper keeps deleted slots so that the learned
    error bounds stay valid; the slot may later be reused by an insertion).

    The live-point array and the MBR are computed once and memoised until
    the next ``append``/``delete``/``bulk_fill``; pickling drops the memo,
    so checkpoints and copies carry the slots only.
    """

    def __init__(self, block_id: int, capacity: int, is_overflow: bool = False):
        if capacity < 1:
            raise ValueError("block capacity must be >= 1")
        self.block_id = int(block_id)
        self.capacity = int(capacity)
        #: True for blocks created by insertions after the initial build.
        #: Overflow blocks do not count towards the learned error bounds.
        self.is_overflow = bool(is_overflow)
        self._coords = np.empty((capacity, 2), dtype=float)
        self._deleted = np.zeros(capacity, dtype=bool)
        self._count = 0
        #: id of the block that precedes / follows this one in curve order
        self.prev_id: Optional[int] = None
        self.next_id: Optional[int] = None
        self._forget()

    def _forget(self) -> None:
        """Drop the memoised live points and MBR (the slots changed)."""
        self._live: Optional[np.ndarray] = None
        self._mbr = _STALE

    # -- size & occupancy --------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (non-deleted) points."""
        return int(self._count - self._deleted[: self._count].sum())

    @property
    def slot_count(self) -> int:
        """Number of occupied slots, including deleted ones."""
        return self._count

    @property
    def is_full(self) -> bool:
        """True when no slot can accept an insertion (no free or deleted slot)."""
        return self._count >= self.capacity and not self._deleted[: self._count].any()

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    # -- contents -----------------------------------------------------------------

    def points(self) -> np.ndarray:
        """Live points as a read-only ``(m, 2)`` array.

        The array is computed once and shared by every caller until the
        block changes; a mutation builds a new one and leaves arrays handed
        out earlier as they were.
        """
        live = self._live
        if live is None:
            n = self._count
            live = self._coords[:n][~self._deleted[:n]]
            live.flags.writeable = False
            self._live = live
        return live

    def all_slots(self) -> np.ndarray:
        """All occupied slots including deleted ones (used by rebuild logic)."""
        return self._coords[: self._count].copy()

    def iter_points(self) -> Iterator[tuple[float, float]]:
        """Live points as ``(x, y)`` Python floats, in slot order.

        Iterates a snapshot of :meth:`points` taken at the first ``next()``:
        an iterator started before a mutation keeps yielding the contents
        the block had when it started.
        """
        yield from map(tuple, self.points().tolist())

    def mbr(self) -> Optional[Rect]:
        """MBR of the live points, or ``None`` when the block is empty."""
        mbr = self._mbr
        if mbr is _STALE:
            live = self.points()
            mbr = self._mbr = mbr_of_points(live) if live.shape[0] else None
        return mbr

    # -- mutation -----------------------------------------------------------------

    def append(self, x: float, y: float) -> None:
        """Add a point, reusing a deleted slot if the block is otherwise full."""
        self._forget()
        if self._count < self.capacity:
            self._coords[self._count] = (x, y)
            self._deleted[self._count] = False
            self._count += 1
            return
        deleted_slots = np.nonzero(self._deleted[: self._count])[0]
        if deleted_slots.size == 0:
            raise ValueError(f"block {self.block_id} is full")
        slot = int(deleted_slots[0])
        self._coords[slot] = (x, y)
        self._deleted[slot] = False

    def bulk_fill(self, points: np.ndarray) -> None:
        """Fill an empty block with up to ``capacity`` points at once."""
        points = np.asarray(points, dtype=float)
        if self._count != 0:
            raise ValueError("bulk_fill requires an empty block")
        if points.shape[0] > self.capacity:
            raise ValueError(
                f"cannot fill block of capacity {self.capacity} with {points.shape[0]} points"
            )
        count = points.shape[0]
        self._forget()
        self._coords[:count] = points
        self._deleted[:count] = False
        self._count = count

    def _matches(self, x: float, y: float) -> np.ndarray:
        """Boolean mask over the occupied slots: live points equal to ``(x, y)``.

        Compares with ``==``, so ``-0.0`` matches ``0.0``.
        """
        n = self._count
        coords = self._coords[:n]
        return (coords[:, 0] == x) & (coords[:, 1] == y) & ~self._deleted[:n]

    def delete(self, x: float, y: float) -> bool:
        """Flag the first live point equal to ``(x, y)`` as deleted.

        Returns True when a point was deleted.
        """
        slots = np.flatnonzero(self._matches(x, y))
        if slots.size == 0:
            return False
        self._deleted[slots[0]] = True
        self._forget()
        return True

    def contains(self, x: float, y: float) -> bool:
        """True when a live point equal to ``(x, y)`` is stored in this block."""
        # nearly every probe misses on x alone; only an x match pays for
        # the full compare
        if not (self._coords[: self._count, 0] == x).any():
            return False
        return bool(self._matches(x, y).any())

    # -- persistence: the memo is never pickled ---------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_live"], state["_mbr"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._forget()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "overflow" if self.is_overflow else "base"
        return f"Block(id={self.block_id}, {len(self)}/{self.capacity} points, {kind})"
