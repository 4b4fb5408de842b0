"""Shard routing: map every operation to the minimal shard set.

:class:`ShardRouter` wraps a :class:`~repro.sharding.policy.ShardingPolicy`
with the bookkeeping the sharded index needs at serving time:

* point operations (lookup / insert / delete) route to the **single** shard
  owning the key,
* window queries route to every shard whose region intersects the window
  and to no other shard (the spatial data-skipping property the benchmarks
  assert via per-shard :class:`~repro.storage.AccessStats`),
* kNN queries get a **best-first shard order**: shards sorted by the
  MINDIST lower bound between the query point and the shard's region, so
  the caller can stop expanding as soon as the k-th candidate distance is
  below the next shard's bound.

The router also tracks a per-shard *overflow extent*: should a point ever
be inserted outside the data space the policy was built for, it is clamped
to the nearest shard and the shard's effective extent is widened so window
routing and kNN pruning stay complete (the bounds merely become less
tight).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.geometry import Rect, mindist_point_rect
from repro.sharding.policy import ShardingPolicy

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route points, windows and kNN queries to shard ids."""

    def __init__(self, policy: ShardingPolicy):
        self.policy = policy
        #: MBR of points inserted *outside* their shard's region (normally
        #: empty: only out-of-data-space inserts land here)
        self._overflow: dict[int, Rect] = {}

    @property
    def n_shards(self) -> int:
        return self.policy.n_shards

    # -- point routing --------------------------------------------------------

    def shard_for_point(self, x: float, y: float) -> int:
        """The single shard owning key ``(x, y)``."""
        return self.policy.shard_of(x, y)

    def shards_for_points(self, points: np.ndarray | list) -> np.ndarray | list:
        """Owner of every point: a list of ``(x, y)`` rows gives a list, one
        :meth:`~ShardingPolicy.shard_of` per row (a small request pays no
        NumPy call), and an ``(n, 2)`` array gives an array.  Both forms
        route every point to the same shard."""
        if isinstance(points, list):
            shard_of = self.policy.shard_of
            return [shard_of(x, y) for x, y in points]
        return self.policy.shard_of_many(points)

    def record_insert(self, x: float, y: float) -> int:
        """Route an insert; widens the shard's overflow extent when the key
        falls outside the shard's nominal region."""
        shard_id = self.policy.shard_of(x, y)
        if not self.policy.shard_extent(shard_id).contains_point(x, y):
            self._note_overflow(shard_id, x, y)
        return shard_id

    def record_assignments(self, points: np.ndarray, owners: np.ndarray) -> None:
        """Record a bulk build's point-to-shard assignment.

        Points assigned outside their shard's nominal region (only possible
        for build points outside the policy's data space, which clamp to a
        boundary shard) widen that shard's overflow extent, exactly as the
        per-insert path does — without this, such points would be invisible
        to window routing and could break the kNN MINDIST lower bound.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        for shard_id in np.unique(owners).tolist():
            mine = points[owners == shard_id]
            outside = mine[~self.policy.shard_extent(shard_id).contains_points(mine)]
            for x, y in outside:
                self._note_overflow(shard_id, float(x), float(y))

    def _note_overflow(self, shard_id: int, x: float, y: float) -> None:
        previous = self._overflow.get(shard_id)
        self._overflow[shard_id] = (
            previous.expand_to_point(x, y) if previous is not None else Rect(x, y, x, y)
        )

    # -- rebalancing ------------------------------------------------------------

    def note_split(self, parent_id: int, right_id: int) -> None:
        """Remap overflow bookkeeping after ``parent_id`` split in two.

        The parent's overflow MBR (out-of-region inserts) is conservatively
        copied to **both** children: the points it stands for were rescued
        into one child or the other, and keeping the whole rect on each
        keeps window routing complete and the kNN bound valid — the bounds
        are merely looser until the overflow ages out.
        """
        overflow = self._overflow.get(parent_id)
        if overflow is not None:
            self._overflow[right_id] = overflow

    def note_merge(
        self, keep: int, drop: int, moved: Optional[tuple[int, int]]
    ) -> None:
        """Remap overflow bookkeeping after ``drop`` merged into ``keep``.

        The siblings' overflow rects union onto the merged shard, and the
        shard relocated into the id hole (``moved`` as ``(old_id, new_id)``)
        carries its overflow rect along to its new id.
        """
        kept = self._overflow.pop(keep, None)
        dropped = self._overflow.pop(drop, None)
        if kept is not None or dropped is not None:
            if kept is None:
                merged = dropped
            elif dropped is None:
                merged = kept
            else:
                merged = kept.union(dropped)
            self._overflow[keep] = merged
        if moved is not None:
            relocated = self._overflow.pop(moved[0], None)
            if relocated is not None:
                self._overflow[moved[1]] = relocated

    # -- window routing ---------------------------------------------------------

    def shards_for_window(self, window: Rect) -> list[int]:
        """Every shard that may hold a point inside ``window``, no others."""
        shard_ids = set(self.policy.shards_for_window(window))
        for shard_id, extent in self._overflow.items():
            if extent.intersects(window):
                shard_ids.add(shard_id)
        return sorted(shard_ids)

    # -- kNN routing --------------------------------------------------------------

    def mindist(self, x: float, y: float, shard_id: int) -> float:
        """Lower bound on the distance from ``(x, y)`` to shard ``shard_id``."""
        return self._widened(x, y, shard_id, self.policy.mindist(x, y, shard_id))

    def _widened(self, x: float, y: float, shard_id: int, bound: float) -> float:
        """``bound`` lowered to the shard's overflow extent, if it has one."""
        overflow = self._overflow.get(shard_id)
        if overflow is not None:
            bound = min(bound, mindist_point_rect(x, y, overflow))
        return bound

    def knn_shard_order(self, x: float, y: float) -> Iterator[tuple[float, int]]:
        """Shards as ``(mindist, shard_id)`` in ascending MINDIST order.

        Every shard's bound comes from one policy pass
        (:meth:`~repro.sharding.policy.ShardingPolicy.mindists`).  The
        best-first kNN expansion walks this order and stops at the first
        shard whose bound exceeds the current k-th candidate distance: no
        skipped shard can improve the answer.
        """
        bounds = self.policy.mindists(x, y).tolist()
        order = sorted(
            (self._widened(x, y, shard_id, bound), shard_id)
            for shard_id, bound in enumerate(bounds)
        )
        return iter(order)

    # -- diagnostics ------------------------------------------------------------

    def shard_extent(self, shard_id: int) -> Rect:
        """The shard's effective extent (region MBR plus any overflow)."""
        extent = self.policy.shard_extent(shard_id)
        overflow = self._overflow.get(shard_id)
        return extent.union(overflow) if overflow is not None else extent

    def describe(self) -> str:
        return self.policy.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter({self.policy.describe()})"
