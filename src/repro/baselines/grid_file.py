"""Grid File baseline [33].

The paper uses the static component of a Grid File for moving objects [22]:
a regular ``sqrt(n/B) x sqrt(n/B)`` grid whose cells map to buckets of data
blocks, so each cell holds roughly one block of points under a uniform
distribution (Section 6.1).  A cell-table lookup locates the bucket of a
point in constant time, which makes point queries on uniform data very fast,
but skewed data concentrates many blocks in few cells and inflates the number
of block accesses — the effect the paper reports.

Bucket blocks are pages: each carries a stable id assigned by the shared
:class:`~repro.storage.paged.NodePager`, so every block read is cache-aware
and writes invalidate exactly the dirtied block.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.geometry import Rect, euclidean, mbr_of_points, mindist_point_rect
from repro.storage import AccessStats, PageCache

__all__ = ["GridFile"]


class _GridBlock:
    """One data block of a bucket: a page with a stable id."""

    __slots__ = ("points", "page_id")

    def __init__(self):
        self.points: list[tuple[float, float]] = []
        self.page_id: Optional[int] = None

    def __len__(self) -> int:
        return len(self.points)


class _Bucket:
    """The chain of data blocks of one grid cell."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.blocks: list[_GridBlock] = []

    def add(self, x: float, y: float) -> _GridBlock:
        """Append the point, returning the block it landed in."""
        if not self.blocks or len(self.blocks[-1]) >= self.capacity:
            self.blocks.append(_GridBlock())
        block = self.blocks[-1]
        block.points.append((x, y))
        return block

    @property
    def n_points(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


class GridFile(SpatialIndex):
    """Static regular-grid index."""

    name = "Grid"

    def __init__(
        self,
        block_capacity: int = 100,
        stats: Optional[AccessStats] = None,
        grid_side: Optional[int] = None,
        cache: Optional[PageCache] = None,
    ):
        super().__init__(stats, cache)
        if block_capacity < 1:
            raise ValueError("block_capacity must be >= 1")
        self.block_capacity = int(block_capacity)
        self._requested_side = grid_side
        self.grid_side = grid_side if grid_side is not None else 1
        self._buckets: list[list[_Bucket]] = []
        self._data_space = Rect.unit()
        self._n_points = 0

    # -- build ------------------------------------------------------------------------

    def build(self, points: np.ndarray) -> "GridFile":
        points = self._validate_points(points)
        n = points.shape[0]
        self._data_space = mbr_of_points(points)
        if self._requested_side is not None:
            self.grid_side = int(self._requested_side)
        else:
            self.grid_side = max(1, int(math.ceil(math.sqrt(n / self.block_capacity))))
        self._buckets = [
            [_Bucket(self.block_capacity) for _ in range(self.grid_side)]
            for _ in range(self.grid_side)
        ]
        self._n_points = 0
        for x, y in points:
            self._insert_raw(float(x), float(y))
        return self

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        width = self._data_space.width or 1.0
        height = self._data_space.height or 1.0
        cx = int((x - self._data_space.xlo) / width * self.grid_side)
        cy = int((y - self._data_space.ylo) / height * self.grid_side)
        return (
            max(0, min(cx, self.grid_side - 1)),
            max(0, min(cy, self.grid_side - 1)),
        )

    def _cell_rect(self, cx: int, cy: int) -> Rect:
        width = (self._data_space.width or 1.0) / self.grid_side
        height = (self._data_space.height or 1.0) / self.grid_side
        xlo = self._data_space.xlo + cx * width
        ylo = self._data_space.ylo + cy * height
        return Rect(xlo, ylo, xlo + width, ylo + height)

    def _insert_raw(self, x: float, y: float) -> _GridBlock:
        cx, cy = self._cell_of(x, y)
        block = self._buckets[cx][cy].add(x, y)
        self._n_points += 1
        return block

    # -- queries ------------------------------------------------------------------------

    def contains(self, x: float, y: float) -> bool:
        cx, cy = self._cell_of(x, y)
        self.stats.record_node_read()  # cell-table lookup (in-memory directory)
        for block in self._buckets[cx][cy].blocks:
            self.pager.read_block(block)
            for px, py in block.points:
                if px == x and py == y:
                    return True
        return False

    def window_query(self, window: Rect) -> np.ndarray:
        self.stats.record_node_read()
        cx_lo, cy_lo = self._cell_of(window.xlo, window.ylo)
        cx_hi, cy_hi = self._cell_of(window.xhi, window.yhi)
        found: list[tuple[float, float]] = []
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                for block in self._buckets[cx][cy].blocks:
                    self.pager.read_block(block)
                    for px, py in block.points:
                        if window.contains_point(px, py):
                            found.append((px, py))
        return np.asarray(found, dtype=float).reshape(-1, 2)

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """Exact kNN via best-first search over grid cells (MINDIST ordering)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        self.stats.record_node_read()
        counter = itertools.count()
        heap: list[tuple[float, int, tuple[int, int]]] = []
        for cx in range(self.grid_side):
            for cy in range(self.grid_side):
                if self._buckets[cx][cy].n_points == 0:
                    continue
                distance = mindist_point_rect(x, y, self._cell_rect(cx, cy))
                heapq.heappush(heap, (distance, next(counter), (cx, cy)))

        best: list[tuple[float, float, float]] = []

        def kth() -> float:
            return best[k - 1][0] if len(best) >= k else float("inf")

        while heap and heap[0][0] < kth():
            _, _, (cx, cy) = heapq.heappop(heap)
            for block in self._buckets[cx][cy].blocks:
                self.pager.read_block(block)
                for px, py in block.points:
                    distance = euclidean(x, y, px, py)
                    if distance < kth() or len(best) < k:
                        best.append((distance, px, py))
                        best.sort()
                        del best[k:]
        return np.asarray([(px, py) for _, px, py in best[:k]], dtype=float).reshape(-1, 2)

    # -- updates ------------------------------------------------------------------------

    def _insert(self, x: float, y: float) -> None:
        block = self._insert_raw(x, y)
        self.pager.write(block)

    def _delete(self, x: float, y: float) -> bool:
        cx, cy = self._cell_of(x, y)
        self.stats.record_node_read()
        for block in self._buckets[cx][cy].blocks:
            self.pager.read_block(block)  # the scan reads the block like contains()
            for i, (px, py) in enumerate(block.points):
                if px == x and py == y:
                    block.points.pop(i)
                    self.pager.write(block)
                    self._n_points -= 1
                    return True
        return False

    # -- accounting ------------------------------------------------------------------------

    def size_bytes(self) -> int:
        directory = self.grid_side * self.grid_side * 16
        blocks = sum(
            bucket.n_blocks for row in self._buckets for bucket in row
        ) * (self.block_capacity * 16 + 32)
        return directory + blocks

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def n_blocks(self) -> int:
        return sum(bucket.n_blocks for row in self._buckets for bucket in row)
