"""K-D-B-tree baseline [39].

A K-D-B-tree stores a kd-tree style space partitioning in block-sized nodes:
region (internal) pages hold up to ``fanout`` child regions, point (leaf)
pages hold up to ``B`` points, and regions at the same level never overlap.
The paper bulk-loads it with a simple sorting-based construction
(Section 6.2.2), which is what :meth:`KDBTree.build` implements: the point
set is recursively divided by median splits along alternating dimensions
until partitions fit into leaf pages, and the resulting binary partitioning
is packed into multi-way nodes.

Dynamic insertions split overflowing leaf pages by a median plane.  When an
internal page overflows it is split by dividing its children between two new
pages (the upward half of the K-D-B split); the downward cascading split of
the original structure is not needed because children are never forced to
straddle the dividing line — the two halves simply keep their exact regions,
which can make sibling regions overlap slightly after many insertions but
preserves correctness of all queries.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.geometry import Rect, euclidean, mbr_of_points, mindist_point_rect, union_rects
from repro.storage import AccessStats, PageCache

__all__ = ["KDBTree"]


class _KDBNode:
    """A K-D-B-tree page: either a point (leaf) page or a region page."""

    __slots__ = ("is_leaf", "region", "points", "children", "page_id")

    def __init__(self, is_leaf: bool, region: Rect):
        self.is_leaf = is_leaf
        self.region = region
        self.points: list[tuple[float, float]] = []
        self.children: list["_KDBNode"] = []
        #: stable page id assigned by the NodePager on first access
        self.page_id: Optional[int] = None


class KDBTree(SpatialIndex):
    """K-D-B-tree with sorting-based bulk loading and dynamic updates."""

    name = "KDB"

    def __init__(
        self,
        block_capacity: int = 100,
        fanout: Optional[int] = None,
        stats: Optional[AccessStats] = None,
        cache: Optional[PageCache] = None,
    ):
        super().__init__(stats, cache)
        if block_capacity < 1:
            raise ValueError("block_capacity must be >= 1")
        self.block_capacity = int(block_capacity)
        self.fanout = int(fanout) if fanout is not None else self.block_capacity
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.root: Optional[_KDBNode] = None
        self._n_points = 0

    # -- bulk loading ----------------------------------------------------------------

    def build(self, points: np.ndarray) -> "KDBTree":
        points = self._validate_points(points)
        region = mbr_of_points(points)
        self.root = self._bulk_build(points, region, depth=0)
        self._n_points = points.shape[0]
        return self

    def _bulk_build(self, points: np.ndarray, region: Rect, depth: int) -> _KDBNode:
        if points.shape[0] <= self.block_capacity:
            leaf = _KDBNode(is_leaf=True, region=region)
            leaf.points = [(float(x), float(y)) for x, y in points]
            return leaf
        parts = self._median_partition(points, region, depth, self.fanout)
        node = _KDBNode(is_leaf=False, region=region)
        node.children = [
            self._bulk_build(part_points, part_region, depth + 1)
            for part_points, part_region in parts
            if part_points.shape[0] > 0
        ]
        return node

    def _median_partition(
        self, points: np.ndarray, region: Rect, depth: int, target_parts: int
    ) -> list[tuple[np.ndarray, Rect]]:
        """Divide ``points`` into at most ``target_parts`` partitions by recursive
        median splits along alternating dimensions."""
        parts: list[tuple[np.ndarray, Rect, int]] = [(points, region, depth)]
        while len(parts) < target_parts:
            # split the largest part that still exceeds a leaf page
            largest_index = max(range(len(parts)), key=lambda i: parts[i][0].shape[0])
            part_points, part_region, part_depth = parts[largest_index]
            if part_points.shape[0] <= self.block_capacity:
                break
            dimension = part_depth % 2
            order = np.argsort(part_points[:, dimension], kind="stable")
            middle = part_points.shape[0] // 2
            split_value = float(part_points[order[middle], dimension])
            left_idx, right_idx = order[:middle], order[middle:]
            if dimension == 0:
                left_region = Rect(part_region.xlo, part_region.ylo, split_value, part_region.yhi)
                right_region = Rect(split_value, part_region.ylo, part_region.xhi, part_region.yhi)
            else:
                left_region = Rect(part_region.xlo, part_region.ylo, part_region.xhi, split_value)
                right_region = Rect(part_region.xlo, split_value, part_region.xhi, part_region.yhi)
            parts[largest_index] = (part_points[left_idx], left_region, part_depth + 1)
            parts.append((part_points[right_idx], right_region, part_depth + 1))
        return [(part_points, part_region) for part_points, part_region, _ in parts]

    # -- queries ------------------------------------------------------------------------

    def contains(self, x: float, y: float) -> bool:
        if self.root is None:
            return False
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                self.pager.read_block(node)
                if any(px == x and py == y for px, py in node.points):
                    return True
                continue
            self.pager.read_node(node)
            for child in node.children:
                if child.region.contains_point(x, y):
                    stack.append(child)
        return False

    def window_query(self, window: Rect) -> np.ndarray:
        if self.root is None:
            return np.empty((0, 2), dtype=float)
        found: list[tuple[float, float]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                self.pager.read_block(node)
                found.extend(
                    (px, py) for px, py in node.points if window.contains_point(px, py)
                )
                continue
            self.pager.read_node(node)
            stack.extend(child for child in node.children if window.intersects(child.region))
        return np.asarray(found, dtype=float).reshape(-1, 2)

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """Exact kNN via the best-first algorithm of Roussopoulos et al. [40]."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.root is None:
            return np.empty((0, 2), dtype=float)
        counter = itertools.count()
        heap: list[tuple[float, int, str, object]] = [(0.0, next(counter), "node", self.root)]
        results: list[tuple[float, float]] = []
        while heap and len(results) < k:
            distance, _, kind, payload = heapq.heappop(heap)
            if kind == "point":
                results.append(payload)  # type: ignore[arg-type]
                continue
            node: _KDBNode = payload  # type: ignore[assignment]
            if node.is_leaf:
                self.pager.read_block(node)
                for px, py in node.points:
                    heapq.heappush(
                        heap, (euclidean(x, y, px, py), next(counter), "point", (px, py))
                    )
            else:
                self.pager.read_node(node)
                for child in node.children:
                    heapq.heappush(
                        heap,
                        (mindist_point_rect(x, y, child.region), next(counter), "node", child),
                    )
        return np.asarray(results, dtype=float).reshape(-1, 2)

    # -- updates -------------------------------------------------------------------------

    def _insert(self, x: float, y: float) -> None:
        if self.root is None:
            raise RuntimeError("index has not been built yet")
        if not self.root.region.contains_point(x, y):
            self.root.region = self.root.region.expand_to_point(x, y)
        path: list[_KDBNode] = []
        node = self.root
        while not node.is_leaf:
            self.pager.read_node(node)
            path.append(node)
            containing = [child for child in node.children if child.region.contains_point(x, y)]
            if containing:
                node = containing[0]
            else:
                # expand the nearest child region (can happen after root expansion)
                node = min(
                    node.children, key=lambda child: mindist_point_rect(x, y, child.region)
                )
                node.region = node.region.expand_to_point(x, y)
        node.points.append((x, y))
        self.pager.write(node)
        self._n_points += 1
        if len(node.points) > self.block_capacity:
            self._split_leaf(node, path)

    def _split_leaf(self, leaf: _KDBNode, path: list[_KDBNode]) -> None:
        points = np.asarray(leaf.points, dtype=float)
        dimension = 0 if leaf.region.width >= leaf.region.height else 1
        order = np.argsort(points[:, dimension], kind="stable")
        middle = points.shape[0] // 2
        split_value = float(points[order[middle], dimension])
        if dimension == 0:
            left_region = Rect(leaf.region.xlo, leaf.region.ylo, split_value, leaf.region.yhi)
            right_region = Rect(split_value, leaf.region.ylo, leaf.region.xhi, leaf.region.yhi)
        else:
            left_region = Rect(leaf.region.xlo, leaf.region.ylo, leaf.region.xhi, split_value)
            right_region = Rect(leaf.region.xlo, split_value, leaf.region.xhi, leaf.region.yhi)
        left = _KDBNode(is_leaf=True, region=left_region)
        right = _KDBNode(is_leaf=True, region=right_region)
        left.points = [tuple(points[i]) for i in order[:middle]]
        right.points = [tuple(points[i]) for i in order[middle:]]
        self.pager.retire(leaf)  # the replaced page must not stay resident

        if not path:
            new_root = _KDBNode(is_leaf=False, region=leaf.region)
            new_root.children = [left, right]
            self.root = new_root
            return
        parent = path[-1]
        parent.children.remove(leaf)
        parent.children.extend([left, right])
        if len(parent.children) > self.fanout:
            self._split_internal(parent, path[:-1])

    def _split_internal(self, node: _KDBNode, path: list[_KDBNode]) -> None:
        centers = np.asarray([child.region.center for child in node.children])
        spread = centers.max(axis=0) - centers.min(axis=0)
        dimension = int(np.argmax(spread))
        order = np.argsort(centers[:, dimension], kind="stable")
        middle = len(order) // 2
        first = _KDBNode(is_leaf=False, region=node.region)
        second = _KDBNode(is_leaf=False, region=node.region)
        first.children = [node.children[i] for i in order[:middle]]
        second.children = [node.children[i] for i in order[middle:]]
        first.region = union_rects([child.region for child in first.children])
        second.region = union_rects([child.region for child in second.children])
        self.pager.retire(node)  # the replaced page must not stay resident

        if not path:
            new_root = _KDBNode(is_leaf=False, region=node.region)
            new_root.children = [first, second]
            self.root = new_root
            return
        parent = path[-1]
        parent.children.remove(node)
        parent.children.extend([first, second])
        if len(parent.children) > self.fanout:
            self._split_internal(parent, path[:-1])

    def _delete(self, x: float, y: float) -> bool:
        if self.root is None:
            return False
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                self.pager.read_block(node)
                for i, (px, py) in enumerate(node.points):
                    if px == x and py == y:
                        node.points.pop(i)
                        self.pager.write(node)
                        self._n_points -= 1
                        return True
                continue
            self.pager.read_node(node)
            stack.extend(
                child for child in node.children if child.region.contains_point(x, y)
            )
        return False

    # -- accounting ----------------------------------------------------------------------

    def size_bytes(self) -> int:
        if self.root is None:
            return 0
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                total += self.block_capacity * 16 + 32
            else:
                total += len(node.children) * 40 + 32
                stack.extend(node.children)
        return total

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def height(self) -> int:
        """Number of levels, excluding the leaf (data block) level."""
        if self.root is None:
            return 0
        height = 0
        node = self.root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height

    def extra_metrics(self) -> dict:
        return {"height": self.height}
