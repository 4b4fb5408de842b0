"""R*-tree built by repeated insertion (stand-in for the revised R*-tree, RR*).

The paper's strongest dynamically-built competitor is the revised R*-tree of
Beckmann and Seeger [4].  Its original C implementation is not available
offline, so this module implements the classic R*-tree [3] insertion
algorithm, which plays the same role in the evaluation (see DESIGN.md,
"Substitutions"):

* **ChooseSubtree** descends into the child needing the least overlap
  enlargement at the leaf level and the least area enlargement above it,
* **forced reinsertion** removes the 30 % of entries farthest from the centre
  of the first node that overflows during an insertion and reinserts them,
* **R\\*-split** chooses the split axis by minimum margin sum and the split
  distribution by minimum overlap (ties broken by area).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.baselines.rtree.node import RTreeNode
from repro.baselines.rtree.queries import (
    rtree_contains,
    rtree_knn_query,
    rtree_window_query,
)
from repro.geometry import Rect, union_rects
from repro.storage import AccessStats, PageCache

__all__ = ["RStarTree"]


def _rect_of_point(x: float, y: float) -> Rect:
    return Rect(x, y, x, y)


def _overlap(rect: Rect, others: list[Rect]) -> float:
    total = 0.0
    for other in others:
        intersection = rect.intersection(other)
        if intersection is not None:
            total += intersection.area
    return total


def _margin(rect: Rect) -> float:
    return 2.0 * (rect.width + rect.height)


class RStarTree(SpatialIndex):
    """R*-tree with ChooseSubtree, forced reinsertion and margin-based splits."""

    name = "RR*"

    def __init__(
        self,
        block_capacity: int = 100,
        fanout: Optional[int] = None,
        stats: Optional[AccessStats] = None,
        reinsert_fraction: float = 0.3,
        cache: Optional[PageCache] = None,
    ):
        super().__init__(stats, cache)
        if block_capacity < 2:
            raise ValueError("block_capacity must be >= 2")
        if not 0.0 <= reinsert_fraction < 1.0:
            raise ValueError("reinsert_fraction must lie in [0, 1)")
        self.block_capacity = int(block_capacity)
        self.fanout = int(fanout) if fanout is not None else self.block_capacity
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.reinsert_fraction = float(reinsert_fraction)
        self.root: Optional[RTreeNode] = None
        self._n_points = 0
        self._min_fill_leaf = max(1, int(0.4 * self.block_capacity))
        self._min_fill_node = max(1, int(0.4 * self.fanout))

    # -- build ------------------------------------------------------------------------

    def build(self, points: np.ndarray) -> "RStarTree":
        points = self._validate_points(points)
        self.root = RTreeNode(is_leaf=True)
        self._n_points = 0
        for x, y in points:
            self._insert(float(x), float(y), count_accesses=False)
        return self

    # -- insertion ----------------------------------------------------------------------

    def _insert(self, x: float, y: float, count_accesses: bool = True) -> None:
        if self.root is None:
            self.root = RTreeNode(is_leaf=True)
        self._insert_point(x, y, reinsert_allowed=True, count_accesses=count_accesses)
        self._n_points += 1
        if count_accesses:
            self.stats.record_block_write()

    def _insert_point(
        self, x: float, y: float, reinsert_allowed: bool, count_accesses: bool
    ) -> None:
        path = self._choose_path(x, y, count_accesses)
        leaf = path[-1]
        leaf.points.append((x, y))
        self.pager.retire(leaf)  # dirtied page must not produce stale hits
        for node in path:
            node.expand_mbr(x, y)
        if len(leaf.points) > self.block_capacity:
            self._handle_overflow(leaf, path, reinsert_allowed, count_accesses)

    def _choose_path(self, x: float, y: float, count_accesses: bool) -> list[RTreeNode]:
        """ChooseSubtree: the root-to-leaf path for a new point."""
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            if count_accesses:
                self.pager.read_node(node)
            node = self._choose_child(node, x, y)
            path.append(node)
        return path

    def _choose_child(self, node: RTreeNode, x: float, y: float) -> RTreeNode:
        children = node.children
        children_are_leaves = children[0].is_leaf if children else True

        # raw-float bounding boxes: (xlo, ylo, xhi, yhi) — avoids Rect allocation
        # in this hot path (ChooseSubtree runs for every inserted point)
        boxes = [
            (c.mbr.xlo, c.mbr.ylo, c.mbr.xhi, c.mbr.yhi) if c.mbr is not None else None
            for c in children
        ]

        def area(box) -> float:
            return (box[2] - box[0]) * (box[3] - box[1])

        def enlarged(box):
            return (min(box[0], x), min(box[1], y), max(box[2], x), max(box[3], y))

        def area_enlargement(i: int) -> float:
            if boxes[i] is None:
                return 0.0
            return area(enlarged(boxes[i])) - area(boxes[i])

        if not children_are_leaves:
            return children[
                min(
                    range(len(children)),
                    key=lambda i: (area_enlargement(i), area(boxes[i]) if boxes[i] else 0.0),
                )
            ]

        # leaf level: minimum overlap enlargement among the candidates with the
        # least area enlargement (the R*-tree's standard candidate pruning),
        # ties broken by area enlargement then area
        candidate_count = min(len(children), 8)
        candidates = sorted(range(len(children)), key=area_enlargement)[:candidate_count]

        def overlap_with_others(box, skip: int) -> float:
            total = 0.0
            for j, other in enumerate(boxes):
                if j == skip or other is None:
                    continue
                w = min(box[2], other[2]) - max(box[0], other[0])
                if w <= 0:
                    continue
                h = min(box[3], other[3]) - max(box[1], other[1])
                if h <= 0:
                    continue
                total += w * h
            return total

        def overlap_enlargement(i: int) -> float:
            if boxes[i] is None:
                return 0.0
            return overlap_with_others(enlarged(boxes[i]), i) - overlap_with_others(boxes[i], i)

        best = min(
            candidates,
            key=lambda i: (
                overlap_enlargement(i),
                area_enlargement(i),
                area(boxes[i]) if boxes[i] else 0.0,
            ),
        )
        return children[best]

    def _handle_overflow(
        self,
        node: RTreeNode,
        path: list[RTreeNode],
        reinsert_allowed: bool,
        count_accesses: bool,
    ) -> None:
        is_root = len(path) == 1
        if reinsert_allowed and not is_root and node.is_leaf and self.reinsert_fraction > 0:
            self._forced_reinsert(node, count_accesses)
            return
        self._split(node, path, count_accesses)

    def _forced_reinsert(self, leaf: RTreeNode, count_accesses: bool) -> None:
        """Remove the entries farthest from the leaf centre and reinsert them."""
        leaf.recompute_mbr()
        center = leaf.mbr.center if leaf.mbr is not None else (0.0, 0.0)
        points = leaf.points
        distances = [
            ((px - center[0]) ** 2 + (py - center[1]) ** 2, i) for i, (px, py) in enumerate(points)
        ]
        distances.sort(reverse=True)
        n_reinsert = max(1, int(self.reinsert_fraction * len(points)))
        reinsert_idx = {i for _, i in distances[:n_reinsert]}
        keep = [p for i, p in enumerate(points) if i not in reinsert_idx]
        evicted = [p for i, p in enumerate(points) if i in reinsert_idx]
        leaf.points = keep
        leaf.recompute_mbr()
        self.pager.retire(leaf)
        for px, py in evicted:
            self._insert_point(px, py, reinsert_allowed=False, count_accesses=count_accesses)

    # -- splitting ------------------------------------------------------------------------

    def _split(self, node: RTreeNode, path: list[RTreeNode], count_accesses: bool) -> None:
        if node.is_leaf:
            entries = [(_rect_of_point(px, py), (px, py)) for px, py in node.points]
            min_fill = self._min_fill_leaf
        else:
            entries = [(child.mbr, child) for child in node.children]
            min_fill = self._min_fill_node
        first_entries, second_entries = self._rstar_split(entries, min_fill)

        first = RTreeNode(is_leaf=node.is_leaf)
        second = RTreeNode(is_leaf=node.is_leaf)
        if node.is_leaf:
            first.points = [payload for _, payload in first_entries]
            second.points = [payload for _, payload in second_entries]
        else:
            first.children = [payload for _, payload in first_entries]
            second.children = [payload for _, payload in second_entries]
        first.recompute_mbr()
        second.recompute_mbr()

        self.pager.retire(node)
        if len(path) == 1:
            self.root = RTreeNode.internal_from_children([first, second])
            return
        parent = path[-2]
        parent.children.remove(node)
        parent.children.extend([first, second])
        parent.recompute_mbr()
        if len(parent.children) > self.fanout:
            self._split(parent, path[:-1], count_accesses)

    def _rstar_split(
        self, entries: list[tuple[Rect, object]], min_fill: int
    ) -> tuple[list[tuple[Rect, object]], list[tuple[Rect, object]]]:
        """Choose the split axis by margin and the distribution by overlap/area."""
        n = len(entries)
        # clamp so at least one valid distribution exists even for tiny nodes
        min_fill = max(1, min(min_fill, n // 2))
        best_axis = None
        best_axis_margin = float("inf")
        axis_orders = {}
        for axis in (0, 1):
            if axis == 0:
                order = sorted(entries, key=lambda e: (e[0].xlo, e[0].xhi))
            else:
                order = sorted(entries, key=lambda e: (e[0].ylo, e[0].yhi))
            axis_orders[axis] = order
            margin_sum = 0.0
            for split_at in range(min_fill, n - min_fill + 1):
                left = union_rects([rect for rect, _ in order[:split_at]])
                right = union_rects([rect for rect, _ in order[split_at:]])
                margin_sum += _margin(left) + _margin(right)
            if margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis

        order = axis_orders[best_axis]
        best_split = None
        best_key = (float("inf"), float("inf"))
        for split_at in range(min_fill, n - min_fill + 1):
            left = union_rects([rect for rect, _ in order[:split_at]])
            right = union_rects([rect for rect, _ in order[split_at:]])
            intersection = left.intersection(right)
            overlap_area = intersection.area if intersection is not None else 0.0
            key = (overlap_area, left.area + right.area)
            if key < best_key:
                best_key = key
                best_split = split_at
        return order[:best_split], order[best_split:]

    # -- queries -------------------------------------------------------------------------

    def contains(self, x: float, y: float) -> bool:
        if self.root is None:
            return False
        return rtree_contains(self.root, x, y, self.pager)

    def window_query(self, window: Rect) -> np.ndarray:
        if self.root is None:
            return np.empty((0, 2), dtype=float)
        return rtree_window_query(self.root, window, self.pager)

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        if self.root is None:
            return np.empty((0, 2), dtype=float)
        return rtree_knn_query(self.root, x, y, k, self.pager)

    # -- deletion ------------------------------------------------------------------------

    def _delete(self, x: float, y: float) -> bool:
        if self.root is None:
            return False
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.contains_point(x, y):
                continue
            if node.is_leaf:
                self.pager.read_block(node)
                for i, (px, py) in enumerate(node.points):
                    if px == x and py == y:
                        node.points.pop(i)
                        node.recompute_mbr()
                        self.pager.write(node)
                        self._n_points -= 1
                        return True
            else:
                self.pager.read_node(node)
                stack.extend(node.children)
        return False

    # -- accounting ------------------------------------------------------------------------

    def size_bytes(self) -> int:
        if self.root is None:
            return 0
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                # RR*/R*-tree nodes are less compactly filled than packed trees,
                # so charge the full node footprint regardless of fill
                total += self.block_capacity * 16 + 48
            else:
                total += self.fanout * 40 + 48
                stack.extend(node.children)
        return total

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def height(self) -> int:
        """Number of internal levels above the leaves."""
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
