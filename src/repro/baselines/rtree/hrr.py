"""HRR: the rank-space Hilbert-packed R-tree [37, 38].

The HRR baseline is an R-tree bulk-loaded with the same rank-space curve
ordering that RSMI uses (Section 3.1): points are mapped to the rank space,
ordered along a Hilbert curve, every ``B`` consecutive points become a leaf
node, and every ``fanout`` consecutive nodes become a parent node until a
single root remains.  This packing gives worst-case optimal window query
performance among R-trees, which is why the paper uses it as the strongest
traditional competitor.

The original structure keeps two auxiliary B-trees to translate coordinates
into ranks for queries on the rank space; this reproduction only needs them
for the size accounting (the paper notes HRR is larger than RSMI because of
them), so their footprint is charged in :meth:`HRRTree.size_bytes` without
materialising the trees.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.baselines.rtree.node import RTreeNode
from repro.baselines.rtree.queries import (
    rtree_contains,
    rtree_iter_leaves,
    rtree_knn_query,
    rtree_window_query,
)
from repro.geometry import Rect
from repro.rank_space import order_points_by_curve
from repro.storage import AccessStats, PageCache

__all__ = ["HRRTree"]


class HRRTree(SpatialIndex):
    """Bulk-loaded rank-space Hilbert R-tree."""

    name = "HRR"

    def __init__(
        self,
        block_capacity: int = 100,
        fanout: Optional[int] = None,
        stats: Optional[AccessStats] = None,
        curve: str = "hilbert",
        cache: Optional[PageCache] = None,
    ):
        super().__init__(stats, cache)
        if block_capacity < 1:
            raise ValueError("block_capacity must be >= 1")
        self.block_capacity = int(block_capacity)
        self.fanout = int(fanout) if fanout is not None else self.block_capacity
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.curve = curve
        self.root: Optional[RTreeNode] = None
        self._n_points = 0

    # -- bulk loading -------------------------------------------------------------------

    def build(self, points: np.ndarray) -> "HRRTree":
        points = self._validate_points(points)
        ordering = order_points_by_curve(points, curve=self.curve, use_rank_space=True)
        sorted_points = ordering.sorted_points

        leaves = [
            RTreeNode.leaf_from_points(sorted_points[start : start + self.block_capacity])
            for start in range(0, sorted_points.shape[0], self.block_capacity)
        ]
        level: list[RTreeNode] = leaves
        while len(level) > 1:
            level = [
                RTreeNode.internal_from_children(level[start : start + self.fanout])
                for start in range(0, len(level), self.fanout)
            ]
        self.root = level[0]
        self._n_points = points.shape[0]
        return self

    # -- queries ------------------------------------------------------------------------

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

    # -- updates -------------------------------------------------------------------------

    def _insert(self, x: float, y: float) -> None:
        """Insert by least-enlargement descent with half/half splits of full nodes."""
        if self.root is None:
            raise RuntimeError("index has not been built yet")
        path: list[RTreeNode] = []
        node = self.root
        while not node.is_leaf:
            self.pager.read_node(node)
            path.append(node)
            node = min(node.children, key=lambda child: _enlargement(child.mbr, x, y))
        node.points.append((x, y))
        node.expand_mbr(x, y)
        for ancestor in path:
            ancestor.expand_mbr(x, y)
        self.pager.write(node)
        self._n_points += 1
        if len(node.points) > self.block_capacity:
            self._split_leaf(node, path)

    def _split_leaf(self, leaf: RTreeNode, path: list[RTreeNode]) -> None:
        points = np.asarray(leaf.points, dtype=float)
        spread = points.max(axis=0) - points.min(axis=0)
        dimension = int(np.argmax(spread))
        order = np.argsort(points[:, dimension], kind="stable")
        middle = points.shape[0] // 2
        first = RTreeNode.leaf_from_points(points[order[:middle]])
        second = RTreeNode.leaf_from_points(points[order[middle:]])
        self._replace_child(leaf, [first, second], path)

    def _replace_child(
        self, old: RTreeNode, replacements: list[RTreeNode], path: list[RTreeNode]
    ) -> None:
        if not path:
            self.root = RTreeNode.internal_from_children(replacements)
            return
        parent = path[-1]
        parent.children.remove(old)
        parent.children.extend(replacements)
        parent.recompute_mbr()
        if len(parent.children) > self.fanout:
            children = sorted(
                parent.children, key=lambda child: child.mbr.center[0] if child.mbr else 0.0
            )
            middle = len(children) // 2
            first = RTreeNode.internal_from_children(children[:middle])
            second = RTreeNode.internal_from_children(children[middle:])
            self.pager.retire(parent)
            self._replace_child(parent, [first, second], path[:-1])

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
                total += self.block_capacity * 16 + 40
            else:
                total += len(node.children) * 40 + 40
                stack.extend(node.children)
        # two auxiliary rank-space B-trees over x and y (8-byte keys + pointers)
        total += 2 * self._n_points * 16
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

    @property
    def n_leaves(self) -> int:
        if self.root is None:
            return 0
        return sum(1 for _ in rtree_iter_leaves(self.root))


def _enlargement(mbr: Optional[Rect], x: float, y: float) -> float:
    """Area enlargement needed for ``mbr`` to cover the point (math.inf when absent)."""
    if mbr is None:
        return math.inf
    return mbr.expand_to_point(x, y).area - mbr.area
