"""The Recursive Spatial Model Index (RSMI) and its exact-query kind RSMIa.

This module implements the index structure of Sections 3.1–3.2 of the paper
and its point query (Algorithm 1), together with the exact window and kNN
traversals that use the per-sub-model MBRs.  The approximate window and kNN
algorithms (Algorithms 2 and 3) live in :mod:`repro.core.window` and
:mod:`repro.core.knn`; update handling lives in :mod:`repro.core.updates`.

Both :class:`RSMI` and :class:`RSMIa` are
:class:`~repro.baselines.interface.SpatialIndex` kinds: their
``window_query``/``knn_query`` return plain ``(m, 2)`` arrays.  The
record-returning algorithms (:meth:`RSMI.point_query`,
:meth:`RSMI.window_query_exact`, :meth:`RSMI.knn_query_exact`, and the
module-level ``window_query``/``knn_query``) stay available for callers that
read ``blocks_scanned`` or ``expansions``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Optional

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.core.config import RSMIConfig
from repro.core.leaf_model import LeafModel
from repro.core.partitioning import LearnedPartitioning, build_partitioning
from repro.core.pmf import PiecewiseMappingFunction
from repro.core.results import KNNQueryResult, PointQueryResult, WindowQueryResult
from repro.geometry import Rect, euclidean, mindist_point_rect, union_rects
from repro.storage import AccessStats, BlockStore

__all__ = ["RSMI", "RSMIa", "InternalNode"]


class InternalNode:
    """An internal RSMI sub-model: a learned partitioning plus its children."""

    is_leaf = False

    def __init__(self, partitioning: LearnedPartitioning, level: int):
        self.partitioning = partitioning
        self.level = int(level)
        #: predicted cell value -> child node (LeafModel or InternalNode)
        self.children: dict[int, object] = {}
        self.mbr: Optional[Rect] = None
        self._sorted_keys: list[int] = []

    def finalize(self) -> None:
        """Compute the MBR and the sorted key list once all children exist."""
        child_mbrs = [child.mbr for child in self.children.values() if child.mbr is not None]
        self.mbr = union_rects(child_mbrs) if child_mbrs else None
        self._sorted_keys = sorted(self.children)

    def route(self, x: float, y: float) -> tuple[int, object]:
        """Child responsible for ``(x, y)``.

        The child for the predicted cell is returned when it exists; otherwise
        the child with the nearest cell value is used.  Points seen at build
        time always route to an existing child (they were grouped by the same
        predictions), so the fallback only affects previously unseen points
        (new insertions and query corner points) and keeps routing total.
        """
        predicted = self.partitioning.predict_cell(x, y)
        child = self.children.get(predicted)
        if child is not None:
            return predicted, child
        nearest = min(self._sorted_keys, key=lambda key: abs(key - predicted))
        return nearest, self.children[nearest]

    def size_bytes(self) -> int:
        return self.partitioning.size_bytes() + 16 * len(self.children)

    def n_models(self) -> int:
        return 1 + sum(child.n_models() for child in self.children.values())

    def height(self) -> int:
        return 1 + max(child.height() for child in self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InternalNode(level={self.level}, children={len(self.children)})"


class RSMI(SpatialIndex):
    """The Recursive Spatial Model Index.

    Typical usage::

        index = RSMI(RSMIConfig(block_capacity=50, partition_threshold=2000))
        index.build(points)                       # points: (n, 2) array
        index.contains(0.2, 0.7)                  # point query
        index.window_query(Rect(0.1, 0.1, 0.3, 0.3))   # (m, 2) array
        index.knn_query(0.5, 0.5, k=10)                 # (k, 2) array
        index.insert(0.42, 0.13)
        index.delete(0.42, 0.13)

    The index reports storage accesses through :attr:`stats`, which the
    experiment harness resets around each query batch.  The optional page
    cache sits in front of the data-block store only: the model hierarchy is
    the in-memory directory, so node reads stay physical.
    """

    name = "RSMI"
    #: Algorithms 2 and 3 are approximate: sound, but they may miss points
    supports_exact_results = False

    def __init__(
        self,
        config: Optional[RSMIConfig] = None,
        stats: Optional[AccessStats] = None,
        cache=None,
    ):
        super().__init__(stats, cache)
        self.config = config if config is not None else RSMIConfig()
        self.store = BlockStore(self.config.block_capacity, self.stats, cache=self.cache)
        self.root: Optional[object] = None
        self.pmf_x: Optional[PiecewiseMappingFunction] = None
        self.pmf_y: Optional[PiecewiseMappingFunction] = None
        self._n_points = 0

    # ------------------------------------------------------------------ build --

    def build(self, points: np.ndarray) -> "RSMI":
        """Bulk-build the index over ``points`` (an ``(n, 2)`` array)."""
        points = self._validate_points(points)
        if self.cache is not None:
            # a fresh store reuses block ids 0..N: resident pages from the
            # old store would alias them and produce phantom hits
            self.cache.clear()
        self.store = BlockStore(self.config.block_capacity, self.stats, cache=self.cache)
        rng = np.random.default_rng(self.config.seed)
        self.root = self._build_node(points, level=0, rng=rng)
        self.pmf_x = PiecewiseMappingFunction(points[:, 0], self.config.pmf_partitions)
        self.pmf_y = PiecewiseMappingFunction(points[:, 1], self.config.pmf_partitions)
        self._n_points = points.shape[0]
        return self

    def rebuild(self) -> "RSMI":
        """Rebuild the whole structure from the currently stored live points.

        Used by the RSMIr variant (periodic rebuilds after insertions,
        Section 6.2.5) and after heavy update workloads.
        """
        points = self.store.all_points()
        return self.build(points)

    def _build_node(self, points: np.ndarray, level: int, rng: np.random.Generator):
        at_max_height = level >= self.config.max_height - 1
        if points.shape[0] <= self.config.partition_threshold or at_max_height:
            return LeafModel.build(points, self.store, self.config, rng, level)

        partitioning, groups = build_partitioning(points, self.config, rng)
        if len(groups) <= 1:
            # the partitioning model collapsed every point into one group;
            # recursing would never terminate, so fall back to a (large) leaf
            return LeafModel.build(points, self.store, self.config, rng, level)

        node = InternalNode(partitioning, level)
        for cell in sorted(groups):
            child_points = points[groups[cell]]
            node.children[cell] = self._build_node(child_points, level + 1, rng)
        node.finalize()
        return node

    def _require_built(self) -> None:
        if self.root is None:
            raise RuntimeError("index has not been built yet")

    # ------------------------------------------------------------------ routing --

    def route_to_leaf(self, x: float, y: float) -> tuple[LeafModel, int, list[object]]:
        """Descend from the root to the leaf model responsible for ``(x, y)``.

        Returns the leaf, the number of sub-models invoked (depth) and the
        list of internal nodes on the path (used by update handling to expand
        MBRs).
        """
        self._require_built()
        node = self.root
        depth = 0
        path: list[object] = []
        while not node.is_leaf:
            path.append(node)
            depth += 1
            _, node = node.route(x, y)
        depth += 1  # the leaf model invocation
        return node, depth, path

    # ------------------------------------------------------------------ queries --

    def point_query(self, x: float, y: float) -> PointQueryResult:
        """Algorithm 1: locate the stored point with coordinates ``(x, y)``.

        Blocks in the error range are examined from the predicted position
        outwards, so the expected number of block accesses stays close to one
        when the leaf model is accurate.  Every chain in the range is read
        until the point is found; a chain whose block MBR excludes the point
        is read whole with :meth:`BlockStore.touch_chain`, without comparing
        against its points, and a chain that may hold it is walked block by
        block and left at the block that does.
        """
        leaf, depth, _ = self.route_to_leaf(x, y)
        predicted = leaf.predict_position(x, y)
        begin, end = leaf.scan_range(predicted)
        blocks_scanned = 0
        for position in _outward_positions(predicted, begin, end):
            if not leaf.may_hold(position, x, y):
                # the same reads as walking the chain to its end
                blocks_scanned += len(self.store.touch_chain(position))
                continue
            for block in self.store.iter_chain(position):
                blocks_scanned += 1
                if block.contains(x, y):
                    return PointQueryResult(
                        found=True,
                        block_id=block.block_id,
                        position=position,
                        predicted_position=predicted,
                        depth=depth,
                        blocks_scanned=blocks_scanned,
                        scan_begin=begin,
                        scan_end=end,
                    )
        return PointQueryResult(
            found=False,
            predicted_position=predicted,
            depth=depth,
            blocks_scanned=blocks_scanned,
            scan_begin=begin,
            scan_end=end,
        )

    def contains(self, x: float, y: float) -> bool:
        """True when a point with exactly these coordinates is stored."""
        return self.point_query(x, y).found

    def window_query(self, window: Rect) -> np.ndarray:
        """Algorithm 2: approximate window query (no false positives)."""
        from repro.core.window import window_query as _window_query

        return _window_query(self, window).points

    def window_query_exact(self, window: Rect) -> WindowQueryResult:
        """RSMIa: exact window query via an R-tree-style MBR traversal."""
        self._require_built()
        collected: list[np.ndarray] = []
        blocks_scanned = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                self.stats.record_node_read()
                for offset, block_mbr in enumerate(node.block_mbrs):
                    if not window.intersects(block_mbr):
                        continue
                    position = node.first_position + offset
                    for block in self.store.iter_chain(position):
                        blocks_scanned += 1
                        points = block.points()
                        if points.shape[0] == 0:
                            continue
                        mask = window.contains_points(points)
                        if mask.any():
                            collected.append(points[mask])
                continue
            self.stats.record_node_read()
            for child in node.children.values():
                if child.mbr is not None and window.intersects(child.mbr):
                    stack.append(child)
        points = np.vstack(collected) if collected else np.empty((0, 2), dtype=float)
        return WindowQueryResult(points=points, blocks_scanned=blocks_scanned, exact=True)

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """Algorithm 3: approximate kNN query via search-region expansion."""
        from repro.core.knn import knn_query as _knn_query

        return _knn_query(self, x, y, k).points

    def knn_query_exact(self, x: float, y: float, k: int) -> KNNQueryResult:
        """RSMIa: exact kNN via best-first traversal of the MBR hierarchy."""
        self._require_built()
        if k < 1:
            raise ValueError("k must be >= 1")
        counter = itertools.count()
        heap: list[tuple[float, int, str, object]] = []
        heapq.heappush(heap, (0.0, next(counter), "node", self.root))
        results_points: list[tuple[float, float]] = []
        results_dists: list[float] = []
        blocks_scanned = 0

        while heap and len(results_points) < k:
            distance, _, kind, payload = heapq.heappop(heap)
            if kind == "point":
                px, py = payload
                results_points.append((px, py))
                results_dists.append(distance)
            elif kind == "block":
                position = payload
                for block in self.store.iter_chain(position):
                    blocks_scanned += 1
                    for px, py in block.iter_points():
                        d = euclidean(x, y, px, py)
                        heapq.heappush(heap, (d, next(counter), "point", (px, py)))
            else:  # internal or leaf node
                node = payload
                self.stats.record_node_read()
                if node.is_leaf:
                    for offset, block_mbr in enumerate(node.block_mbrs):
                        d = mindist_point_rect(x, y, block_mbr)
                        heapq.heappush(
                            heap, (d, next(counter), "block", node.first_position + offset)
                        )
                else:
                    for child in node.children.values():
                        if child.mbr is None:
                            continue
                        d = mindist_point_rect(x, y, child.mbr)
                        heapq.heappush(heap, (d, next(counter), "node", child))

        points = np.asarray(results_points, dtype=float).reshape(-1, 2)
        distances = np.asarray(results_dists, dtype=float)
        return KNNQueryResult(
            points=points, distances=distances, blocks_scanned=blocks_scanned, exact=True
        )

    # ------------------------------------------------------------------ updates --

    def _insert(self, x: float, y: float) -> None:
        """Insert a new point (paper Section 5)."""
        from repro.core.updates import insert_point

        insert_point(self, x, y)

    def _delete(self, x: float, y: float) -> bool:
        from repro.core.updates import delete_point

        return delete_point(self, x, y)

    # ------------------------------------------------------------------ caching --

    def attach_cache(self, cache) -> None:
        """Route all subsequent data-block reads through ``cache`` (None detaches)."""
        super().attach_cache(cache)
        self.store.attach_cache(cache)

    # ------------------------------------------------------------------ kinds --

    def exact_view(self) -> "RSMIa":
        """This structure as the :class:`RSMIa` kind.

        The view shares every attribute with this index (one attribute
        dict): models, blocks, stats and cache are the same objects, so an
        insert, delete, rebuild or cache attach through either is visible to
        both.  Only the window and kNN algorithms differ.
        """
        view = RSMIa.__new__(RSMIa)
        view.__dict__ = self.__dict__
        return view

    # ------------------------------------------------------------------ accounting --

    @property
    def n_points(self) -> int:
        """Number of live points currently stored."""
        return self._n_points

    @property
    def height(self) -> int:
        """Number of model levels (the paper's ``h``)."""
        self._require_built()
        return self.root.height()

    @property
    def n_models(self) -> int:
        """Total number of sub-models in the structure."""
        self._require_built()
        return self.root.n_models()

    def size_bytes(self) -> int:
        """Approximate index size: every sub-model plus the data blocks."""
        self._require_built()
        total = self.store.size_bytes()
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += node.size_bytes()
            if not node.is_leaf:
                stack.extend(node.children.values())
        return total

    def extra_metrics(self) -> dict:
        return {
            "height": self.height,
            "n_models": self.n_models,
            "error_bounds": self.error_bounds(),
        }

    def error_bounds(self) -> tuple[int, int]:
        """Maximum (err_below, err_above) over all leaf models (Table 4)."""
        self._require_built()
        err_below = 0
        err_above = 0
        for leaf in self.iter_leaves():
            err_below = max(err_below, leaf.err_below)
            err_above = max(err_above, leaf.err_above)
        return err_below, err_above

    def iter_leaves(self) -> Iterable[LeafModel]:
        """Iterate over every leaf model in the structure."""
        self._require_built()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children.values())

    def average_depth(self, sample: Optional[np.ndarray] = None) -> float:
        """Average number of sub-models invoked to reach a data block.

        When ``sample`` is None the stored points are used (every k-th
        one, about 2000 in all, when there are more), matching how the
        paper reports average depth over the indexed data.
        """
        self._require_built()
        if sample is None:
            sample = self.store.all_points()
            if sample.shape[0] > 2000:
                step = sample.shape[0] // 2000
                sample = sample[::step]
        depths = [self.route_to_leaf(float(px), float(py))[1] for px, py in np.asarray(sample)]
        return float(np.mean(depths)) if depths else 0.0

    def data_space(self) -> Rect:
        """MBR of the indexed data (root MBR)."""
        self._require_built()
        if self.root.mbr is None:
            raise RuntimeError("index has no MBR (empty structure)")
        return self.root.mbr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.root is None:
            return f"{self.name}(unbuilt)"
        return (
            f"{self.name}(points={self.n_points}, height={self.height}, "
            f"models={self.n_models}, blocks={self.store.n_blocks})"
        )


class RSMIa(RSMI):
    """RSMIa (paper Section 6.2.3): the RSMI structure answering window and
    kNN queries exactly, through the MBR traversals.

    Build one directly, or view a built RSMI as this kind with
    :meth:`RSMI.exact_view` (one structure, two query algorithms).
    """

    name = "RSMIa"
    supports_exact_results = True

    def window_query(self, window: Rect) -> np.ndarray:
        return self.window_query_exact(window).points

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        return self.knn_query_exact(x, y, k).points


def _outward_positions(predicted: int, begin: int, end: int) -> Iterable[int]:
    """Positions ``begin..end`` ordered by distance from ``predicted``."""
    predicted = max(begin, min(predicted, end))
    yield predicted
    step = 1
    while True:
        lower = predicted - step
        upper = predicted + step
        emitted = False
        if lower >= begin:
            yield lower
            emitted = True
        if upper <= end:
            yield upper
            emitted = True
        if not emitted:
            return
        step += 1
