"""Sequential reference loops the engines are checked against.

The query algorithms of the paper are defined per query.  These helpers run
a whole workload one query at a time against one
:class:`~repro.baselines.interface.SpatialIndex` and collect the results and
the batch's block-access total, which is what the batched engines' answers
and reads are compared with.  Passing an :class:`~repro.core.rsmi.RSMIa`
selects the exact window/kNN algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.results import PointQueryResult
from repro.core.rsmi import _outward_positions
from repro.core.window import window_corner_points
from repro.geometry import Rect

__all__ = [
    "BatchResult",
    "batch_point_queries",
    "batch_window_queries",
    "batch_knn_queries",
    "ungated_point_query",
    "ungated_window_block_range",
]


@dataclass
class BatchResult:
    """Results of one sequential reference batch (the helpers below)."""

    #: one entry per query, in input order
    results: list = field(default_factory=list)
    #: total logical block/node reads accumulated while serving the batch
    total_block_accesses: int | None = None

    @property
    def n_queries(self) -> int:
        return len(self.results)

    @property
    def avg_block_accesses(self) -> float | None:
        if self.total_block_accesses is None or not self.results:
            return None
        return self.total_block_accesses / len(self.results)


def batch_point_queries(index, points: np.ndarray) -> BatchResult:
    """Run a point query for every row of ``points``; results are booleans."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    index.stats.reset()
    found = [bool(index.contains(float(x), float(y))) for x, y in points]
    return BatchResult(results=found, total_block_accesses=index.stats.total_reads)


def batch_window_queries(index, windows: Sequence[Rect]) -> BatchResult:
    """Run every window query; each result is an ``(m, 2)`` array of points."""
    index.stats.reset()
    results = [index.window_query(window) for window in windows]
    return BatchResult(results=results, total_block_accesses=index.stats.total_reads)


def batch_knn_queries(index, queries: np.ndarray, k: int) -> BatchResult:
    """Run a kNN query for every row of ``queries``; each result is a point array."""
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    index.stats.reset()
    results = [index.knn_query(float(x), float(y), k) for x, y in queries]
    return BatchResult(results=results, total_block_accesses=index.stats.total_reads)


def ungated_point_query(index, x: float, y: float) -> PointQueryResult:
    """Algorithm 1 on an RSMI, comparing ``(x, y)`` against every block of
    every chain it reads until the point is found."""
    leaf, depth, _ = index.route_to_leaf(x, y)
    predicted = leaf.predict_position(x, y)
    begin = max(leaf.first_position, predicted - leaf.err_below)
    end = min(leaf.last_position, predicted + leaf.err_above)
    blocks_scanned = 0
    for position in _outward_positions(predicted, begin, end):
        for block in index.store.iter_chain(position):
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


def ungated_window_block_range(index, window: Rect) -> tuple[int, int]:
    """The corner-bounded block range of Algorithm 2, each corner located
    by :func:`ungated_point_query`."""
    lower, upper = [], []
    for cx, cy in window_corner_points(window, index.config.curve):
        result = ungated_point_query(index, cx, cy)
        if result.found:
            lower.append(result.position)
            upper.append(result.position)
        else:
            lower.append(result.scan_begin)
            upper.append(result.scan_end)
    begin = index.store.clamp_position(min(lower))
    end = index.store.clamp_position(max(upper))
    return (end, begin) if begin > end else (begin, end)
