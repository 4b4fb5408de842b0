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

from repro.geometry import Rect

__all__ = [
    "BatchResult",
    "batch_point_queries",
    "batch_window_queries",
    "batch_knn_queries",
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
