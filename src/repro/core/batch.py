"""Batch query helpers.

The query algorithms of the paper are defined per query; applications such as
map tile rendering or analytics jobs issue them in large batches.  These
helpers run whole workloads against one index and collect the results (and,
optionally, the per-batch block-access totals) in a single call.  They work
with any object exposing the RSMI query interface and with the baseline
indices through the evaluation adapters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry import Rect

__all__ = [
    "BatchResult",
    "contains_callable",
    "batch_point_queries",
    "batch_window_queries",
    "batch_knn_queries",
    "latency_from_durations",
    "latency_uniform",
]


def latency_from_durations(durations):
    """Per-query latency summary of one batch (None for empty batches).

    The summariser lives in :mod:`repro.workloads.latency` and is imported
    lazily: ``repro.workloads`` imports the engines, which import this
    module, so a module-level import would be circular.  Both the
    single-index and the sharded batch engine resolve through here.
    """
    if durations is None or len(durations) == 0:
        return None
    from repro.workloads.latency import summarize_durations

    return summarize_durations(durations)


def latency_uniform(elapsed: float, count: int):
    """O(1) summary attributing one batch's wall time uniformly per query."""
    if count <= 0:
        return None
    from repro.workloads.latency import LatencySummary

    return LatencySummary.uniform(elapsed, count)


def contains_callable(index):
    """The boolean point-membership callable of ``index``.

    RSMI and the baselines expose ``contains``; the evaluation adapters answer
    the same question through ``point_query`` (which returns a bool).  Both
    the sequential batch helpers and the batched query engine resolve through
    here so the two paths cannot drift.
    """
    return getattr(index, "contains", None) or index.point_query


@dataclass
class BatchResult:
    """Results of one sequential reference batch (the helpers below).

    The engines return :class:`~repro.analytics.ops.QueryResult`; these
    per-query loops are what their answers and block reads are checked
    against.
    """

    #: one entry per query, in input order
    results: list = field(default_factory=list)
    #: total logical block/node reads accumulated while serving the batch
    #: (None when the index keeps no access stats)
    total_block_accesses: int | None = None

    @property
    def n_queries(self) -> int:
        return len(self.results)

    @property
    def avg_block_accesses(self) -> float | None:
        if self.total_block_accesses is None or not self.results:
            return None
        return self.total_block_accesses / len(self.results)


def _stats_of(index) -> object | None:
    return getattr(index, "stats", None)


def batch_point_queries(index, points: np.ndarray) -> BatchResult:
    """Run a point query for every row of ``points``; results are booleans."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    stats = _stats_of(index)
    if stats is not None:
        stats.reset()
    contains = contains_callable(index)
    found = [bool(contains(float(x), float(y))) for x, y in points]
    total = stats.total_reads if stats is not None else None
    return BatchResult(results=found, total_block_accesses=total)


def batch_window_queries(index, windows: Sequence[Rect], exact: bool = False) -> BatchResult:
    """Run every window query; each result is an ``(m, 2)`` array of points.

    ``exact=True`` uses the RSMIa traversal when the index provides
    ``window_query_exact`` (it falls back to the approximate algorithm
    otherwise).
    """
    stats = _stats_of(index)
    if stats is not None:
        stats.reset()
    results = []
    for window in windows:
        if exact and hasattr(index, "window_query_exact"):
            answer = index.window_query_exact(window)
        else:
            answer = index.window_query(window)
        results.append(answer.points if hasattr(answer, "points") else answer)
    total = stats.total_reads if stats is not None else None
    return BatchResult(results=results, total_block_accesses=total)


def batch_knn_queries(
    index, queries: np.ndarray, k: int, exact: bool = False
) -> BatchResult:
    """Run a kNN query for every row of ``queries``; each result is a point array."""
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    stats = _stats_of(index)
    if stats is not None:
        stats.reset()
    results = []
    for x, y in queries:
        if exact and hasattr(index, "knn_query_exact"):
            answer = index.knn_query_exact(float(x), float(y), k)
        else:
            answer = index.knn_query(float(x), float(y), k)
        results.append(answer.points if hasattr(answer, "points") else answer)
    total = stats.total_reads if stats is not None else None
    return BatchResult(results=results, total_block_accesses=total)
