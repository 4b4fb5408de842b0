"""Measurement primitives used by every experiment.

All measurements follow the paper's protocol: a query workload is executed
against a built index, and the *average* response time and number of block
accesses per query are reported; window and kNN measurements additionally
report recall against brute-force ground truth (Section 6.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.analytics.ops import QueryRequest
from repro.baselines.interface import SpatialIndex
from repro.engine import BatchQueryEngine
from repro.evaluation.adapters import build_index_suite
from repro.evaluation.metrics import knn_recall, window_recall
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, brute_force_window

__all__ = [
    "SuiteConfig",
    "BuildReport",
    "QueryMetrics",
    "EXECUTION_MODES",
    "engine_for_execution",
    "build_suite_with_reports",
    "measure_point_queries",
    "measure_window_queries",
    "measure_knn_queries",
    "measure_insertions",
    "measure_deletions",
]

#: how a query workload is executed against an index
EXECUTION_MODES = ("sequential", "batched")


def engine_for_execution(index: SpatialIndex, execution: str) -> BatchQueryEngine:
    """A :class:`BatchQueryEngine` implementing a non-sequential execution mode."""
    if execution == "batched":
        return BatchQueryEngine(index, mode="auto")
    raise ValueError(f"unknown execution mode {execution!r}; available: {EXECUTION_MODES}")


@dataclass(frozen=True)
class SuiteConfig:
    """Scaled-down counterpart of the paper's experimental setup (Table 2).

    The paper uses ``B = 100``, ``N = 10 000`` and millions of points; the
    defaults here keep the same ratios at laptop scale while every field can
    be raised to the paper's values.
    """

    n_points: int = 20_000
    distribution: str = "skewed"
    block_capacity: int = 50
    partition_threshold: int = 2_000
    training_epochs: int = 60
    n_point_queries: int = 200
    n_window_queries: int = 30
    n_knn_queries: int = 30
    window_area_fraction: float = 0.0001
    window_aspect_ratio: float = 1.0
    k: int = 25
    seed: int = 0
    index_names: tuple[str, ...] = ("Grid", "HRR", "KDB", "RR*", "RSMI", "RSMIa", "ZM")

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(epochs=self.training_epochs, seed=self.seed)


@dataclass
class BuildReport:
    """Construction-time metrics of one index (Figures 7 and 9)."""

    name: str
    build_time_s: float
    size_bytes: int
    extras: dict = field(default_factory=dict)

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024 * 1024)


@dataclass
class QueryMetrics:
    """Average per-query metrics over one workload."""

    avg_time_ms: float
    avg_block_accesses: float
    recall: Optional[float] = None
    n_queries: int = 0

    @property
    def avg_time_us(self) -> float:
        return self.avg_time_ms * 1000.0


def build_suite_with_reports(
    points: np.ndarray, config: SuiteConfig
) -> tuple[dict[str, SpatialIndex], dict[str, BuildReport]]:
    """Build every configured index, timing construction and recording size.

    ``RSMI`` and ``RSMIa`` share one trained RSMI; both build reports carry
    its numbers (the paper treats them as one structure with two query modes).
    """
    indices: dict[str, SpatialIndex] = {}
    reports: dict[str, BuildReport] = {}
    training = config.training_config()
    rsmi = None
    rsmi_build_s = 0.0

    for name in config.index_names:
        start = time.perf_counter()
        built = "RSMI" if name == "RSMIa" else name  # RSMIa views the RSMI build
        if built == "RSMI" and rsmi is not None:
            index, elapsed = rsmi, rsmi_build_s
        else:
            index = build_index_suite(
                points,
                index_names=[built],
                block_capacity=config.block_capacity,
                partition_threshold=config.partition_threshold,
                training=training,
                seed=config.seed,
            )[built]
            elapsed = time.perf_counter() - start
            if built == "RSMI":
                rsmi, rsmi_build_s = index, elapsed
        if name == "RSMIa":
            index = index.exact_view()
        indices[name] = index
        reports[name] = BuildReport(
            name=name,
            build_time_s=elapsed,
            size_bytes=index.size_bytes(),
            extras=index.extra_metrics(),
        )
    return indices, reports


def measure_point_queries(
    index: SpatialIndex, queries: np.ndarray, execution: str = "sequential"
) -> QueryMetrics:
    """Average response time and block accesses of exact-match point queries."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    n = max(queries.shape[0], 1)
    if execution != "sequential":
        engine = engine_for_execution(index, execution)
        start = time.perf_counter()
        result = engine.execute(QueryRequest.for_points(queries))
        elapsed = time.perf_counter() - start
        return QueryMetrics(
            avg_time_ms=elapsed / n * 1000.0,
            avg_block_accesses=(result.access.logical_reads or 0) / n,
            n_queries=queries.shape[0],
        )
    index.stats.reset()
    start = time.perf_counter()
    for x, y in queries:
        index.contains(float(x), float(y))
    elapsed = time.perf_counter() - start
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=index.stats.total_reads / n,
        n_queries=queries.shape[0],
    )


def measure_window_queries(
    index: SpatialIndex,
    windows: Sequence[Rect],
    data_points: np.ndarray,
    execution: str = "sequential",
) -> QueryMetrics:
    """Average time, block accesses and recall of window queries."""
    n = max(len(windows), 1)
    if execution != "sequential":
        engine = engine_for_execution(index, execution)
        start = time.perf_counter()
        result = engine.execute(QueryRequest.for_windows(windows))
        elapsed = time.perf_counter() - start
        recalls = [
            window_recall(reported, brute_force_window(data_points, window))
            for window, reported in zip(windows, result.values)
        ]
        return QueryMetrics(
            avg_time_ms=elapsed / n * 1000.0,
            avg_block_accesses=(result.access.logical_reads or 0) / n,
            recall=float(np.mean(recalls)) if recalls else None,
            n_queries=len(windows),
        )
    index.stats.reset()
    recalls = []
    elapsed = 0.0
    for window in windows:
        start = time.perf_counter()
        reported = index.window_query(window)
        elapsed += time.perf_counter() - start
        truth = brute_force_window(data_points, window)
        recalls.append(window_recall(reported, truth))
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=index.stats.total_reads / n,
        recall=float(np.mean(recalls)) if recalls else None,
        n_queries=len(windows),
    )


def measure_knn_queries(
    index: SpatialIndex,
    queries: np.ndarray,
    k: int,
    data_points: np.ndarray,
    execution: str = "sequential",
) -> QueryMetrics:
    """Average time, block accesses and recall of kNN queries."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    if execution != "sequential":
        n = max(queries.shape[0], 1)
        engine = engine_for_execution(index, execution)
        start = time.perf_counter()
        result = engine.execute(QueryRequest.for_knn(queries, k))
        elapsed = time.perf_counter() - start
        recalls = [
            knn_recall(reported, brute_force_knn(data_points, float(x), float(y), k))
            for (x, y), reported in zip(queries, result.values)
        ]
        return QueryMetrics(
            avg_time_ms=elapsed / n * 1000.0,
            avg_block_accesses=(result.access.logical_reads or 0) / n,
            recall=float(np.mean(recalls)) if recalls else None,
            n_queries=queries.shape[0],
        )
    index.stats.reset()
    recalls: list[float] = []
    elapsed = 0.0
    for x, y in queries:
        start = time.perf_counter()
        reported = index.knn_query(float(x), float(y), k)
        elapsed += time.perf_counter() - start
        truth = brute_force_knn(data_points, float(x), float(y), k)
        recalls.append(knn_recall(reported, truth))
    n = max(queries.shape[0], 1)
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=index.stats.total_reads / n,
        recall=float(np.mean(recalls)) if recalls else None,
        n_queries=queries.shape[0],
    )


def measure_insertions(index: SpatialIndex, new_points: np.ndarray) -> QueryMetrics:
    """Average per-insertion time over ``new_points`` (Figure 17a)."""
    new_points = np.asarray(new_points, dtype=float).reshape(-1, 2)
    index.stats.reset()
    start = time.perf_counter()
    for x, y in new_points:
        index.insert(float(x), float(y))
    elapsed = time.perf_counter() - start
    n = max(new_points.shape[0], 1)
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=index.stats.total_reads / n,
        n_queries=new_points.shape[0],
    )


def measure_deletions(index: SpatialIndex, points: np.ndarray) -> QueryMetrics:
    """Average per-deletion time over ``points``."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    index.stats.reset()
    start = time.perf_counter()
    for x, y in points:
        index.delete(float(x), float(y))
    elapsed = time.perf_counter() - start
    n = max(points.shape[0], 1)
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=index.stats.total_reads / n,
        n_queries=points.shape[0],
    )
