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
from repro.engine import BatchQueryEngine
from repro.evaluation.adapters import IndexAdapter, build_index_suite
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


def engine_for_execution(adapter: IndexAdapter, execution: str) -> BatchQueryEngine:
    """A :class:`BatchQueryEngine` implementing a non-sequential execution mode."""
    if execution == "batched":
        return BatchQueryEngine(adapter, mode="auto")
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
) -> tuple[dict[str, IndexAdapter], dict[str, BuildReport]]:
    """Build every configured index, timing construction and recording size.

    ``RSMIa`` shares the RSMI build; its build report reuses the RSMI numbers
    (the paper treats them as one structure with two query modes).
    """
    adapters: dict[str, IndexAdapter] = {}
    reports: dict[str, BuildReport] = {}
    training = config.training_config()

    for name in config.index_names:
        start = time.perf_counter()
        built = build_index_suite(
            points,
            index_names=[name],
            block_capacity=config.block_capacity,
            partition_threshold=config.partition_threshold,
            training=training,
            seed=config.seed,
        )
        elapsed = time.perf_counter() - start
        adapter = built[name]
        if name == "RSMIa" and "RSMI" in adapters:
            # reuse the already-built RSMI structure instead of re-training
            adapter = type(adapter)(adapters["RSMI"].wrapped)  # type: ignore[attr-defined]
            elapsed = reports["RSMI"].build_time_s
        adapters[name] = adapter
        reports[name] = BuildReport(
            name=name,
            build_time_s=elapsed,
            size_bytes=adapter.size_bytes(),
            extras=adapter.extra_metrics(),
        )
    return adapters, reports


def measure_point_queries(
    adapter: IndexAdapter, queries: np.ndarray, execution: str = "sequential"
) -> QueryMetrics:
    """Average response time and block accesses of exact-match point queries."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    n = max(queries.shape[0], 1)
    if execution != "sequential":
        engine = engine_for_execution(adapter, execution)
        start = time.perf_counter()
        result = engine.execute(QueryRequest.for_points(queries))
        elapsed = time.perf_counter() - start
        return QueryMetrics(
            avg_time_ms=elapsed / n * 1000.0,
            avg_block_accesses=(result.access.logical_reads or 0) / n,
            n_queries=queries.shape[0],
        )
    adapter.stats.reset()
    start = time.perf_counter()
    for x, y in queries:
        adapter.point_query(float(x), float(y))
    elapsed = time.perf_counter() - start
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=adapter.stats.total_reads / n,
        n_queries=queries.shape[0],
    )


def measure_window_queries(
    adapter: IndexAdapter,
    windows: Sequence[Rect],
    data_points: np.ndarray,
    execution: str = "sequential",
) -> QueryMetrics:
    """Average time, block accesses and recall of window queries."""
    n = max(len(windows), 1)
    if execution != "sequential":
        engine = engine_for_execution(adapter, execution)
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
    adapter.stats.reset()
    recalls = []
    elapsed = 0.0
    for window in windows:
        start = time.perf_counter()
        reported = adapter.window_query(window)
        elapsed += time.perf_counter() - start
        truth = brute_force_window(data_points, window)
        recalls.append(window_recall(reported, truth))
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=adapter.stats.total_reads / n,
        recall=float(np.mean(recalls)) if recalls else None,
        n_queries=len(windows),
    )


def measure_knn_queries(
    adapter: IndexAdapter,
    queries: np.ndarray,
    k: int,
    data_points: np.ndarray,
    execution: str = "sequential",
) -> QueryMetrics:
    """Average time, block accesses and recall of kNN queries."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    if execution != "sequential":
        n = max(queries.shape[0], 1)
        engine = engine_for_execution(adapter, execution)
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
    adapter.stats.reset()
    recalls: list[float] = []
    elapsed = 0.0
    for x, y in queries:
        start = time.perf_counter()
        reported = adapter.knn_query(float(x), float(y), k)
        elapsed += time.perf_counter() - start
        truth = brute_force_knn(data_points, float(x), float(y), k)
        recalls.append(knn_recall(reported, truth))
    n = max(queries.shape[0], 1)
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=adapter.stats.total_reads / n,
        recall=float(np.mean(recalls)) if recalls else None,
        n_queries=queries.shape[0],
    )


def measure_insertions(adapter: IndexAdapter, new_points: np.ndarray) -> QueryMetrics:
    """Average per-insertion time over ``new_points`` (Figure 17a)."""
    new_points = np.asarray(new_points, dtype=float).reshape(-1, 2)
    adapter.stats.reset()
    start = time.perf_counter()
    for x, y in new_points:
        adapter.insert(float(x), float(y))
    elapsed = time.perf_counter() - start
    n = max(new_points.shape[0], 1)
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=adapter.stats.total_reads / n,
        n_queries=new_points.shape[0],
    )


def measure_deletions(adapter: IndexAdapter, points: np.ndarray) -> QueryMetrics:
    """Average per-deletion time over ``points``."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    adapter.stats.reset()
    start = time.perf_counter()
    for x, y in points:
        adapter.delete(float(x), float(y))
    elapsed = time.perf_counter() - start
    n = max(points.shape[0], 1)
    return QueryMetrics(
        avg_time_ms=elapsed / n * 1000.0,
        avg_block_accesses=adapter.stats.total_reads / n,
        n_queries=points.shape[0],
    )
