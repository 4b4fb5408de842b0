"""Shared building blocks for the experiment modules.

Each experiment regenerates one paper table/figure by sweeping a parameter
(distribution, data-set size, window size, ...) and measuring one or more
query workloads over a suite of indices.  The helpers here implement the
common plumbing: generating the data, building the suite, and measuring the
three workload types with the profile's query counts.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.datasets import dataset_by_name
from repro.evaluation.runner import (
    BuildReport,
    QueryMetrics,
    SuiteConfig,
    build_suite_with_reports,
    measure_knn_queries,
    measure_point_queries,
    measure_window_queries,
)
from repro.experiments.profiles import ScaleProfile
from repro.queries import generate_knn_queries, generate_point_queries, generate_window_queries

__all__ = [
    "make_points",
    "suite_config",
    "make_suite",
    "execution_mode",
    "engine_mode",
    "run_point_workload",
    "run_window_workload",
    "run_knn_workload",
]


def execution_mode(profile: ScaleProfile, execution: Optional[str] = None) -> str:
    """Workload execution mode: an explicit override, or the profile's choice.

    Profiles opt into batched execution through their ``extras`` dict
    (``profile.with_overrides(extras={"execution": "batched"})``), which the
    CLI's ``--execution`` flag sets; the default stays the paper's
    per-query sequential protocol.
    """
    if execution is not None:
        return execution
    return profile.extras.get("execution", "sequential")


def engine_mode(profile: ScaleProfile) -> str:
    """The batch-engine mode implementing the profile's execution mode."""
    return {"sequential": "sequential", "batched": "auto"}[execution_mode(profile)]


def make_points(
    profile: ScaleProfile,
    distribution: Optional[str] = None,
    n_points: Optional[int] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Generate the data set for one sweep step."""
    distribution = distribution if distribution is not None else profile.default_distribution
    n_points = n_points if n_points is not None else profile.n_points
    seed = seed if seed is not None else profile.seed
    return dataset_by_name(distribution, n_points, seed=seed)


def suite_config(
    profile: ScaleProfile,
    distribution: Optional[str] = None,
    n_points: Optional[int] = None,
    partition_threshold: Optional[int] = None,
    index_names: Optional[Sequence[str]] = None,
) -> SuiteConfig:
    """Translate a profile (plus overrides) into a :class:`SuiteConfig`."""
    return SuiteConfig(
        n_points=n_points if n_points is not None else profile.n_points,
        distribution=distribution if distribution is not None else profile.default_distribution,
        block_capacity=profile.block_capacity,
        partition_threshold=(
            partition_threshold
            if partition_threshold is not None
            else profile.partition_threshold
        ),
        training_epochs=profile.training_epochs,
        n_point_queries=profile.n_point_queries,
        n_window_queries=profile.n_window_queries,
        n_knn_queries=profile.n_knn_queries,
        window_area_fraction=profile.default_window_area,
        window_aspect_ratio=1.0,
        k=profile.default_k,
        seed=profile.seed,
        index_names=tuple(index_names) if index_names is not None else profile.index_names,
    )


def make_suite(
    points: np.ndarray,
    profile: ScaleProfile,
    distribution: Optional[str] = None,
    partition_threshold: Optional[int] = None,
    index_names: Optional[Sequence[str]] = None,
) -> tuple[dict[str, SpatialIndex], dict[str, BuildReport]]:
    """Build the configured index suite over ``points``."""
    config = suite_config(
        profile,
        distribution=distribution,
        n_points=points.shape[0],
        partition_threshold=partition_threshold,
        index_names=index_names,
    )
    return build_suite_with_reports(points, config)


def run_point_workload(
    indices: dict[str, SpatialIndex],
    points: np.ndarray,
    profile: ScaleProfile,
    execution: Optional[str] = None,
) -> dict[str, QueryMetrics]:
    """Point-query metrics for every index in the suite."""
    queries = generate_point_queries(points, profile.n_point_queries, seed=profile.seed + 11)
    mode = execution_mode(profile, execution)
    return {
        name: measure_point_queries(index, queries, execution=mode)
        for name, index in indices.items()
    }


def run_window_workload(
    indices: dict[str, SpatialIndex],
    points: np.ndarray,
    profile: ScaleProfile,
    area_fraction: Optional[float] = None,
    aspect_ratio: float = 1.0,
    execution: Optional[str] = None,
) -> dict[str, QueryMetrics]:
    """Window-query metrics (time, block accesses, recall) for every index."""
    area = area_fraction if area_fraction is not None else profile.default_window_area
    windows = generate_window_queries(
        points,
        profile.n_window_queries,
        area_fraction=area,
        aspect_ratio=aspect_ratio,
        seed=profile.seed + 23,
    )
    mode = execution_mode(profile, execution)
    return {
        name: measure_window_queries(index, windows, points, execution=mode)
        for name, index in indices.items()
    }


def run_knn_workload(
    indices: dict[str, SpatialIndex],
    points: np.ndarray,
    profile: ScaleProfile,
    k: Optional[int] = None,
    execution: Optional[str] = None,
) -> dict[str, QueryMetrics]:
    """kNN metrics (time, block accesses, recall) for every index."""
    k = k if k is not None else profile.default_k
    queries = generate_knn_queries(points, profile.n_knn_queries, seed=profile.seed + 37)
    mode = execution_mode(profile, execution)
    return {
        name: measure_knn_queries(index, queries, k, points, execution=mode)
        for name, index in indices.items()
    }
