"""Shared machinery for the update-handling experiments (Figures 17–19).

The protocol follows the paper (Section 6.2.5): every index is initialised
with the default data set, then batches of new points (drawn from the same
distribution) are inserted until 10 %–50 % of the original cardinality has
been added.  After each batch the insertion cost and the query performance of
the updated index are measured.  The RSMIr variant (periodic rebuild) is
included for the insertion experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.interface import SpatialIndex
from repro.core import PeriodicRebuilder, RSMI, RSMIConfig
from repro.datasets import dataset_by_name
from repro.evaluation.runner import (
    QueryMetrics,
    measure_insertions,
    measure_knn_queries,
    measure_point_queries,
    measure_window_queries,
)
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import execution_mode, make_points, make_suite
from repro.nn import TrainingConfig
from repro.queries import generate_knn_queries, generate_point_queries, generate_window_queries

__all__ = ["UpdateSweepStep", "run_update_sweep"]


@dataclass
class UpdateSweepStep:
    """Measurements for one index after one cumulative insertion fraction."""

    fraction: float
    index_name: str
    insertion: QueryMetrics
    query: QueryMetrics


def _make_rsmir(points: np.ndarray, profile: ScaleProfile) -> PeriodicRebuilder:
    """The RSMIr variant: an RSMI whose inserts go through a PeriodicRebuilder."""
    config = RSMIConfig(
        block_capacity=profile.block_capacity,
        partition_threshold=profile.partition_threshold,
        training=TrainingConfig(epochs=profile.training_epochs, seed=profile.seed),
        seed=profile.seed,
    )
    return PeriodicRebuilder(RSMI(config).build(points), rebuild_fraction=0.10)


def run_update_sweep(
    profile: ScaleProfile,
    query_kind: str,
    include_rsmir: bool = False,
) -> list[UpdateSweepStep]:
    """Insert increasing fractions of new points and measure ``query_kind``.

    ``query_kind`` is one of ``"point"``, ``"window"`` or ``"knn"``.
    """
    if query_kind not in ("point", "window", "knn"):
        raise ValueError(f"unknown query kind: {query_kind!r}")

    points = make_points(profile)
    n = points.shape[0]
    max_fraction = max(profile.update_fractions)
    new_points = dataset_by_name(
        profile.default_distribution, int(np.ceil(max_fraction * n)), seed=profile.seed + 99
    )

    indices, _ = make_suite(points, profile)
    # what each index's batches are inserted through (RSMIr: its rebuilder)
    writers: dict = dict(indices)
    if include_rsmir:
        writers["RSMIr"] = _make_rsmir(points, profile)
        indices = {**indices, "RSMIr": writers["RSMIr"].index}

    steps: list[UpdateSweepStep] = []
    inserted_so_far = 0
    current_points = points
    for fraction in sorted(profile.update_fractions):
        target = int(round(fraction * n))
        batch = new_points[inserted_so_far:target]
        inserted_so_far = target
        current_points = np.vstack([current_points, batch]) if batch.shape[0] else current_points

        # RSMI and RSMIa are two query modes over one shared structure (one
        # attribute dict); insert each batch only once per structure so it
        # does not receive duplicate points.
        inserted_structures: dict[int, QueryMetrics] = {}
        for name, index in indices.items():
            structure_id = id(vars(index))
            if batch.shape[0] == 0:
                insertion_metrics = QueryMetrics(
                    avg_time_ms=0.0, avg_block_accesses=0.0, n_queries=0
                )
            elif structure_id in inserted_structures:
                insertion_metrics = inserted_structures[structure_id]
            else:
                insertion_metrics = measure_insertions(writers[name], batch)
                inserted_structures[structure_id] = insertion_metrics
            query_metrics = _measure_queries(
                index, query_kind, current_points, profile
            )
            steps.append(
                UpdateSweepStep(
                    fraction=fraction,
                    index_name=name,
                    insertion=insertion_metrics,
                    query=query_metrics,
                )
            )
    return steps


def _measure_queries(
    index: SpatialIndex,
    query_kind: str,
    current_points: np.ndarray,
    profile: ScaleProfile,
) -> QueryMetrics:
    execution = execution_mode(profile)
    if query_kind == "point":
        queries = generate_point_queries(
            current_points, profile.n_point_queries, seed=profile.seed + 11
        )
        return measure_point_queries(index, queries, execution=execution)
    if query_kind == "window":
        windows = generate_window_queries(
            current_points,
            profile.n_window_queries,
            area_fraction=profile.default_window_area,
            seed=profile.seed + 23,
        )
        return measure_window_queries(index, windows, current_points, execution=execution)
    queries = generate_knn_queries(current_points, profile.n_knn_queries, seed=profile.seed + 37)
    return measure_knn_queries(index, queries, profile.default_k, current_points, execution=execution)
