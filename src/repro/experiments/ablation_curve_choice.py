"""Ablation — Hilbert-curve vs. Z-curve ordering inside RSMI.

The paper states (Section 6.1) that RSMI uses Hilbert curves "as these yield
better query performance than Z-curves".  This ablation builds RSMI with both
orderings on the same data and compares point/window query cost and recall,
validating the design choice called out in DESIGN.md.
"""

from __future__ import annotations

import time

from repro.core import RSMI, RSMIConfig
from repro.evaluation.runner import measure_point_queries, measure_window_queries
from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import execution_mode, make_points
from repro.nn import TrainingConfig
from repro.queries import generate_point_queries, generate_window_queries

HEADER = [
    "curve",
    "build_time_s",
    "err_l",
    "err_a",
    "point_query_block_accesses",
    "window_query_time_ms",
    "window_recall",
]


@register_experiment(
    "ablation-curve",
    "RSMI ordering curve: Hilbert vs. Z",
    "Section 6.1 (design choice)",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    points = make_points(profile)
    point_queries = generate_point_queries(points, profile.n_point_queries, seed=profile.seed + 11)
    windows = generate_window_queries(
        points,
        profile.n_window_queries,
        area_fraction=profile.default_window_area,
        seed=profile.seed + 23,
    )
    training = TrainingConfig(epochs=profile.training_epochs, seed=profile.seed)

    rows: list[list] = []
    for curve in ("hilbert", "z"):
        config = RSMIConfig(
            block_capacity=profile.block_capacity,
            partition_threshold=profile.partition_threshold,
            curve=curve,
            training=training,
            seed=profile.seed,
        )
        start = time.perf_counter()
        index = RSMI(config).build(points)
        build_time = time.perf_counter() - start
        execution = execution_mode(profile)
        point_metrics = measure_point_queries(index, point_queries, execution=execution)
        window_metrics = measure_window_queries(index, windows, points, execution=execution)
        err_below, err_above = index.error_bounds()
        rows.append(
            [
                curve,
                build_time,
                err_below,
                err_above,
                point_metrics.avg_block_accesses,
                window_metrics.avg_time_ms,
                window_metrics.recall,
            ]
        )

    return ExperimentResult(
        experiment_id="ablation-curve",
        title="RSMI ordering curve: Hilbert vs. Z",
        paper_reference="Section 6.1 (design choice)",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={points.shape[0]}, "
            f"distribution={profile.default_distribution}",
            "expected shape: both orderings work; Hilbert tends to give equal or better "
            "window query cost/recall (the paper's default)",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
