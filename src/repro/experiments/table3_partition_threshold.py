"""Table 3 — impact of the RSMI partition threshold ``N``.

The paper varies ``N`` from 2 500 to 40 000 and reports construction time,
index height, index size, average point-query block accesses and point-query
time.  Larger ``N`` gives fewer, larger leaf models: faster construction and
a smaller structure, but less accurate leaf predictions (more block accesses).
"""

from __future__ import annotations

import time

from repro.core import RSMI, RSMIConfig
from repro.evaluation.runner import measure_point_queries
from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import execution_mode, make_points
from repro.nn import TrainingConfig
from repro.queries import generate_point_queries

HEADER = [
    "N",
    "construction_time_s",
    "height",
    "index_size_mb",
    "point_query_block_accesses",
    "point_query_time_us",
]


@register_experiment(
    "table3",
    "Impact of the RSMI partition threshold N",
    "Table 3",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    points = make_points(profile)
    queries = generate_point_queries(points, profile.n_point_queries, seed=profile.seed + 11)
    training = TrainingConfig(epochs=profile.training_epochs, seed=profile.seed)

    rows: list[list] = []
    for threshold in profile.threshold_sweep:
        config = RSMIConfig(
            block_capacity=profile.block_capacity,
            partition_threshold=max(threshold, profile.block_capacity),
            training=training,
            seed=profile.seed,
        )
        start = time.perf_counter()
        index = RSMI(config).build(points)
        build_time = time.perf_counter() - start

        metrics = measure_point_queries(index, queries, execution=execution_mode(profile))
        rows.append(
            [
                threshold,
                build_time,
                index.height,
                index.size_bytes() / (1024 * 1024),
                metrics.avg_block_accesses,
                metrics.avg_time_us,
            ]
        )

    return ExperimentResult(
        experiment_id="table3",
        title="Impact of the RSMI partition threshold N",
        paper_reference="Table 3",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={points.shape[0]}, B={profile.block_capacity}, "
            f"distribution={profile.default_distribution}",
            "expected shape: construction time / height / size fall as N grows, "
            "block accesses rise, query time has a minimum at an intermediate N",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
