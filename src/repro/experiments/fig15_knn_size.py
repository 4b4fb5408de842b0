"""Figure 15 — kNN query cost and recall vs. data set size (Skewed data)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_knn_workload

HEADER = ["n_points", "index", "query_time_ms", "block_accesses", "recall"]


@register_experiment(
    "fig15",
    "kNN query cost and recall vs. data set size",
    "Figure 15",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    rows: list[list] = []
    for n_points in profile.size_sweep:
        points = make_points(profile, n_points=n_points)
        indices, _ = make_suite(points, profile)
        metrics = run_knn_workload(indices, points, profile)
        for name in profile.index_names:
            rows.append(
                [
                    n_points,
                    name,
                    metrics[name].avg_time_ms,
                    metrics[name].avg_block_accesses,
                    metrics[name].recall,
                ]
            )

    return ExperimentResult(
        experiment_id="fig15",
        title="kNN query cost and recall vs. data set size",
        paper_reference="Figure 15",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, distribution={profile.default_distribution}, "
            f"k={profile.default_k}",
            "expected shape: query times grow with n; RSMI fastest; recall decreases only "
            "slightly with n",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
