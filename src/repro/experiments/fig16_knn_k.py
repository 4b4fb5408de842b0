"""Figure 16 — kNN query cost and recall vs. k (1 to 625 in the paper)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_knn_workload

HEADER = ["k", "index", "query_time_ms", "block_accesses", "recall"]


@register_experiment(
    "fig16",
    "kNN query cost and recall vs. k",
    "Figure 16",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    points = make_points(profile)
    indices, _ = make_suite(points, profile)
    rows: list[list] = []
    for k in profile.k_values:
        metrics = run_knn_workload(indices, points, profile, k=k)
        for name in profile.index_names:
            rows.append(
                [
                    k,
                    name,
                    metrics[name].avg_time_ms,
                    metrics[name].avg_block_accesses,
                    metrics[name].recall,
                ]
            )

    return ExperimentResult(
        experiment_id="fig16",
        title="kNN query cost and recall vs. k",
        paper_reference="Figure 16",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={points.shape[0]}, "
            f"distribution={profile.default_distribution}",
            "expected shape: cost grows with k for every index; RSMI remains fastest with "
            "high recall across k",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
