"""Figure 8 — point query cost vs. data set size (Skewed data).

Query time and block accesses grow (slowly) with the data-set size for every
index; RSMI stays lowest throughout, demonstrating scalability.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_point_workload

HEADER = ["n_points", "index", "query_time_us", "block_accesses"]

POINT_QUERY_INDICES = ("Grid", "HRR", "KDB", "RR*", "RSMI", "ZM")


@register_experiment(
    "fig8",
    "Point query cost vs. data set size",
    "Figure 8",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    index_names = tuple(n for n in profile.index_names if n in POINT_QUERY_INDICES)
    rows: list[list] = []
    for n_points in profile.size_sweep:
        points = make_points(profile, n_points=n_points)
        indices, _ = make_suite(points, profile, index_names=index_names)
        metrics = run_point_workload(indices, points, profile)
        for name in index_names:
            rows.append(
                [n_points, name, metrics[name].avg_time_us, metrics[name].avg_block_accesses]
            )

    return ExperimentResult(
        experiment_id="fig8",
        title="Point query cost vs. data set size",
        paper_reference="Figure 8",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, distribution={profile.default_distribution}, "
            f"B={profile.block_capacity}",
            "expected shape: costs grow with n; RSMI lowest across sizes",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
