"""Figure 12 — window query cost and recall vs. query window size.

The paper varies the window area from 0.0006 % to 0.16 % of the data space;
larger windows contain more result points and cost more for every index, while
RSMI stays fastest with recall above ~0.9.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_window_workload

HEADER = ["window_area_fraction", "index", "query_time_ms", "block_accesses", "recall"]


@register_experiment(
    "fig12",
    "Window query cost and recall vs. query window size",
    "Figure 12",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    points = make_points(profile)
    indices, _ = make_suite(points, profile)
    rows: list[list] = []
    for area_fraction in profile.window_area_fractions:
        metrics = run_window_workload(indices, points, profile, area_fraction=area_fraction)
        for name in profile.index_names:
            rows.append(
                [
                    area_fraction,
                    name,
                    metrics[name].avg_time_ms,
                    metrics[name].avg_block_accesses,
                    metrics[name].recall,
                ]
            )

    return ExperimentResult(
        experiment_id="fig12",
        title="Window query cost and recall vs. query window size",
        paper_reference="Figure 12",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={points.shape[0]}, "
            f"distribution={profile.default_distribution}",
            "expected shape: cost grows with window size for every index; RSMI fastest, "
            "recall stays high",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
