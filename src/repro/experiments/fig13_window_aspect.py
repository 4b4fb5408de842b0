"""Figure 13 — window query cost and recall vs. query window aspect ratio.

The aspect ratio (0.25–4.0, constant area) has little impact on the averaged
costs because the query set follows the data distribution; RSMI remains the
fastest structure across ratios.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_window_workload

HEADER = ["aspect_ratio", "index", "query_time_ms", "block_accesses", "recall"]


@register_experiment(
    "fig13",
    "Window query cost and recall vs. window aspect ratio",
    "Figure 13",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    points = make_points(profile)
    indices, _ = make_suite(points, profile)
    rows: list[list] = []
    for aspect_ratio in profile.aspect_ratios:
        metrics = run_window_workload(indices, points, profile, aspect_ratio=aspect_ratio)
        for name in profile.index_names:
            rows.append(
                [
                    aspect_ratio,
                    name,
                    metrics[name].avg_time_ms,
                    metrics[name].avg_block_accesses,
                    metrics[name].recall,
                ]
            )

    return ExperimentResult(
        experiment_id="fig13",
        title="Window query cost and recall vs. window aspect ratio",
        paper_reference="Figure 13",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={points.shape[0]}, "
            f"window area fraction={profile.default_window_area}",
            "expected shape: aspect ratio has a small effect; RSMI remains fastest with "
            "high recall",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
