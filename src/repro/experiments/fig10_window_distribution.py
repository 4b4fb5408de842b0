"""Figure 10 — window query cost and recall vs. data distribution.

All seven structures are compared (including RSMIa, the exact-answer variant
of RSMI).  Expected shape: RSMI fastest on non-uniform data (Grid slightly
ahead on uniform data), RSMIa exact with tree-like cost, RSMI recall above
roughly 0.9, ZM slightly more accurate but much slower.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_window_workload

HEADER = ["distribution", "index", "query_time_ms", "block_accesses", "recall"]


@register_experiment(
    "fig10",
    "Window query cost and recall vs. data distribution",
    "Figure 10",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    rows: list[list] = []
    for distribution in profile.distributions:
        points = make_points(profile, distribution=distribution)
        indices, _ = make_suite(points, profile, distribution=distribution)
        metrics = run_window_workload(indices, points, profile)
        for name in profile.index_names:
            rows.append(
                [
                    distribution,
                    name,
                    metrics[name].avg_time_ms,
                    metrics[name].avg_block_accesses,
                    metrics[name].recall,
                ]
            )

    return ExperimentResult(
        experiment_id="fig10",
        title="Window query cost and recall vs. data distribution",
        paper_reference="Figure 10",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={profile.n_points}, "
            f"window area fraction={profile.default_window_area}",
            "expected shape: RSMI fastest on non-uniform data with recall >~0.87; "
            "exact indices (Grid/HRR/KDB/RR*/RSMIa) have recall 1.0",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
