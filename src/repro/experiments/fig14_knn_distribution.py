"""Figure 14 — kNN query cost and recall vs. data distribution.

RSMI (with its expansion-based approximate algorithm) is the fastest; the
tree indices use the exact best-first algorithm; ZM reuses RSMI's expansion
strategy but pays for its weaker window queries.  RSMI recall stays above
~0.9.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_knn_workload

HEADER = ["distribution", "index", "query_time_ms", "block_accesses", "recall"]


@register_experiment(
    "fig14",
    "kNN query cost and recall vs. data distribution",
    "Figure 14",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    rows: list[list] = []
    for distribution in profile.distributions:
        points = make_points(profile, distribution=distribution)
        indices, _ = make_suite(points, profile, distribution=distribution)
        metrics = run_knn_workload(indices, points, profile)
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
        experiment_id="fig14",
        title="kNN query cost and recall vs. data distribution",
        paper_reference="Figure 14",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={profile.n_points}, k={profile.default_k}",
            "expected shape: RSMI fastest with recall >~0.9; exact indices have recall 1.0",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
