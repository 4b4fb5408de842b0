"""Figure 6 — point query cost vs. data distribution.

For each of the five data distributions the paper reports the average point
query response time (Fig. 6a) and number of block accesses (Fig. 6b) of all
six index structures.  The expected shape: RSMI achieves the lowest (or
near-lowest) time and far fewer block accesses than Grid and ZM; Grid is
competitive on uniform data only.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import make_points, make_suite, run_point_workload

HEADER = ["distribution", "index", "query_time_us", "block_accesses"]

#: RSMIa answers point queries identically to RSMI, so Figure 6 omits it.
POINT_QUERY_INDICES = ("Grid", "HRR", "KDB", "RR*", "RSMI", "ZM")


@register_experiment(
    "fig6",
    "Point query cost vs. data distribution",
    "Figure 6",
)
def run(profile: ScaleProfile) -> ExperimentResult:
    index_names = tuple(n for n in profile.index_names if n in POINT_QUERY_INDICES)
    rows: list[list] = []
    for distribution in profile.distributions:
        points = make_points(profile, distribution=distribution)
        indices, _ = make_suite(points, profile, distribution=distribution, index_names=index_names)
        metrics = run_point_workload(indices, points, profile)
        for name in index_names:
            rows.append(
                [
                    distribution,
                    name,
                    metrics[name].avg_time_us,
                    metrics[name].avg_block_accesses,
                ]
            )

    return ExperimentResult(
        experiment_id="fig6",
        title="Point query cost vs. data distribution",
        paper_reference="Figure 6",
        header=HEADER,
        rows=rows,
        notes=[
            f"profile={profile.name}, n={profile.n_points}, B={profile.block_capacity}",
            "expected shape: RSMI has the fewest block accesses on skewed/real-like data; "
            "Grid is only competitive on uniform data",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.experiments.profiles import profile_by_name

    print(run(profile_by_name("tiny")).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
