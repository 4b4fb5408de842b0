"""Unit tests of the experiment sweep helpers (repro.experiments.sweeps / update_sweeps)."""

import numpy as np
import pytest

from repro.evaluation.runner import measure_deletions
from repro.experiments.profiles import profile_by_name
from repro.experiments.sweeps import (
    make_points,
    make_suite,
    run_knn_workload,
    run_point_workload,
    run_window_workload,
    suite_config,
)
from repro.experiments.update_sweeps import run_update_sweep


@pytest.fixture(scope="module")
def micro_profile():
    return profile_by_name("tiny").with_overrides(
        n_points=500,
        training_epochs=15,
        n_point_queries=30,
        n_window_queries=5,
        n_knn_queries=5,
        update_fractions=(0.1, 0.2),
        index_names=("Grid", "RSMI", "RSMIa"),
        distributions=("uniform",),
        default_distribution="uniform",
    )


class TestSweepHelpers:
    def test_make_points_defaults(self, micro_profile):
        points = make_points(micro_profile)
        assert points.shape == (500, 2)

    def test_make_points_overrides(self, micro_profile):
        points = make_points(micro_profile, distribution="skewed", n_points=123, seed=9)
        assert points.shape == (123, 2)

    def test_suite_config_translation(self, micro_profile):
        config = suite_config(micro_profile, partition_threshold=250)
        assert config.block_capacity == micro_profile.block_capacity
        assert config.partition_threshold == 250
        assert config.index_names == micro_profile.index_names

    def test_make_suite_and_workloads(self, micro_profile):
        points = make_points(micro_profile)
        indices, reports = make_suite(points, micro_profile)
        assert set(indices) == set(micro_profile.index_names)
        assert set(reports) == set(micro_profile.index_names)

        point_metrics = run_point_workload(indices, points, micro_profile)
        assert all(m.n_queries == 30 for m in point_metrics.values())

        window_metrics = run_window_workload(indices, points, micro_profile)
        assert window_metrics["RSMIa"].recall == 1.0

        knn_metrics = run_knn_workload(indices, points, micro_profile, k=3)
        assert knn_metrics["Grid"].recall == 1.0


class TestUpdateSweep:
    def test_unknown_query_kind(self, micro_profile):
        with pytest.raises(ValueError):
            run_update_sweep(micro_profile, query_kind="join")

    def test_point_sweep_structure(self, micro_profile):
        steps = run_update_sweep(micro_profile, query_kind="point", include_rsmir=True)
        names = {step.index_name for step in steps}
        assert names == {"Grid", "RSMI", "RSMIa", "RSMIr"}
        fractions = sorted({step.fraction for step in steps})
        assert fractions == [0.1, 0.2]
        # shared RSMI/RSMIa structure: their per-batch insertion metrics are identical
        for fraction in fractions:
            rsmi_step = next(
                s for s in steps if s.fraction == fraction and s.index_name == "RSMI"
            )
            rsmia_step = next(
                s for s in steps if s.fraction == fraction and s.index_name == "RSMIa"
            )
            assert rsmi_step.insertion.avg_time_ms == rsmia_step.insertion.avg_time_ms

    def test_window_sweep_exact_recall_after_insertions(self, micro_profile):
        steps = run_update_sweep(micro_profile, query_kind="window", include_rsmir=False)
        for step in steps:
            if step.index_name in ("Grid", "RSMIa"):
                assert step.query.recall == 1.0, step


class TestDeletionMeasurement:
    def test_measure_deletions(self, micro_profile):
        points = make_points(micro_profile)
        indices, _ = make_suite(points, micro_profile, index_names=("Grid",))
        metrics = measure_deletions(indices["Grid"], points[:20])
        assert metrics.n_queries == 20
        for x, y in points[:20]:
            assert not indices["Grid"].contains(float(x), float(y))


class TestAnalyticsSweep:
    def test_rows_verified_and_reduction_positive(self, micro_profile):
        from repro.experiments.analytics_sweeps import run_analytics_sweep

        result = run_analytics_sweep(micro_profile, index_names=("Grid", "RSMI"))
        assert result.column("verified") == ["yes"] * len(result.rows)
        ops = {row[1] for row in result.rows}
        assert ops == {"count", "sum", "mean", "quantile", "top-k"}
        assert all(r > 0 for r in result.column("read_reduction"))
        # exactness column follows the capability flag
        assert set(result.rows_where("index", "Grid")[0][6:7]) == {"exact"}
        assert set(result.rows_where("index", "RSMI")[0][6:7]) == {"sound"}

    def test_aggregate_ops_extra_restricts_operators(self, micro_profile):
        from repro.experiments.analytics_sweeps import run_analytics_sweep

        profile = micro_profile.with_overrides(
            extras={"aggregate_ops": ("count", "top-k")}
        )
        result = run_analytics_sweep(profile, index_names=("Grid",))
        assert {row[1] for row in result.rows} == {"count", "top-k"}

    def test_unknown_aggregate_op_raises(self, micro_profile):
        from repro.experiments.analytics_sweeps import run_analytics_sweep

        profile = micro_profile.with_overrides(extras={"aggregate_ops": ("median",)})
        with pytest.raises(ValueError):
            run_analytics_sweep(profile, index_names=("Grid",))

    def test_sharded_path(self, micro_profile):
        from repro.experiments.analytics_sweeps import run_analytics_sweep

        profile = micro_profile.with_overrides(
            extras={"shards": 2, "aggregate_ops": ("count", "quantile")}
        )
        result = run_analytics_sweep(profile, index_names=("Grid",))
        assert len(result.rows) == 2
        assert any("shards" in note for note in result.notes)


class TestRebuildPolicy:
    def test_policies_and_trajectory_shape(self, micro_profile):
        from repro.experiments.analytics_sweeps import (
            REBUILD_POLICY_NAMES,
            run_rebuild_policy,
        )

        profile = micro_profile.with_overrides(extras={"scenario_ops": 250})
        result = run_rebuild_policy(profile)
        assert set(result.column("policy")) == set(REBUILD_POLICY_NAMES)
        never = result.rows_where("policy", "never")
        assert len(never) >= 2  # a trajectory, not one row
        assert all(row[3] == 0 for row in never)  # never rebuilds
        triggered = result.rows_where("policy", "periodic")[-1][3] + \
            result.rows_where("policy", "chain-depth")[-1][3]
        assert triggered >= 1  # at least one policy actually retrained
        assert all(0.0 <= row[5] <= 1.0 for row in result.rows)
