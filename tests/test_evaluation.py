"""Tests of the evaluation harness: metrics, index suite, runner and reporting."""

import numpy as np
import pytest

from repro.evaluation import (
    build_index_suite,
    format_table,
    knn_recall,
    window_recall,
)
from repro.baselines import GridFile
from repro.baselines.interface import SpatialIndex
from repro.core import RSMI, RSMIa
from repro.evaluation.adapters import INDEX_NAMES
from repro.evaluation.runner import (
    SuiteConfig,
    build_suite_with_reports,
    measure_insertions,
    measure_knn_queries,
    measure_point_queries,
    measure_window_queries,
)
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import generate_window_queries


class TestMetrics:
    def test_window_recall_perfect(self):
        points = np.array([[0.1, 0.1], [0.2, 0.2]])
        assert window_recall(points, points) == 1.0

    def test_window_recall_partial(self):
        truth = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]])
        reported = truth[:2]
        assert window_recall(reported, truth) == 0.5

    def test_window_recall_empty_truth(self):
        assert window_recall(np.empty((0, 2)), np.empty((0, 2))) == 1.0

    def test_knn_recall(self):
        truth = np.array([[0.1, 0.1], [0.2, 0.2]])
        reported = np.array([[0.2, 0.2], [0.9, 0.9]])
        assert knn_recall(reported, truth) == 0.5


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.34567], ["xy", None]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "| a " in lines[1]
        assert "2.346" in text
        assert "-" in text  # missing value rendered as dash

    def test_format_value_ranges(self):
        from repro.evaluation.reporting import format_value

        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(1234.5) == "1,234"  # large values get thousands separators
        assert format_value(0.000001) == "1.00e-06"
        assert format_value("text") == "text"


@pytest.fixture(scope="module")
def tiny_suite(uniform_points):
    config = SuiteConfig(
        n_points=uniform_points.shape[0],
        distribution="uniform",
        block_capacity=20,
        partition_threshold=400,
        training_epochs=20,
        n_point_queries=30,
        n_window_queries=5,
        n_knn_queries=5,
        index_names=("Grid", "KDB", "RSMI", "RSMIa"),
    )
    indices, reports = build_suite_with_reports(uniform_points, config)
    return indices, reports, config


class TestIndexSuite:
    def test_index_names_constant(self):
        assert set(INDEX_NAMES) == {"Grid", "HRR", "KDB", "RR*", "RSMI", "RSMIa", "ZM"}

    def test_unknown_index_name_raises(self, uniform_points):
        with pytest.raises(ValueError):
            build_index_suite(uniform_points, index_names=["Quadtree"])

    def test_rsmi_and_rsmia_share_structure(self, uniform_points):
        indices = build_index_suite(
            uniform_points,
            index_names=["RSMI", "RSMIa"],
            block_capacity=20,
            partition_threshold=400,
            training=TrainingConfig(epochs=15),
        )
        assert indices["RSMI"].store is indices["RSMIa"].store
        assert type(indices["RSMI"]) is RSMI
        assert type(indices["RSMIa"]) is RSMIa
        # one structure: a write through either kind is visible to both
        indices["RSMIa"].insert(0.123454321, 0.567898765)
        assert indices["RSMI"].contains(0.123454321, 0.567898765)
        assert indices["RSMI"].n_points == indices["RSMIa"].n_points

    def test_suite_with_reports_trains_one_rsmi(self, uniform_points, monkeypatch):
        builds = []
        original = RSMI.build

        def counting_build(self, points):
            builds.append(type(self))
            return original(self, points)

        monkeypatch.setattr(RSMI, "build", counting_build)
        config = SuiteConfig(
            n_points=uniform_points.shape[0],
            block_capacity=20,
            partition_threshold=400,
            training_epochs=10,
            index_names=("RSMI", "RSMIa"),
        )
        indices, reports = build_suite_with_reports(uniform_points, config)
        assert builds == [RSMI]
        assert indices["RSMI"].store is indices["RSMIa"].store
        assert isinstance(indices["RSMIa"], RSMIa)

    def test_suite_reports(self, tiny_suite):
        indices, reports, config = tiny_suite
        assert set(indices) == set(config.index_names)
        for name in config.index_names:
            assert reports[name].build_time_s >= 0
            assert reports[name].size_bytes > 0
        # RSMIa reuses the RSMI build, so its build time is reported identically
        assert reports["RSMIa"].build_time_s == reports["RSMI"].build_time_s

    def test_every_kind_contains_its_points(self, tiny_suite, uniform_points):
        indices, _, _ = tiny_suite
        x, y = map(float, uniform_points[0])
        for index in indices.values():
            assert index.contains(x, y)

    def test_extra_metrics(self, tiny_suite):
        indices, reports, _ = tiny_suite
        extras = indices["RSMI"].extra_metrics()
        assert "height" in extras and "error_bounds" in extras and "n_models" in extras
        assert indices["KDB"].extra_metrics() == {"height": indices["KDB"].height}
        assert indices["Grid"].extra_metrics() == {}
        assert reports["RSMIa"].extras == extras

    def test_suite_returns_the_built_indices(self, uniform_points):
        grid = build_index_suite(uniform_points, index_names=["Grid"], block_capacity=20)["Grid"]
        assert isinstance(grid, GridFile) and isinstance(grid, SpatialIndex)
        assert grid.name == "Grid"
        assert grid.n_points == uniform_points.shape[0]


class TestMeasurements:
    def test_point_query_metrics(self, tiny_suite, uniform_points):
        indices, _, _ = tiny_suite
        metrics = measure_point_queries(indices["Grid"], uniform_points[:40])
        assert metrics.n_queries == 40
        assert metrics.avg_time_ms > 0
        assert metrics.avg_block_accesses >= 1
        assert metrics.avg_time_us == pytest.approx(metrics.avg_time_ms * 1000)

    def test_window_query_metrics_recall(self, tiny_suite, uniform_points):
        indices, _, _ = tiny_suite
        windows = generate_window_queries(uniform_points, 5, area_fraction=0.01, seed=1)
        exact = measure_window_queries(indices["KDB"], windows, uniform_points)
        assert exact.recall == 1.0
        approx = measure_window_queries(indices["RSMI"], windows, uniform_points)
        assert 0.0 <= approx.recall <= 1.0

    def test_knn_query_metrics(self, tiny_suite, uniform_points):
        indices, _, _ = tiny_suite
        queries = uniform_points[:5]
        metrics = measure_knn_queries(indices["RSMIa"], queries, 5, uniform_points)
        assert metrics.recall == 1.0

    def test_insertion_metrics(self, uniform_points):
        indices = build_index_suite(
            uniform_points,
            index_names=["Grid"],
            block_capacity=20,
        )
        new_points = np.random.default_rng(0).random((20, 2))
        metrics = measure_insertions(indices["Grid"], new_points)
        assert metrics.n_queries == 20
        assert indices["Grid"].contains(*map(float, new_points[0]))


class TestSuiteConfig:
    def test_training_config(self):
        config = SuiteConfig(training_epochs=33, seed=5)
        training = config.training_config()
        assert training.epochs == 33
        assert training.seed == 5
