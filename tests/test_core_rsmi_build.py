"""Tests of the RSMI build process and structural accounting (Sections 3.1-3.2)."""

import numpy as np
import pytest

from repro.core import RSMI, RSMIConfig
from repro.core.leaf_model import LeafModel
from repro.core.rsmi import InternalNode
from repro.nn import TrainingConfig


class TestBuildStructure:
    def test_unbuilt_index_raises(self):
        index = RSMI()
        with pytest.raises(RuntimeError):
            _ = index.height
        with pytest.raises(RuntimeError):
            index.point_query(0.5, 0.5)

    def test_build_empty_raises(self):
        with pytest.raises(ValueError):
            RSMI().build(np.empty((0, 2)))

    def test_build_bad_shape_raises(self):
        with pytest.raises(ValueError):
            RSMI().build(np.zeros((10, 3)))

    def test_small_dataset_builds_single_leaf(self, small_rsmi_config):
        points = np.random.default_rng(0).random((100, 2))
        index = RSMI(small_rsmi_config).build(points)
        assert isinstance(index.root, LeafModel)
        assert index.height == 1
        assert index.n_models == 1

    def test_large_dataset_builds_recursive_structure(self, built_rsmi):
        assert isinstance(built_rsmi.root, InternalNode)
        assert built_rsmi.height >= 2
        assert built_rsmi.n_models > 1

    def test_all_points_stored(self, built_rsmi, skewed_points):
        assert built_rsmi.n_points == skewed_points.shape[0]
        assert built_rsmi.store.n_points == skewed_points.shape[0]
        stored = built_rsmi.store.all_points()
        assert np.allclose(np.sort(stored, axis=0), np.sort(skewed_points, axis=0))

    def test_every_leaf_within_partition_threshold_or_fallback(self, built_rsmi, small_rsmi_config):
        for leaf in built_rsmi.iter_leaves():
            # leaves normally respect N; the fallback for collapsed partitions may
            # exceed it but never the whole data set
            assert leaf.n_points <= built_rsmi.n_points

    def test_block_positions_are_contiguous_across_leaves(self, built_rsmi):
        leaves = sorted(built_rsmi.iter_leaves(), key=lambda leaf: leaf.first_position)
        expected_next = 0
        for leaf in leaves:
            assert leaf.first_position == expected_next
            expected_next = leaf.last_position + 1
        assert expected_next == built_rsmi.store.n_base_blocks

    def test_mbr_covers_data(self, built_rsmi, skewed_points):
        space = built_rsmi.data_space()
        assert np.all(space.contains_points(skewed_points))

    def test_size_and_error_bounds(self, built_rsmi):
        assert built_rsmi.size_bytes() > 0
        err_below, err_above = built_rsmi.error_bounds()
        assert err_below >= 0 and err_above >= 0

    def test_average_depth_between_one_and_height(self, built_rsmi):
        depth = built_rsmi.average_depth()
        assert 1.0 <= depth <= built_rsmi.height + 1e-9

    def test_deterministic_rebuild_same_seed(self, small_rsmi_config):
        points = np.random.default_rng(5).random((600, 2))
        first = RSMI(small_rsmi_config).build(points)
        second = RSMI(small_rsmi_config).build(points)
        assert first.height == second.height
        assert first.n_models == second.n_models
        assert first.error_bounds() == second.error_bounds()

    def test_max_height_forces_leaf(self):
        config = RSMIConfig(
            block_capacity=10,
            partition_threshold=10,
            training=TrainingConfig(epochs=10),
            max_height=2,
        )
        points = np.random.default_rng(6).random((500, 2))
        index = RSMI(config).build(points)
        assert index.height <= 2

    def test_rebuild_preserves_points(self, small_rsmi_config):
        points = np.random.default_rng(7).random((500, 2))
        index = RSMI(small_rsmi_config).build(points)
        index.insert(0.5, 0.123456)
        index.rebuild()
        assert index.n_points == 501
        assert index.contains(0.5, 0.123456)
        assert index.store.n_overflow_blocks == 0  # rebuilt cleanly


class TestRoutingConsistency:
    def test_route_to_leaf_matches_build_assignment(self, built_rsmi, skewed_points):
        """Every indexed point routes to a leaf whose block range contains it."""
        rng = np.random.default_rng(8)
        sample = skewed_points[rng.choice(len(skewed_points), 100, replace=False)]
        for x, y in sample:
            leaf, depth, path = built_rsmi.route_to_leaf(float(x), float(y))
            assert depth == len(path) + 1
            begin, end = leaf.scan_range(leaf.predict_position(float(x), float(y)))
            assert leaf.first_position <= begin <= end <= leaf.last_position

    def test_routing_total_for_any_query_point(self, built_rsmi):
        """Routing never fails, even for points far outside the data space."""
        for x, y in [(-1.0, -1.0), (2.0, 2.0), (0.0, 1.0), (1.0, 0.0)]:
            leaf, _, _ = built_rsmi.route_to_leaf(x, y)
            assert leaf.is_leaf
