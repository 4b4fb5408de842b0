"""Unit tests for the RSMI leaf models (paper Section 3.1)."""

import numpy as np
import pytest

from repro.core import RSMIConfig
from repro.core.leaf_model import LeafModel
from repro.core.partitioning import LearnedPartitioning
from repro.nn import MinMaxScaler, TrainingConfig
from repro.storage import BlockStore


@pytest.fixture(scope="module")
def leaf_config():
    return RSMIConfig(
        block_capacity=10, partition_threshold=500, training=TrainingConfig(epochs=40)
    )


@pytest.fixture(scope="module")
def built_leaf(leaf_config):
    points = np.random.default_rng(0).random((300, 2))
    store = BlockStore(leaf_config.block_capacity)
    leaf = LeafModel.build(points, store, leaf_config, np.random.default_rng(0), level=0)
    return points, store, leaf


class TestLeafBuild:
    def test_blocks_packed(self, built_leaf, leaf_config):
        points, store, leaf = built_leaf
        expected_blocks = int(np.ceil(points.shape[0] / leaf_config.block_capacity))
        assert leaf.n_local_blocks == expected_blocks
        assert store.n_base_blocks == expected_blocks
        assert store.n_points == points.shape[0]

    def test_error_bounds_nonnegative_and_bounded(self, built_leaf):
        _, _, leaf = built_leaf
        assert leaf.err_below >= 0
        assert leaf.err_above >= 0
        assert leaf.err_below < leaf.n_local_blocks
        assert leaf.err_above < leaf.n_local_blocks

    def test_mbr_covers_all_points(self, built_leaf):
        points, _, leaf = built_leaf
        assert np.all(leaf.mbr.contains_points(points))

    def test_block_mbrs_one_per_block(self, built_leaf):
        _, _, leaf = built_leaf
        assert len(leaf.block_mbrs) == leaf.n_local_blocks

    def test_empty_partition_raises(self, leaf_config):
        store = BlockStore(leaf_config.block_capacity)
        with pytest.raises(ValueError):
            LeafModel.build(np.empty((0, 2)), store, leaf_config, np.random.default_rng(0), 0)

    def test_size_bytes_positive(self, built_leaf):
        _, _, leaf = built_leaf
        assert leaf.size_bytes() > 0
        assert leaf.n_models() == 1
        assert leaf.height() == 1


class TestLeafPrediction:
    def test_predictions_within_block_range(self, built_leaf):
        points, _, leaf = built_leaf
        for x, y in points[:50]:
            local = leaf.predict_local(float(x), float(y))
            assert 0 <= local < leaf.n_local_blocks
            position = leaf.predict_position(float(x), float(y))
            assert leaf.first_position <= position <= leaf.last_position

    def test_error_bounds_cover_every_build_point(self, built_leaf):
        """The invariant behind Algorithm 1's correctness: every indexed point's true
        block lies within [prediction - err_below, prediction + err_above]."""
        points, store, leaf = built_leaf
        for x, y in points:
            begin, end = leaf.scan_range(leaf.predict_position(float(x), float(y)))
            found = any(
                block.contains(float(x), float(y))
                for position in range(begin, end + 1)
                for block in [store.peek(store.base_block_id(position))]
            )
            assert found, f"point ({x}, {y}) not found in its error range"

    def test_scan_range_clamped_to_leaf(self, built_leaf):
        _, _, leaf = built_leaf
        begin, end = leaf.scan_range(leaf.predict_position(-5.0, 17.0))  # far outside the data
        assert begin >= leaf.first_position
        assert end <= leaf.last_position

    def test_single_block_leaf(self, leaf_config):
        """A partition smaller than one block trains a trivial single-block leaf."""
        points = np.random.default_rng(1).random((5, 2))
        store = BlockStore(leaf_config.block_capacity)
        leaf = LeafModel.build(points, store, leaf_config, np.random.default_rng(0), level=2)
        assert leaf.n_local_blocks == 1
        assert leaf.err_below == 0 and leaf.err_above == 0
        assert leaf.predict_position(0.5, 0.5) == leaf.first_position

    def test_second_leaf_gets_subsequent_positions(self, leaf_config):
        store = BlockStore(leaf_config.block_capacity)
        rng = np.random.default_rng(2)
        first = LeafModel.build(rng.random((25, 2)), store, leaf_config, rng, level=1)
        second = LeafModel.build(rng.random((25, 2)), store, leaf_config, rng, level=1)
        assert second.first_position == first.last_position + 1


class _ConstantModel:
    """A stand-in regressor that predicts one fixed raw value, in each form
    :class:`~repro.nn.MLPRegressor` answers: one row, a list of rows, an
    array."""

    def __init__(self, value: float):
        self.value = value

    def predict_one(self, features):
        return self.value

    def predict(self, features):
        if isinstance(features, list):
            return [self.value] * len(features)
        return np.full(len(features), self.value)

    predict_chunked = predict


@pytest.mark.parametrize(
    "value",
    # raw * 4 lands on ties (0.5, 1.5, 2.5, 3.5), below 0, above the last
    # block and on interior non-ties
    [0.125, 0.375, 0.625, 0.875, -0.3, -0.125, 1.7, 0.0, 1.0, 0.41, 0.6],
)
def test_scalar_prediction_rounds_and_clamps_like_the_batched_one(value):
    """The scalar clamp-then-round (half to even) equals np.rint + np.clip."""
    scaler = MinMaxScaler().fit(np.array([[0.0, 0.0], [1.0, 1.0]]))
    leaf = LeafModel(
        _ConstantModel(value), scaler, first_position=3, n_local_blocks=5,
        err_below=0, err_above=0, mbr=None, block_mbrs=[], n_points=1, level=0,
    )
    batched = int(leaf.predict_locals(np.array([[0.5, 0.5]]))[0])
    assert leaf.predict_local(0.5, 0.5) == batched
    assert type(leaf.predict_local(0.5, 0.5)) is int
    assert leaf.predict_positions([[0.5, 0.5]]) == [3 + batched]

    # a 3x3 grid scales by n_cells - 1 = 8, so value / 2 gives the same raw value
    partitioning = LearnedPartitioning(_ConstantModel(value / 2), scaler, 3, "hilbert")
    cell = int(partitioning.predict_cells(np.array([[0.5, 0.5]]))[0])
    assert partitioning.predict_cell(0.5, 0.5) == cell
    assert partitioning.predict_cells([[0.5, 0.5]]) == [cell]
