"""Tests of RSMI update handling (paper Section 5) and the RSMIr rebuild policy."""

import numpy as np
import pytest

from repro.core import PeriodicRebuilder, RSMI, RSMIConfig
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, brute_force_window


@pytest.fixture()
def mutable_rsmi(skewed_points, small_rsmi_config):
    """A fresh RSMI per test so mutations do not leak between tests."""
    return RSMI(small_rsmi_config).build(skewed_points)


class TestInsertions:
    def test_inserted_point_is_found_by_point_query(self, mutable_rsmi):
        mutable_rsmi.insert(0.345678, 0.0123)
        assert mutable_rsmi.contains(0.345678, 0.0123)
        assert mutable_rsmi.n_points == 1_201

    def test_many_insertions_all_found(self, mutable_rsmi):
        rng = np.random.default_rng(1)
        new_points = rng.random((150, 2))
        for x, y in new_points:
            mutable_rsmi.insert(float(x), float(y))
        for x, y in new_points:
            assert mutable_rsmi.contains(float(x), float(y))

    def test_insertions_do_not_break_existing_points(self, mutable_rsmi, skewed_points):
        rng = np.random.default_rng(2)
        for x, y in rng.random((100, 2)):
            mutable_rsmi.insert(float(x), float(y))
        for x, y in skewed_points[:200]:
            assert mutable_rsmi.contains(float(x), float(y))

    def test_overflow_blocks_created_when_needed(self, mutable_rsmi):
        """Inserting many points into the same dense region must spill into
        overflow blocks rather than violating block capacity."""
        before = mutable_rsmi.store.n_overflow_blocks
        for i in range(200):
            mutable_rsmi.insert(0.3 + i * 1e-6, 0.01 + i * 1e-6)
        assert mutable_rsmi.store.n_overflow_blocks > before

    def test_error_bounds_unchanged_by_insertions(self, mutable_rsmi):
        before = mutable_rsmi.error_bounds()
        for i in range(50):
            mutable_rsmi.insert(0.1 + i * 1e-5, 0.2)
        assert mutable_rsmi.error_bounds() == before

    def test_inserted_points_visible_to_exact_window_query(self, mutable_rsmi):
        """MBR expansion along the insertion path keeps RSMIa exact."""
        mutable_rsmi.insert(0.777, 0.888)  # far in the sparse region
        result = mutable_rsmi.window_query_exact(Rect(0.77, 0.88, 0.78, 0.89))
        assert [0.777, 0.888] in np.round(result.points, 12).tolist()

    def test_inserted_points_visible_to_approximate_window_query(self, mutable_rsmi):
        mutable_rsmi.insert(0.42, 0.0456)
        result = mutable_rsmi.window_query(Rect(0.41, 0.04, 0.43, 0.05))
        assert [0.42, 0.0456] in np.round(result, 12).tolist()

    def test_inserted_points_found_by_exact_knn(self, mutable_rsmi):
        mutable_rsmi.insert(0.9123, 0.9456)
        result = mutable_rsmi.knn_query_exact(0.9123, 0.9456, 1)
        assert result.distances[0] <= 1e-9


class TestDeletions:
    def test_delete_existing_point(self, mutable_rsmi, skewed_points):
        x, y = map(float, skewed_points[42])
        assert mutable_rsmi.delete(x, y)
        assert not mutable_rsmi.contains(x, y)
        assert mutable_rsmi.n_points == 1_199

    def test_delete_missing_point_returns_false(self, mutable_rsmi):
        assert not mutable_rsmi.delete(0.55555, 0.66666)
        assert mutable_rsmi.n_points == 1_200

    def test_delete_then_reinsert(self, mutable_rsmi, skewed_points):
        x, y = map(float, skewed_points[7])
        mutable_rsmi.delete(x, y)
        mutable_rsmi.insert(x, y)
        assert mutable_rsmi.contains(x, y)

    def test_deleted_point_not_in_window_results(self, mutable_rsmi, skewed_points):
        x, y = map(float, skewed_points[3])
        mutable_rsmi.delete(x, y)
        window = Rect(x - 0.01, y - 0.01, x + 0.01, y + 0.01)
        exact = mutable_rsmi.window_query_exact(window)
        assert [round(x, 12), round(y, 12)] not in np.round(exact.points, 12).tolist()

    def test_delete_all_points_in_a_region(self, mutable_rsmi, skewed_points):
        window = Rect(0.0, 0.0, 0.2, 0.02)
        victims = brute_force_window(skewed_points, window)
        for x, y in victims:
            assert mutable_rsmi.delete(float(x), float(y))
        assert mutable_rsmi.window_query_exact(window).count == 0


class TestUpdateEdgeCases:
    def test_delete_nonexistent_point_changes_nothing(self, mutable_rsmi):
        """A miss must not decrement counters or mark anything deleted."""
        before_points = mutable_rsmi.n_points
        before_overflow = mutable_rsmi.store.n_overflow_blocks
        for _ in range(3):
            assert not mutable_rsmi.delete(0.987654, 0.123456)
        assert mutable_rsmi.n_points == before_points
        assert mutable_rsmi.store.n_overflow_blocks == before_overflow

    def test_double_delete_returns_false_second_time(self, mutable_rsmi, skewed_points):
        x, y = map(float, skewed_points[21])
        assert mutable_rsmi.delete(x, y)
        assert not mutable_rsmi.delete(x, y)
        assert mutable_rsmi.n_points == 1_199

    def test_delete_then_reinsert_restores_all_query_paths(
        self, mutable_rsmi, skewed_points
    ):
        """The reinserted point must be visible to every query algorithm."""
        x, y = map(float, skewed_points[33])
        assert mutable_rsmi.delete(x, y)
        assert not mutable_rsmi.contains(x, y)
        mutable_rsmi.insert(x, y)
        assert mutable_rsmi.contains(x, y)
        assert mutable_rsmi.n_points == 1_200
        window = Rect(x - 0.005, y - 0.005, x + 0.005, y + 0.005).clip_to(Rect.unit())
        assert [round(x, 12), round(y, 12)] in np.round(
            mutable_rsmi.window_query_exact(window).points, 12
        ).tolist()
        assert mutable_rsmi.knn_query_exact(x, y, 1).distances[0] <= 1e-9

    def test_delete_reinsert_cycle_does_not_leak_slots(self, mutable_rsmi, skewed_points):
        """Repeated delete/reinsert of one point must reuse slots, not grow
        the store without bound."""
        x, y = map(float, skewed_points[55])
        mutable_rsmi.delete(x, y)
        mutable_rsmi.insert(x, y)
        baseline_blocks = mutable_rsmi.store.n_blocks
        for _ in range(25):
            assert mutable_rsmi.delete(x, y)
            mutable_rsmi.insert(x, y)
        assert mutable_rsmi.contains(x, y)
        # after the first cycle settles the chain, further cycles are stable
        assert mutable_rsmi.store.n_blocks == baseline_blocks

    def test_insert_into_full_overflow_chain_grows_tail_only(self, mutable_rsmi):
        """Chain-growth invariant: inserting into one saturated region fills
        the chain front-to-back, extends it only at the tail, and never
        disturbs base-block positions."""
        x, y = 0.3123, 0.0177
        leaf, _, _ = mutable_rsmi.route_to_leaf(x, y)
        position = mutable_rsmi.store.clamp_position(leaf.predict_position(x, y))
        base_blocks_before = mutable_rsmi.store.n_base_blocks
        base_order_before = [
            mutable_rsmi.store.base_block_id(p) for p in range(base_blocks_before)
        ]

        capacity = mutable_rsmi.config.block_capacity
        inserted = []
        for i in range(4 * capacity):
            point = (x + i * 1e-7, y + i * 1e-7)
            mutable_rsmi.insert(*point)
            inserted.append(point)

        chain = list(mutable_rsmi.store.iter_chain(position))
        assert len(chain) >= 3, "expected the chain to have grown overflow blocks"
        assert chain[0].is_overflow is False
        assert all(block.is_overflow for block in chain[1:])
        # every block except the tail is full: insertions never skip a gap
        assert all(block.is_full for block in chain[:-1])
        # the base-block order is untouched, so learned positions stay valid
        assert mutable_rsmi.store.n_base_blocks == base_blocks_before
        assert base_order_before == [
            mutable_rsmi.store.base_block_id(p) for p in range(base_blocks_before)
        ]
        for point in inserted:
            assert mutable_rsmi.contains(*point)


class TestPeriodicRebuilder:
    def test_invalid_fraction(self, mutable_rsmi):
        with pytest.raises(ValueError):
            PeriodicRebuilder(mutable_rsmi, rebuild_fraction=0)

    def test_rebuild_triggered_after_fraction(self, mutable_rsmi):
        rebuilder = PeriodicRebuilder(mutable_rsmi, rebuild_fraction=0.05)
        threshold = int(0.05 * mutable_rsmi.n_points)
        rng = np.random.default_rng(3)
        triggered = False
        for x, y in rng.random((threshold + 5, 2)):
            triggered |= rebuilder.insert(float(x), float(y))
        assert triggered
        assert rebuilder.n_rebuilds >= 1
        # a forced rebuild folds every overflow chain back into base blocks
        rebuilder.rebuild()
        assert mutable_rsmi.store.n_overflow_blocks == 0

    def test_rebuild_preserves_all_points(self, mutable_rsmi, skewed_points):
        rebuilder = PeriodicRebuilder(mutable_rsmi, rebuild_fraction=0.02)
        rng = np.random.default_rng(4)
        inserted = rng.random((40, 2))
        for x, y in inserted:
            rebuilder.insert(float(x), float(y))
        for x, y in inserted:
            assert mutable_rsmi.contains(float(x), float(y))
        for x, y in skewed_points[:100]:
            assert mutable_rsmi.contains(float(x), float(y))

    def test_delegates_queries_to_wrapped_index(self, mutable_rsmi):
        rebuilder = PeriodicRebuilder(mutable_rsmi)
        assert rebuilder.n_points == mutable_rsmi.n_points
        assert rebuilder.contains(*map(float, mutable_rsmi.store.all_points()[0]))


class TestQueriesAfterHeavyUpdates:
    def test_window_recall_after_30_percent_insertions(self, mutable_rsmi, skewed_points):
        rng = np.random.default_rng(5)
        extra = rng.random((360, 2))
        extra[:, 1] = extra[:, 1] ** 4
        for x, y in extra:
            mutable_rsmi.insert(float(x), float(y))
        all_points = np.vstack([skewed_points, extra])

        recalls = []
        for seed in range(15):
            cx, cy = all_points[rng.integers(0, len(all_points))]
            window = Rect.from_center(float(cx), float(cy), 0.06, 0.06).clip_to(Rect.unit())
            truth = brute_force_window(all_points, window)
            if truth.shape[0] == 0:
                continue
            result = mutable_rsmi.window_query(window)
            truth_set = {tuple(p) for p in np.round(truth, 12)}
            found = {tuple(p) for p in np.round(result, 12)}
            recalls.append(len(found & truth_set) / len(truth_set))
        assert np.mean(recalls) >= 0.6

    def test_exact_knn_still_exact_after_insertions(self, mutable_rsmi, skewed_points):
        rng = np.random.default_rng(6)
        extra = rng.random((100, 2))
        for x, y in extra:
            mutable_rsmi.insert(float(x), float(y))
        all_points = np.vstack([skewed_points, extra])
        truth = brute_force_knn(all_points, 0.5, 0.5, 10)
        result = mutable_rsmi.knn_query_exact(0.5, 0.5, 10)
        truth_dists = np.sort(np.hypot(truth[:, 0] - 0.5, truth[:, 1] - 0.5))
        assert np.allclose(np.sort(result.distances), truth_dists)
