"""Property tests of the sharding policies.

Every policy must behave as a *partition* of the plane: each point owns
exactly one shard (including points on region boundaries and outside the
data space), window routing is complete (a shard holding an in-window point
is always in the window's shard set) and MINDIST is a true lower bound on
the distance to any point a shard owns.  These properties are what the
router and the sharded index build their correctness on.
"""

import numpy as np
import pytest

from repro.datasets import dataset_by_name
from repro.geometry import Rect
from repro.sharding import (
    HilbertRangePolicy,
    RegularGridPolicy,
    SampleBalancedPolicy,
    ZOrderRangePolicy,
    make_policy,
)

SAMPLE = dataset_by_name("skewed", 1_500, seed=23)


def all_policies():
    return [
        pytest.param(RegularGridPolicy(4), id="grid-4"),
        pytest.param(RegularGridPolicy(6), id="grid-6"),
        pytest.param(ZOrderRangePolicy(4, order=3), id="zorder-4"),
        pytest.param(ZOrderRangePolicy(5, order=4), id="zorder-5"),
        pytest.param(HilbertRangePolicy(4, order=3), id="hilbert-4"),
        pytest.param(HilbertRangePolicy(5, order=4), id="hilbert-5"),
        pytest.param(SampleBalancedPolicy(4, sample=SAMPLE), id="balanced-4"),
        pytest.param(SampleBalancedPolicy(7, sample=SAMPLE), id="balanced-7"),
    ]


@pytest.mark.parametrize("policy", all_policies())
class TestPartitionProperties:
    def test_every_point_owns_exactly_one_shard(self, policy):
        owners = policy.shard_of_many(SAMPLE)
        assert owners.shape == (SAMPLE.shape[0],)
        assert owners.min() >= 0 and owners.max() < policy.n_shards

    def test_scalar_and_vectorised_routing_agree(self, policy):
        owners = policy.shard_of_many(SAMPLE[:200])
        for row, owner in zip(SAMPLE[:200], owners):
            assert policy.shard_of(float(row[0]), float(row[1])) == int(owner)

    def test_window_routing_is_complete(self, policy):
        rng = np.random.default_rng(5)
        owners = policy.shard_of_many(SAMPLE)
        for _ in range(25):
            lo = rng.random(2) * 0.8
            window = Rect(lo[0], lo[1], lo[0] + rng.random() * 0.2, lo[1] + rng.random() * 0.2)
            routed = set(policy.shards_for_window(window))
            inside = window.contains_points(SAMPLE)
            needed = set(owners[inside].tolist())
            assert needed <= routed

    def test_full_space_window_routes_to_every_shard(self, policy):
        assert set(policy.shards_for_window(Rect.unit())) == set(range(policy.n_shards))

    def test_mindist_is_a_lower_bound(self, policy):
        rng = np.random.default_rng(7)
        owners = policy.shard_of_many(SAMPLE)
        for _ in range(20):
            qx, qy = rng.random(), rng.random()
            distances = np.hypot(SAMPLE[:, 0] - qx, SAMPLE[:, 1] - qy)
            for shard_id in range(policy.n_shards):
                mine = distances[owners == shard_id]
                if mine.shape[0] == 0:
                    continue
                assert policy.mindist(qx, qy, shard_id) <= mine.min() + 1e-12

    def test_shard_extent_contains_owned_points(self, policy):
        owners = policy.shard_of_many(SAMPLE)
        for shard_id in range(policy.n_shards):
            mine = SAMPLE[owners == shard_id]
            extent = policy.shard_extent(shard_id)
            for x, y in mine:
                assert extent.contains_point(float(x), float(y))

    def test_points_outside_the_space_still_route(self, policy):
        outside = np.array([(-0.5, 0.5), (1.5, 0.2), (0.3, -1.0), (2.0, 2.0)])
        owners = policy.shard_of_many(outside)
        for (x, y), owner in zip(outside, owners):
            scalar = policy.shard_of(float(x), float(y))
            assert 0 <= scalar < policy.n_shards
            assert scalar == int(owner)


class TestGridPolicy:
    def test_boundary_point_routes_to_exactly_one_shard(self):
        policy = RegularGridPolicy(4)  # 2x2 over the unit square
        assert policy.shard_of(0.5, 0.5) == 3  # half-open cells: upper-right
        assert policy.shard_of(0.5, 0.25) == 1
        assert policy.shard_of(0.25, 0.5) == 2
        # the far edges of the space belong to the last cells
        assert policy.shard_of(1.0, 1.0) == 3
        assert policy.shard_of(0.0, 0.0) == 0

    def test_explicit_factors(self):
        policy = RegularGridPolicy(6, nx=3, ny=2)
        assert (policy.nx, policy.ny) == (3, 2)
        with pytest.raises(ValueError):
            RegularGridPolicy(6, nx=4, ny=2)

    def test_window_inside_one_cell_routes_to_one_shard(self):
        policy = RegularGridPolicy(4)
        assert policy.shards_for_window(Rect(0.6, 0.6, 0.9, 0.9)) == [3]


class TestZOrderPolicy:
    def test_ranges_cover_all_cells_contiguously(self):
        policy = ZOrderRangePolicy(5, order=3)
        n_cells = 4**3
        assert policy.boundaries[0] == 0 and policy.boundaries[-1] == n_cells
        assert all(
            policy.boundaries[i] < policy.boundaries[i + 1] for i in range(len(policy.boundaries) - 1)
        )
        counts = np.bincount(policy._shard_table.ravel(), minlength=5)
        assert counts.sum() == n_cells
        assert counts.max() - counts.min() <= 1

    def test_rejects_more_shards_than_cells(self):
        with pytest.raises(ValueError):
            ZOrderRangePolicy(20, order=1)


class TestHilbertPolicy:
    def test_ranges_cover_all_cells_contiguously(self):
        policy = HilbertRangePolicy(5, order=3)
        n_cells = 4**3
        assert policy.boundaries[0] == 0 and policy.boundaries[-1] == n_cells
        counts = np.bincount(policy._shard_table.ravel(), minlength=5)
        assert counts.sum() == n_cells
        assert counts.max() - counts.min() <= 1

    def test_shard_regions_are_connected(self):
        """Consecutive Hilbert codes are plane-adjacent cells, so each shard
        region is one 4-connected blob — the property that cuts spanning
        window fan-out (Z-ranges straddle quadrant jumps and are not)."""
        policy = HilbertRangePolicy(6, order=4)
        for shard_id in range(policy.n_shards):
            cells = set(map(tuple, np.argwhere(policy._shard_table == shard_id).tolist()))
            start = next(iter(cells))
            frontier = [start]
            seen = {start}
            while frontier:
                cx, cy = frontier.pop()
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if (nx, ny) in cells and (nx, ny) not in seen:
                        seen.add((nx, ny))
                        frontier.append((nx, ny))
            assert seen == cells

    def test_windows_decompose_into_fewer_runs_than_zorder(self):
        """The layout motivation: a window covers the Hilbert curve in far
        fewer contiguous key runs than the Z curve (distinct-shard fan-out
        is a wash between the two — what Hilbert buys is contiguity, i.e.
        sequential block scans instead of scattered ones)."""
        from repro.curves import curve_by_name
        from repro.storage.layout import window_key_runs

        rng = np.random.default_rng(11)
        hilbert = curve_by_name("hilbert", 10)
        zorder = curve_by_name("z", 10)
        space = Rect.unit()
        h_total = z_total = 0
        for _ in range(60):
            lo = rng.random(2) * 0.7
            extent = 0.05 + rng.random(2) * 0.25
            window = Rect(lo[0], lo[1], lo[0] + extent[0], lo[1] + extent[1])
            h_total += len(window_key_runs(hilbert, window, space, coarse_order=6))
            z_total += len(window_key_runs(zorder, window, space, coarse_order=6))
        # measured ratio is ~0.55-0.62; assert a conservative margin
        assert h_total < 0.8 * z_total

    def test_rejects_more_shards_than_cells(self):
        with pytest.raises(ValueError):
            HilbertRangePolicy(20, order=1)


class TestBalancedPolicy:
    def test_balances_the_build_sample(self):
        policy = SampleBalancedPolicy(4, sample=SAMPLE)
        counts = np.bincount(policy.shard_of_many(SAMPLE), minlength=4)
        # median splits keep populations within a factor ~2 of perfect balance
        assert counts.max() <= 2 * (SAMPLE.shape[0] // 4 + 1)
        assert counts.min() >= SAMPLE.shape[0] // 16

    def test_regions_tile_the_space(self):
        policy = SampleBalancedPolicy(5, sample=SAMPLE)
        total = sum(policy.shard_extent(i).area for i in range(5))
        assert total == pytest.approx(1.0)

    def test_requires_a_sample(self):
        with pytest.raises(ValueError):
            SampleBalancedPolicy(4)


@pytest.mark.parametrize("base_name", ["grid", "zorder", "hilbert", "balanced"])
class TestAdaptiveSplitInvariants:
    """The online rebalancer's split must preserve the partition properties
    over *any* base policy: the two children tile the parent's extent
    exactly, their regions are disjoint, and every point the parent owned
    routes to exactly one child afterwards."""

    @staticmethod
    def _adaptive(base_name, n_shards=4):
        from repro.sharding import AdaptiveShardingPolicy

        return AdaptiveShardingPolicy(make_policy(base_name, n_shards, sample=SAMPLE))

    @staticmethod
    def _split_median(policy, shard_id, axis):
        extent = policy.shard_extent(shard_id)
        owners = policy.shard_of_many(SAMPLE)
        mine = SAMPLE[owners == shard_id]
        coords = mine[:, axis] if mine.shape[0] else None
        if coords is None or np.unique(coords).shape[0] < 2:
            lo = (extent.xlo, extent.ylo)[axis]
            hi = (extent.xhi, extent.yhi)[axis]
            return (lo + hi) / 2.0
        return float(np.median(coords))

    def test_children_tile_the_parent_extent(self, base_name):
        rng = np.random.default_rng(29)
        for parent in range(4):
            policy = self._adaptive(base_name)
            axis = int(rng.integers(2))
            parent_extent = policy.shard_extent(parent)
            threshold = self._split_median(policy, parent, axis)
            right = policy.split(parent, axis, threshold)
            left_extent = policy.shard_extent(parent)
            right_extent = policy.shard_extent(right)
            # disjoint apart from the zero-area threshold line...
            if axis == 0:
                assert left_extent.xhi == threshold == right_extent.xlo
                assert (left_extent.ylo, left_extent.yhi) == (
                    parent_extent.ylo,
                    parent_extent.yhi,
                ) == (right_extent.ylo, right_extent.yhi)
                assert left_extent.xlo == parent_extent.xlo
                assert right_extent.xhi == parent_extent.xhi
            else:
                assert left_extent.yhi == threshold == right_extent.ylo
                assert (left_extent.xlo, left_extent.xhi) == (
                    parent_extent.xlo,
                    parent_extent.xhi,
                ) == (right_extent.xlo, right_extent.xhi)
                assert left_extent.ylo == parent_extent.ylo
                assert right_extent.yhi == parent_extent.yhi
            # ...and together they cover the parent exactly
            assert left_extent.area + right_extent.area == pytest.approx(
                parent_extent.area
            )

    def test_every_parent_point_routes_to_exactly_one_child(self, base_name):
        for parent in range(4):
            policy = self._adaptive(base_name)
            before = policy.shard_of_many(SAMPLE)
            mine = before == parent
            threshold = self._split_median(policy, parent, axis=0)
            right = policy.split(parent, axis=0, threshold=threshold)
            after = policy.shard_of_many(SAMPLE)
            # the parent's points land on exactly one of the two children
            assert set(np.unique(after[mine]).tolist()) <= {parent, right}
            went_left = SAMPLE[mine][:, 0] < threshold
            np.testing.assert_array_equal(
                after[mine], np.where(went_left, parent, right)
            )
            # every other shard's ownership is untouched
            np.testing.assert_array_equal(after[~mine], before[~mine])
            # scalar routing agrees with the vectorised path post-split
            for row, owner in zip(SAMPLE[:150], after[:150]):
                assert policy.shard_of(float(row[0]), float(row[1])) == int(owner)

    def test_window_routing_stays_complete_after_splits(self, base_name):
        rng = np.random.default_rng(31)
        policy = self._adaptive(base_name)
        for parent in (0, 2):
            threshold = self._split_median(policy, parent, axis=parent % 2)
            policy.split(parent, axis=parent % 2, threshold=threshold)
        owners = policy.shard_of_many(SAMPLE)
        for _ in range(20):
            lo = rng.random(2) * 0.8
            window = Rect(lo[0], lo[1], lo[0] + rng.random() * 0.2, lo[1] + rng.random() * 0.2)
            routed = set(policy.shards_for_window(window))
            needed = set(owners[window.contains_points(SAMPLE)].tolist())
            assert needed <= routed

    def test_mindist_stays_a_lower_bound_after_splits(self, base_name):
        rng = np.random.default_rng(37)
        policy = self._adaptive(base_name)
        threshold = self._split_median(policy, 1, axis=1)
        policy.split(1, axis=1, threshold=threshold)
        owners = policy.shard_of_many(SAMPLE)
        for _ in range(15):
            qx, qy = rng.random(), rng.random()
            distances = np.hypot(SAMPLE[:, 0] - qx, SAMPLE[:, 1] - qy)
            for shard_id in range(policy.n_shards):
                mine = distances[owners == shard_id]
                if mine.shape[0] == 0:
                    continue
                assert policy.mindist(qx, qy, shard_id) <= mine.min() + 1e-12

    def test_merge_of_siblings_restores_parent_routing(self, base_name):
        policy = self._adaptive(base_name)
        before = policy.shard_of_many(SAMPLE)
        threshold = self._split_median(policy, 3, axis=0)
        right = policy.split(3, axis=0, threshold=threshold)
        assert policy.are_siblings(3, right)
        assert (3, right) in policy.sibling_pairs()
        keep, moved = policy.merge(3, right)
        assert keep == 3 and moved is None  # right was the last shard: no hole
        assert policy.n_shards == 4
        np.testing.assert_array_equal(policy.shard_of_many(SAMPLE), before)


class TestMakePolicy:
    @pytest.mark.parametrize("name", ["grid", "zorder", "hilbert", "balanced"])
    def test_by_name(self, name):
        policy = make_policy(name, 4, sample=SAMPLE)
        assert policy.n_shards == 4
        assert policy.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown sharding policy"):
            make_policy("hash", 4)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError):
            make_policy("grid", 0)
