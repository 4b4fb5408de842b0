"""Curve-range policies route through the cell table they build once.

:class:`~repro.sharding.policy.CurveRangePolicy` encodes every cell once,
at construction, into a ``side × side`` cell → shard table plus per-shard
cell rectangles and extents.  Routing a request then encodes nothing.
These tests hold the table against the per-request encoding it replaced
(the ``encoded_*`` helpers of :mod:`tests.reference_loops`):

* scalar, array and window routing of every cell, of points on the far
  edges, outside the space and at ``-0.0``, and of degenerate and
  whole-space windows;
* kNN shard bounds, bit-identical to each shard's own
  ``np.min(np.hypot(...))`` over its cells;
* shard extents;
* a zero-width or zero-height data space, which routes without a NumPy
  warning and with scalar, array and window routing in agreement;
* pickles and copies, which carry only ``n_shards``, the data space and
  ``order`` and rebuild the tables on load, routing exactly as before.
"""

from __future__ import annotations

import copy
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest

from repro.curves.hilbert import HilbertCurve
from repro.geometry import Rect
from repro.sharding import AdaptiveShardingPolicy, RegularGridPolicy, ShardRouter
from repro.sharding.policy import HilbertRangePolicy, ZOrderRangePolicy

from tests.reference_loops import (
    encoded_mindist,
    encoded_shard_extent,
    encoded_shard_of,
    encoded_shard_of_many,
    encoded_shards_for_window,
)

CURVES = {"hilbert": HilbertRangePolicy, "zorder": ZOrderRangePolicy}
SPACES = [Rect.unit(), Rect(-2.0, 1.0, 3.0, 1.5)]


def _policies():
    for name, cls in CURVES.items():
        for space in SPACES:
            for n_shards, order in ((1, 1), (4, 2), (5, 3), (4, 4)):
                yield pytest.param(
                    cls(n_shards, space, order=order), id=f"{name}-{n_shards}x{order}-{space.xlo}"
                )


POLICIES = list(_policies())


def _probe_points(policy) -> np.ndarray:
    """Every cell's lower-left corner and centre, the far edges, the
    space's corners, points outside it and signed zeros."""
    space, side = policy.data_space, policy.side
    xs = space.xlo + np.arange(side + 1) * (space.width / side)
    ys = space.ylo + np.arange(side + 1) * (space.height / side)
    cx, cy = np.meshgrid(xs, ys)
    corners = np.column_stack((cx.ravel(), cy.ravel()))
    centres = corners[:-1] + [space.width / side / 2, space.height / side / 2]
    edges = [
        (space.xhi, space.yhi), (space.xhi, space.ylo), (space.xlo, space.yhi),
        (space.xhi, (space.ylo + space.yhi) / 2), ((space.xlo + space.xhi) / 2, space.yhi),
        (space.xlo - 1.0, space.ylo - 1.0), (space.xhi + 1.0, space.yhi + 7.0),
        (space.xlo - 0.5, space.yhi), (space.xhi + 1e-12, space.ylo - 1e-12),
        (0.0, 0.0), (-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0),
    ]
    return np.vstack([corners, centres, np.array(edges)])


@pytest.mark.parametrize("policy", POLICIES)
def test_points_route_like_the_encoded_reference(policy):
    points = _probe_points(policy)
    array = policy.shard_of_many(points)
    np.testing.assert_array_equal(array, encoded_shard_of_many(policy, points))
    for (x, y), owner in zip(points.tolist(), array.tolist()):
        assert policy.shard_of(x, y) == encoded_shard_of(policy, x, y) == owner, (x, y)


@pytest.mark.parametrize("policy", POLICIES)
def test_windows_route_like_the_encoded_reference(policy):
    space = policy.data_space
    points = _probe_points(policy).tolist()
    rng = np.random.default_rng(policy.side)
    windows = [
        space,
        Rect(space.xlo - 5.0, space.ylo - 5.0, space.xhi + 5.0, space.yhi + 5.0),
        Rect(space.xhi + 1.0, space.yhi + 1.0, space.xhi + 2.0, space.yhi + 2.0),
        Rect(-0.0, -0.0, 0.0, 0.0),
    ]
    windows += [Rect(x, y, x, y) for x, y in points]
    windows += [Rect(x, space.ylo, x, space.yhi) for x, _ in points[:: policy.side + 1]]
    xs, ys = zip(*points)
    for _ in range(40):
        x0, x1 = sorted(rng.choice(xs, 2).tolist())
        y0, y1 = sorted(rng.choice(ys, 2).tolist())
        windows.append(Rect(x0, y0, x1, y1))
    for window in windows:
        assert policy.shards_for_window(window) == encoded_shards_for_window(policy, window), window


@pytest.mark.parametrize("policy", POLICIES)
def test_shard_bounds_and_extents_match_each_shards_own_cells(policy):
    for shard_id in range(policy.n_shards):
        assert policy.shard_extent(shard_id) == encoded_shard_extent(policy, shard_id)
    for x, y in _probe_points(policy).tolist()[::3]:
        bounds = policy.mindists(x, y)
        want = [encoded_mindist(policy, x, y, s) for s in range(policy.n_shards)]
        assert bounds.tolist() == want, (x, y)
        assert [policy.mindist(x, y, s) for s in range(policy.n_shards)] == want


@pytest.mark.parametrize("name", sorted(CURVES))
def test_router_knn_order_uses_the_one_pass_bounds(name):
    router = ShardRouter(CURVES[name](5, order=3))
    router.record_insert(1.7, -0.4)  # outside the space: widens one shard
    for x, y in np.random.default_rng(2).uniform(-0.5, 1.5, size=(40, 2)).tolist():
        order = list(router.knn_shard_order(x, y))
        assert order == sorted((router.mindist(x, y, s), s) for s in range(5))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_routing_encodes_no_cell(name):
    policy = CURVES[name](4, order=4)
    router = ShardRouter(policy)
    with mock.patch.object(HilbertCurve, "encode", side_effect=AssertionError), mock.patch.object(
        HilbertCurve, "encode_many", side_effect=AssertionError
    ), mock.patch.object(type(policy), "_cell_code", side_effect=AssertionError):
        router.shard_for_point(0.3, 0.7)
        router.shards_for_points(np.random.default_rng(0).random((20, 2)))
        router.shards_for_window(Rect(0.1, 0.2, 0.8, 0.9))
        router.record_insert(0.5, 0.5)
        list(router.knn_shard_order(0.4, 0.4))
        router.shard_extent(2)


def test_far_outside_points_clamp_to_boundary_cells():
    policy = HilbertRangePolicy(4, order=4)
    far = np.array([[1e300, 1e300], [-1e300, 0.5], [0.5, -1e300], [1e300, -1e300]])
    near = np.array([[1.0, 1.0], [0.0, 0.5], [0.5, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(policy.shard_of_many(far), policy.shard_of_many(near))
        assert [policy.shard_of(x, y) for x, y in far.tolist()] == policy.shard_of_many(near).tolist()


DEGENERATE = [Rect(0.5, 0.0, 0.5, 1.0), Rect(0.0, 0.25, 1.0, 0.25), Rect(0.5, 0.5, 0.5, 0.5)]


@pytest.mark.parametrize(
    "make", [*CURVES.values(), lambda n, space: RegularGridPolicy(n, space)],
    ids=[*CURVES, "grid"],
)
@pytest.mark.parametrize("space", DEGENERATE, ids=["zero-width", "zero-height", "point"])
def test_a_degenerate_space_routes_without_warnings(make, space):
    rng = np.random.default_rng(9)
    points = np.vstack([rng.uniform(-0.5, 1.5, size=(60, 2)), [[0.5, 0.25], [-0.0, 1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        policy = make(4, space)
        array = policy.shard_of_many(points).tolist()
        assert [policy.shard_of(x, y) for x, y in points.tolist()] == array
        for (x, y), owner in zip(points.tolist(), array):
            assert policy.shards_for_window(Rect(x, y, x, y)) == [owner]
        assert set(array) <= set(policy.shards_for_window(Rect(-1.0, -1.0, 2.0, 2.0)))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_refined_leaves_take_their_bounds_from_one_base_pass(name):
    policy = AdaptiveShardingPolicy(CURVES[name](4, order=3))
    clip = policy.shard_extent(1)
    policy.split(1, axis=0, threshold=(clip.xlo + clip.xhi) / 2)
    for x, y in np.random.default_rng(4).uniform(-0.5, 1.5, size=(30, 2)).tolist():
        bounds = [policy.mindist(x, y, s) for s in range(policy.n_shards)]
        assert policy.mindists(x, y).tolist() == bounds


def _routing(policy, points: np.ndarray) -> tuple:
    """Everything the router asks a policy, over ``points``."""
    rows = points.tolist()
    return (
        policy.n_shards,
        policy.shard_of_many(points).tolist(),
        [policy.shard_of(x, y) for x, y in rows],
        [policy.shards_for_window(Rect(x, y, x + 0.3, y + 0.2)) for x, y in rows],
        [policy.mindists(x, y).tolist() for x, y in rows[::7]],
        [policy.shard_extent(s) for s in range(policy.n_shards)],
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_pickles_carry_no_tables_and_route_alike_after_a_round_trip(policy):
    data = pickle.dumps(policy)
    assert pickle.loads(data).__dict__.keys() == policy.__dict__.keys()
    assert b"numpy" not in data and len(data) < 400
    points = _probe_points(policy)
    want = _routing(policy, points)
    assert _routing(pickle.loads(data), points) == want
    assert _routing(copy.deepcopy(policy), points) == want
    # a state pickled with the tables (before they were left out) loads too
    old = type(policy).__new__(type(policy))
    old.__setstate__(dict(policy.__dict__))
    assert _routing(old, points) == want


@pytest.mark.parametrize("name", sorted(CURVES))
def test_an_adaptive_policy_round_trips_over_its_curve_base(name):
    policy = AdaptiveShardingPolicy(CURVES[name](4, order=4))
    clip = policy.shard_extent(2)
    policy.split(2, axis=1, threshold=(clip.ylo + clip.yhi) / 2)
    loaded = pickle.loads(pickle.dumps(policy))
    points = _probe_points(policy.base)
    assert _routing(loaded, points) == _routing(policy, points)
