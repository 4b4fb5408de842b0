"""The block-MBR gate on RSMI membership probes.

``RSMI.point_query`` and the engine's point and window-corner probes skip
the point compare at a position whose block MBR
(``LeafModel.block_mbrs``) excludes the probe; the chain is still read.
That is exact only while every live point of the chain at position ``p``
lies inside ``block_mbrs[p - first_position]``:

* a property test checks that invariant on a plain and a sharded RSMI after
  the build, interleaved inserts and deletes that grow overflow chains, a
  ``DurableIndex`` checkpoint + recover, and a rebuild, and that every
  stored point is found by the sequential point query, by the engine and
  by the exact (RSMIa) kNN query at distance 0.  Algorithm 3's kNN is
  approximate: on these small indices it can miss a stored query point
  with the gate or without it, so its answers are checked against the
  same queries run with the gate switched off;
* the gated paths answer and read exactly like the ungated reference loops
  of :mod:`tests.reference_loops`, down to the shared pool's counters.
"""

from __future__ import annotations

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import QueryRequest
from repro.core import RSMI, RSMIConfig
from repro.core.leaf_model import LeafModel
from repro.core.window import window_block_range, window_corner_points
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.nn import MinMaxScaler, TrainingConfig
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory
from repro.storage import DurableIndex, SharedBufferPool

from tests.reference_loops import ungated_point_query, ungated_window_block_range

TRAINING = TrainingConfig(epochs=8, seed=0)
CONFIG = RSMIConfig(block_capacity=4, partition_threshold=60, training=TRAINING, seed=0)


def _plain(points: np.ndarray) -> RSMI:
    return RSMI(CONFIG).build(points)


def _sharded(points: np.ndarray) -> ShardedSpatialIndex:
    factory = shard_index_factory(
        "RSMI", block_capacity=4, partition_threshold=40, training=TRAINING
    )
    return ShardedSpatialIndex(factory, n_shards=2, policy="grid").build(points)


def _rsmis(index) -> list[RSMI]:
    if isinstance(index, RSMI):
        return [index]
    return [shard.index for shard in index.shards if shard.index is not None]


def _engine(index):
    return BatchQueryEngine(index) if isinstance(index, RSMI) else ShardedBatchEngine(index)


def _assert_gate_holds(index, live: list) -> None:
    """Every chain's live points lie in its block MBR, and every stored
    point is found by each query path."""
    stored = []
    for rsmi in _rsmis(index):
        for leaf in rsmi.iter_leaves():
            assert len(leaf.block_mbrs) == leaf.n_local_blocks
            for offset, mbr in enumerate(leaf.block_mbrs):
                for block in rsmi.store.iter_chain(leaf.first_position + offset):
                    for x, y in block.points().tolist():
                        assert mbr.contains_point(x, y), (leaf, offset, x, y)
        exact = rsmi.exact_view()
        points = rsmi.store.all_points().tolist()
        for x, y in points:
            assert rsmi.point_query(x, y).found, (x, y)
            (px, py), = exact.knn_query(x, y, 1).tolist()
            assert math.hypot(x - px, y - py) == 0.0, (x, y)
        stored += points
    assert sorted(map(tuple, stored)) == sorted(live)
    if not stored:
        return
    found = _engine(index).execute(QueryRequest.for_points(np.asarray(stored))).values
    assert all(found)
    gated = [index.knn_query(x, y, 1).tolist() for x, y in stored]
    with mock.patch.object(LeafModel, "may_hold", lambda leaf, position, x, y: True):
        assert [index.knn_query(x, y, 1).tolist() for x, y in stored] == gated


_COORD = st.one_of(
    st.floats(-0.2, 1.2, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0]),
)
#: ("near", i, ...) inserts a jittered copy of the i-th live point (it lands
#: in that point's chain and grows it), ("far", _, x, y) inserts (x, y), and
#: ("delete", i, ...) deletes the i-th live point
_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["near", "near", "far", "delete"]),
        st.integers(0, 10**6),
        _COORD,
        _COORD,
    ),
    min_size=4,
    max_size=40,
)


def _apply(writer, live: list, writes) -> None:
    for kind, i, x, y in writes:
        if kind == "far":
            point = (x, y)
        elif not live:
            continue
        elif kind == "near":
            lx, ly = live[i % len(live)]
            point = (lx + x * 1e-3, ly + y * 1e-3)
        else:
            point = live.pop(i % len(live))
            assert writer.delete(*point)
            continue
        writer.insert(*point)
        live.append(point)


@pytest.mark.parametrize("build", [_plain, _sharded], ids=["rsmi", "sharded"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), writes=_WRITES)
def test_block_mbrs_cover_their_chains_through_updates_recovery_and_rebuild(
    build, seed, writes, tmp_path_factory
):
    points = np.random.default_rng(seed).uniform(size=(150, 2)) ** 2
    index = build(points)
    live = [tuple(p) for p in points.tolist()]
    _assert_gate_holds(index, live)

    half = len(writes) // 2
    _apply(index, live, writes[:half])
    _assert_gate_holds(index, live)

    durable = DurableIndex(
        index, tmp_path_factory.mktemp("gate"), checkpoint_every=10**6, fsync=False
    )
    _apply(durable, live, writes[half : half + half // 2])
    durable.checkpoint()
    _apply(durable, live, writes[half + half // 2 :])
    directory = durable.directory
    durable.simulate_crash()
    durable, _ = DurableIndex.recover(directory, checkpoint_every=10**6, fsync=False)
    index = durable.wrapped
    durable.close(checkpoint=False)
    _assert_gate_holds(index, live)

    for rsmi in _rsmis(index):
        rsmi.rebuild()
    _assert_gate_holds(index, live)


def test_may_hold_follows_the_block_mbr():
    points = np.random.default_rng(3).uniform(size=(120, 2))
    index = _plain(points)
    leaf = next(iter(index.iter_leaves()))
    mbr = leaf.block_mbrs[0]
    assert leaf.may_hold(leaf.first_position, mbr.xlo, mbr.yhi)
    assert not leaf.may_hold(leaf.first_position, mbr.xhi + 1e-9, mbr.ylo)
    assert not leaf.may_hold(leaf.first_position, 5.0, 5.0)


def test_a_leaf_without_block_mbrs_probes_every_position():
    scaler = MinMaxScaler().fit(np.array([[0.0, 0.0], [1.0, 1.0]]))
    leaf = LeafModel(
        None, scaler, first_position=3, n_local_blocks=5,
        err_below=0, err_above=0, mbr=None, block_mbrs=[], n_points=1, level=0,
    )
    assert all(leaf.may_hold(position, 9.0, -9.0) for position in range(3, 8))


# -- read accounting: gated == ungated --------------------------------------------


@pytest.fixture(scope="module")
def chained_twins():
    """An RSMI with overflow chains and its deep copy, each behind its own
    small shared pool (so the probes below evict, reject and prefetch)."""
    rng = np.random.default_rng(41)
    points = rng.uniform(size=(400, 2)) ** 2
    index = _plain(points)
    for x, y in points[rng.integers(0, 400, size=120)].tolist():
        index.insert(x + 1e-4, y - 1e-4)
    assert index.store.n_overflow_blocks > 10
    twin = copy.deepcopy(index)
    pools = []
    for rsmi in (index, twin):
        pools.append(SharedBufferPool(24))
        rsmi.attach_cache(pools[-1].client("rsmi"))
    return index, twin, pools


def _probes(index) -> tuple[list, list]:
    rng = np.random.default_rng(7)
    stored = index.store.all_points()
    hits = stored[rng.integers(0, stored.shape[0], size=150)].tolist()
    near = [(x, y + 1e-9) for x, y in hits[:50]]
    far = rng.uniform(-0.2, 1.2, size=(100, 2)).tolist()
    windows = []
    for cx, cy in rng.uniform(0.0, 1.0, size=(60, 2)).tolist():
        w, h = rng.uniform(0.0, 0.2, size=2)
        windows.append(Rect(cx, cy, cx + w, cy + h))
    corners = [c for window in windows for c in window_corner_points(window, "hilbert")]
    return hits + near + far + corners, windows


def _delta(call, index, *args):
    before = index.stats.snapshot()
    answer = call(index, *args)
    return answer, index.stats.delta_since(before)


def test_gated_probes_answer_and_read_like_the_ungated_reference(chained_twins):
    index, twin, (pool, twin_pool) = chained_twins
    probes, windows = _probes(index)
    found = 0
    for x, y in probes:
        got = _delta(RSMI.point_query, index, x, y)
        want = _delta(ungated_point_query, twin, x, y)
        assert got == want, (x, y)
        found += got[0].found
    assert 150 <= found < len(probes)
    for window in windows:
        got = _delta(window_block_range, index, window)
        want = _delta(ungated_window_block_range, twin, window)
        assert got == want, window
    assert pool.metrics() == twin_pool.metrics()
    assert list(pool._lru.items()) == list(twin_pool._lru.items())
    assert pool.evictions and pool.prefetch_issued
