"""The per-request path of a sharded index, against the code it replaced.

* ``ShardRouter.shards_for_points`` over a list of ``(x, y)`` rows (the
  form ``group_by_shard`` uses for requests of up to ``LIST_POINTS`` rows)
  routes every point where the array form does, for every policy: grid, Z-order, Hilbert, sample-balanced, and an
  adaptive policy after a split and a merge.  Probes sit on every region
  and cell edge, beside them, outside the data space and at ``-0.0``.
* The engine keeps each chain a request reads as its blocks and builds the
  coordinate array only for a compare, a hash or a window scan.  On a
  disk-backed sharded RSMI behind a shared pool it answers, reads and
  loads chains exactly like :class:`tests.reference_loops.EagerChainEngine`,
  which builds every array at the read, down to the pool's LRU order.
* A sharded kNN query merges shard answers with one vectorised
  ``np.hypot`` per answer, with the bits (and so the order, ties
  included) of one scalar ``np.hypot`` per candidate.
"""

from __future__ import annotations

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import AggregateSpec, QueryRequest
from repro.datasets import dataset_by_name
from repro.engine import BatchQueryEngine
from repro.engine import engine as engine_module
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.sharding import (
    AdaptiveShardingPolicy,
    ShardRouter,
    ShardedBatchEngine,
    ShardedSpatialIndex,
    make_policy,
    shard_index_factory,
)
from repro.sharding.engine import group_by_shard
from repro.storage import SharedBufferPool

from tests.reference_loops import EagerChainEngine, per_candidate_sharded_knn

SAMPLE = dataset_by_name("skewed", 1_500, seed=23)
TRAINING = TrainingConfig(epochs=8, seed=0)


def _split_and_merged(base_name: str) -> AdaptiveShardingPolicy:
    """An adaptive policy with one split kept and one split merged back,
    which relocates the last leaf into the merged id's hole."""
    policy = AdaptiveShardingPolicy(make_policy(base_name, 4, sample=SAMPLE))
    for shard_id, axis in ((0, 0), (1, 1)):
        clip = policy.shard_extent(shard_id)
        lo, hi = (clip.xlo, clip.xhi) if axis == 0 else (clip.ylo, clip.yhi)
        policy.split(shard_id, axis, (lo + hi) / 2)
    keep, moved = policy.merge(0, 4)
    assert keep == 0 and moved == (5, 4)
    return policy


def _policies():
    for name in ("grid", "zorder", "hilbert", "balanced"):
        yield pytest.param(make_policy(name, 4, sample=SAMPLE), id=name)
    for name in ("hilbert", "balanced"):
        yield pytest.param(_split_and_merged(name), id=f"adaptive-{name}")


POLICIES = list(_policies())


def _edge_rows(policy) -> list[tuple[float, float]]:
    """Every region, cell and data-space edge crossed with every other,
    each edge's neighbouring floats, points outside the space and signed
    zeros."""
    space = policy.data_space
    xs = {space.xlo, space.xhi, (space.xlo + space.xhi) / 2}
    ys = {space.ylo, space.yhi, (space.ylo + space.yhi) / 2}
    for shard_id in range(policy.n_shards):
        extent = policy.shard_extent(shard_id)
        xs |= {extent.xlo, extent.xhi}
        ys |= {extent.ylo, extent.yhi}
    side = getattr(getattr(policy, "base", policy), "side", 8)
    xs |= {space.xlo + i * space.width / side for i in range(side + 1)}
    ys |= {space.ylo + i * space.height / side for i in range(side + 1)}
    xs = {v for x in xs for v in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))}
    ys = {v for y in ys for v in (y, math.nextafter(y, -math.inf), math.nextafter(y, math.inf))}
    xs |= {-0.0, space.xlo - 1.0, space.xhi + 1.0, -1e300, 1e300}
    ys |= {-0.0, space.ylo - 1.0, space.yhi + 1.0, -1e300, 1e300}
    return [(x, y) for x in sorted(xs) for y in sorted(ys)]


@pytest.mark.parametrize("policy", POLICIES)
def test_list_rows_route_like_the_array_on_every_edge(policy):
    router = ShardRouter(policy)
    rows = _edge_rows(policy)
    owners = router.shards_for_points(rows)
    assert owners == router.shards_for_points(np.array(rows)).tolist()
    assert all(type(owner) is int for owner in owners)
    assert owners == [router.shard_for_point(x, y) for x, y in rows]


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.floats(-0.5, 1.5), st.sampled_from([-0.0, 0.0, 0.5, 1.0])),
            st.one_of(st.floats(-0.5, 1.5), st.sampled_from([-0.0, 0.0, 0.5, 1.0])),
        ),
        min_size=1,
        max_size=70,
    )
)
def test_small_point_requests_group_like_the_array_path(policy, rows):
    """``group_by_shard`` gives the same groups from Python rows (up to
    ``LIST_POINTS`` rows) as from the array path, whichever path a request's
    size picks."""
    router = ShardRouter(policy)
    points = np.array(rows, dtype=float)
    groups = group_by_shard(router, "point", points)
    with mock.patch("repro.sharding.engine.LIST_POINTS", 0):
        as_array = group_by_shard(router, "point", points)
    assert groups == as_array
    assert sorted(i for indices in groups.values() for i in indices) == list(range(len(rows)))
    for indices in groups.values():
        assert indices == sorted(indices)
    assert all(type(shard_id) is int for shard_id in groups)


@pytest.mark.parametrize("kind", ["Grid", "RSMI"])
def test_knn_merges_like_one_scalar_hypot_per_candidate(kind):
    rng = np.random.default_rng(47)
    # a lattice, so many candidates tie on distance
    points = np.unique(np.round(rng.random((900, 2)) * 16) / 16, axis=0)
    options = {"training": TRAINING} if kind == "RSMI" else {}
    factory = shard_index_factory(kind, block_capacity=8, **options)
    index = ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
    queries = np.vstack([rng.random((40, 2)), points[:20], [[0.5, 0.5], [-0.0, 1.5]]])
    for x, y in queries.tolist():
        for k in (1, 5, 17):
            got = index.knn_query(x, y, k)
            assert got.tobytes() == per_candidate_sharded_knn(index, x, y, k).tobytes()


# -- lazy chains against the eager loop ---------------------------------------------

@pytest.fixture(scope="module")
def twins():
    """A 4-shard RSMI index with overflow chains, and a deep copy of it."""
    rng = np.random.default_rng(41)
    points = rng.uniform(size=(1_600, 2)) ** np.array([1.0, 2.0])
    factory = shard_index_factory(
        "RSMI", block_capacity=8, partition_threshold=200, training=TRAINING
    )
    index = ShardedSpatialIndex(factory, n_shards=4, policy="hilbert").build(points)
    for x, y in points[rng.integers(0, points.shape[0], size=320)].tolist():
        index.insert(x + 1e-6, y)
    return index, copy.deepcopy(index)


def _requests(index) -> list[QueryRequest]:
    """Point requests of 1, 4, 48, 49 and 128 rows (the 128-row ones
    clustered, so chains pass ``HASH_AFTER_PROBES``), windows and
    aggregates."""
    rng = np.random.default_rng(43)
    stored = np.vstack([shard.index.store.all_points() for shard in index.shards])
    requests = []
    for rows in (1, 1, 4, 48, 49, 128, 1, 4, 128):
        if rows == 128:
            centre = stored[rng.integers(0, stored.shape[0])]
            near = stored[np.argsort(np.hypot(*(stored - centre).T))[:40]]
            queries = near[rng.integers(0, 40, size=rows)]
            queries[::5] += 1e-9  # near misses that pass the block-MBR gate
        else:
            hits = stored[rng.integers(0, stored.shape[0], size=rows)]
            queries = np.where(rng.random((rows, 1)) < 0.6, hits, rng.random((rows, 2)))
        requests.append(QueryRequest.for_points(queries))
    for count in (1, 3, 16):
        windows = []
        for cx, cy in rng.random((count, 2)).tolist():
            w, h = rng.uniform(0.0, 0.2, size=2).tolist()
            windows.append(Rect(cx, cy, cx + w, cy + h))
        requests.append(QueryRequest.for_windows(windows))
        requests.append(
            QueryRequest.for_aggregates(
                [AggregateSpec(op="count", window=window) for window in windows]
            )
        )
    return requests


def _bits(value):
    """A window answer's bytes, or a point or aggregate answer's repr."""
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def _serve(index, engine_class, directory) -> dict:
    """Answer every request through a pooled, disk-backed sharded engine
    whose per-shard engines are ``engine_class``."""
    index.attach_disk(directory)
    pool = SharedBufferPool(30, admission="tinylfu")
    engine = ShardedBatchEngine(index, shared_pool=pool)
    loaded, built, hashed_any = [0], [0], [False]
    load = engine_class._load_position
    holds = BatchQueryEngine._chain_holds
    build = engine_module.chain_points

    def counting_load(self, position, cache):
        loaded[0] += position not in cache
        return load(self, position, cache)

    def noting_holds(self, leaf, position, x, y, cache, probes, hashed):
        answer = holds(self, leaf, position, x, y, cache, probes, hashed)
        hashed_any[0] |= bool(hashed)
        return answer

    def counting_build(chain):
        built[0] += 1
        return build(chain)

    answers, reads = [], []
    with mock.patch("repro.sharding.engine.BatchQueryEngine", engine_class), mock.patch.object(
        engine_class, "_load_position", counting_load
    ), mock.patch.object(BatchQueryEngine, "_chain_holds", noting_holds), mock.patch.object(
        engine_module, "chain_points", counting_build
    ):
        for request in _requests(index):
            result = engine.execute(request)
            answers.append([_bits(value) for value in result.values])
            reads.append((result.access, [shard.stats.snapshot() for shard in index.shards]))
    index.detach_disk()
    return {
        "answers": answers,
        "reads": reads,
        "pool": pool.metrics(),
        "lru": list(pool._lru.items()),
        "prefetched": list(pool._prefetched.items()),
        "chains_loaded": loaded[0],
        "hashed": hashed_any[0],
        "arrays_built": built[0],
    }


def test_lazy_chains_read_answer_and_load_like_the_eager_loop(twins, tmp_path):
    index, twin = twins
    lazy = _serve(index, BatchQueryEngine, tmp_path / "lazy")
    eager = _serve(twin, EagerChainEngine, tmp_path / "eager")
    arrays_built = lazy.pop("arrays_built")
    assert eager.pop("arrays_built") == 0  # the eager loop concatenates itself
    assert lazy == eager
    assert lazy["hashed"]
    assert lazy["pool"]["evictions"] and lazy["pool"]["prefetch_issued"]
    # most chains a point probe reads are gated out before any compare
    assert 0 < arrays_built < lazy["chains_loaded"]
