"""Aggregates fold each spec's window answer once.

``BatchQueryEngine.aggregate_partials`` takes every spec's rows from the
window answer a window request over the same window gets, and folds them
with one ``spec.fold`` call.  The reference it replaced,
:func:`tests.reference_loops.per_block_aggregate_partials`, folded each
touched block's in-window points separately.  Both walk the same block
ranges, so on every index below — a plain RSMI and 4-shard Hilbert and
Z-order RSMIs, all with overflow chains and behind a shared buffer pool —
the two must agree on:

* reads: per-request ``AccessSummary``, per-index ``AccessStats``, the
  pool's counters and its LRU order;
* answers: ``count``/``sum``/``mean``/``top-k`` exactly, ``quantile``
  exactly while the window holds at most ``quantile_capacity`` rows and
  within the reported ``max_rank_error`` of the exact quantile above it.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    AGGREGATE_OPS,
    AggregateSpec,
    QueryRequest,
    TopKPartial,
    attribute_values,
    exact_aggregate,
    quantile_rank_distance,
)
from repro.core import RSMI, RSMIConfig
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory
from repro.storage import SharedBufferPool

from tests.reference_loops import per_block_aggregate_partials

TRAINING = TrainingConfig(epochs=8, seed=0)
#: small enough that wide windows compact the quantile sketch
CAPACITY = 16


def _chained_points(rng) -> tuple[np.ndarray, list]:
    points = rng.uniform(size=(400, 2)) ** 2
    near = [(x + 1e-4, y - 1e-4) for x, y in points[rng.integers(0, 400, size=120)].tolist()]
    return points, near


def _plain():
    points, near = _chained_points(np.random.default_rng(41))
    config = RSMIConfig(block_capacity=4, partition_threshold=60, training=TRAINING, seed=0)
    index = RSMI(config).build(points)
    for x, y in near:
        index.insert(x, y)
    assert index.store.n_overflow_blocks > 10
    return index


def _sharded(policy: str):
    points, near = _chained_points(np.random.default_rng(43))
    factory = shard_index_factory(
        "RSMI", block_capacity=4, partition_threshold=40, training=TRAINING
    )
    index = ShardedSpatialIndex(factory, n_shards=4, policy=policy).build(points)
    for x, y in near:
        index.insert(x, y)
    assert sum(shard.index.store.n_overflow_blocks for shard in index.shards) > 10
    return index


def _served(index):
    """``(engine, pool)`` reading ``index`` through a small shared pool, so
    requests evict, reject and prefetch."""
    pool = SharedBufferPool(24)
    if isinstance(index, RSMI):
        return BatchQueryEngine(index, shared_pool=pool), pool
    return ShardedBatchEngine(index, shared_pool=pool), pool


@pytest.fixture(scope="module", params=["rsmi", "hilbert", "zorder"])
def twins(request):
    """An index with overflow chains and its deep copy, each served behind
    its own shared pool: the first runs the engine, the twin the
    per-block reference."""
    index = _plain() if request.param == "rsmi" else _sharded(request.param)
    twin = copy.deepcopy(index)
    return _served(index), _served(twin)


def _reference(engine, request):
    """``engine.execute(request)`` with every per-index aggregate folded
    block by block."""
    with mock.patch.object(BatchQueryEngine, "aggregate_partials", per_block_aggregate_partials):
        return engine.execute(request)


def _index_stats(engine) -> list:
    index = engine.index
    if isinstance(index, RSMI):
        return [index.stats.snapshot()]
    return [shard.stats.snapshot() for shard in index.shards]


_COORD = st.one_of(st.floats(-0.1, 1.1, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0]))
_SPEC = st.tuples(
    st.sampled_from(AGGREGATE_OPS), _COORD, _COORD, _COORD, _COORD,
    st.floats(0.0, 1.0), st.integers(1, 6), st.integers(0, 3),
)


def _spec(op, x0, y0, x1, y1, q, k, seed) -> AggregateSpec:
    window = Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
    return AggregateSpec(
        op=op, window=window, q=q, k=k, attribute_seed=seed, quantile_capacity=CAPACITY
    )


def _assert_same_reads(engine, pool, twin_engine, twin_pool):
    assert _index_stats(engine) == _index_stats(twin_engine)
    assert pool.metrics() == twin_pool.metrics()
    assert list(pool._lru.items()) == list(twin_pool._lru.items())


@settings(max_examples=25, deadline=None)
@given(raw=st.lists(_SPEC, min_size=1, max_size=6), whole=st.booleans())
def test_fold_once_reads_and_answers_like_the_per_block_loop(twins, raw, whole):
    (engine, pool), (twin_engine, twin_pool) = twins
    specs = [_spec(*row) for row in raw]
    if whole:
        specs.append(AggregateSpec(op="quantile", window=Rect.unit(), quantile_capacity=CAPACITY))
    request = QueryRequest.for_aggregates(specs)
    got = engine.execute(request)
    want = _reference(twin_engine, request)
    assert got.access == want.access
    _assert_same_reads(engine, pool, twin_engine, twin_pool)
    # each spec's rows are its window's answer (both twins read them, so
    # their pools stay in step for the next example)
    windows = QueryRequest.for_windows([spec.window for spec in specs])
    rows = engine.execute(windows).values
    twin_engine.execute(windows)
    for spec, answer, reference, inside in zip(specs, got.values, want.values, rows):
        assert answer.count == reference.count == inside.shape[0]
        if spec.op == "quantile" and answer.count > spec.quantile_capacity:
            column = np.sort(attribute_values(inside, spec.attribute_seed))
            assert quantile_rank_distance(answer.value, column, spec.q) <= answer.max_rank_error
        else:
            assert answer == reference


def test_an_aggregate_batch_reads_like_the_window_batch(twins):
    (engine, pool), (twin_engine, twin_pool) = twins
    windows = [Rect(0.1, 0.1, 0.4, 0.5), Rect.unit(), Rect(0.3, 0.3, 0.3, 0.3)]
    specs = [AggregateSpec(op=op, window=w) for op in ("sum", "top-k") for w in windows]
    aggregates = engine.execute(QueryRequest.for_aggregates(specs))
    rows = twin_engine.execute(QueryRequest.for_windows([spec.window for spec in specs]))
    assert aggregates.access == rows.access
    _assert_same_reads(engine, pool, twin_engine, twin_pool)
    assert [outcome.count for outcome in aggregates.values] == [r.shape[0] for r in rows.values]


def test_count_computes_no_attribute_column():
    points = np.random.default_rng(5).random((50, 2))
    spec = AggregateSpec(op="count", window=Rect.unit())
    with mock.patch("repro.analytics.ops.attribute_values", side_effect=AssertionError):
        outcome = spec.finalize(spec.fold(spec.new_partial(), points))
    assert outcome == exact_aggregate(spec, points)


def _tuple_sorted_fold(k, points, values) -> list:
    """The top-k fold before it selected with ``lexsort``: every row as a
    ``(-value, x, y)`` tuple, sorted, truncated."""
    items = sorted((-float(v), float(x), float(y)) for v, (x, y) in zip(values, points))
    return items[:k]


@pytest.mark.parametrize("k", [1, 3, 40])
def test_topk_fold_selects_like_the_tuple_sort(k):
    rng = np.random.default_rng(k)
    points = rng.choice([0.0, -0.0, 0.25, 0.5], size=(30, 2))
    values = rng.choice([0.0, 0.5, 0.75], size=30)
    partial = TopKPartial(k).fold(points, values)
    assert partial.items == _tuple_sorted_fold(k, points, values)
    assert [tuple(map(np.signbit, item)) for item in partial.items] == [
        tuple(map(np.signbit, item)) for item in _tuple_sorted_fold(k, points, values)
    ]
    assert partial.count == 30
