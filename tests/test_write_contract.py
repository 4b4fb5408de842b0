"""The write-input contract: non-finite coordinates are rejected up front.

``insert``/``delete`` with a NaN or infinite coordinate raise a
``ValueError`` naming the point — on every index kind (the check lives in
:class:`~repro.baselines.interface.SpatialIndex`), on the sharded index and
the process-pool engine before they route, and on
:class:`~repro.storage.DurableIndex` before the WAL append.  The last matters most: a record logged before the index rejects it
would be replayed by recovery, fail again, and lose every write since the
last checkpoint.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.evaluation import INDEX_NAMES, build_index_suite
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.serving import ParallelShardEngine, ServingSpec
from repro.sharding import ShardedSpatialIndex, shard_index_factory
from repro.storage import DurableIndex

TRAINING = TrainingConfig(epochs=4, seed=0)
BAD_POINTS = [(math.nan, 0.5), (0.5, math.inf), (-math.inf, math.nan)]
EVERYWHERE = Rect(-1.0, -1.0, 2.0, 2.0)


def _points(n: int = 200, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 2))


def _kind(name: str, points: np.ndarray):
    return build_index_suite(
        points, [name], block_capacity=16, partition_threshold=100, training=TRAINING
    )[name]


def _build(target: str, tmp_path):
    """One index kind, a sharded index (``sharded-<kind>``), a process-pool
    engine (``parallel-<kind>``) or a durable index (``durable-<kind>``)
    over the same points."""
    wrapper, _, kind = target.rpartition("-")
    points = _points()
    if wrapper in ("sharded", "parallel"):
        factory = shard_index_factory(
            kind, block_capacity=16, partition_threshold=100, training=TRAINING
        )
        if wrapper == "parallel":
            spec = ServingSpec.from_points(factory, points, n_shards=4, policy="grid")
            return ParallelShardEngine(spec, n_workers=2)
        return ShardedSpatialIndex(factory, n_shards=4, policy="grid").build(points)
    if wrapper == "durable":
        return DurableIndex(_kind(kind, points), tmp_path, checkpoint_every=1_000)
    return _kind(kind, points)


@pytest.mark.parametrize(
    "target",
    [
        *INDEX_NAMES,
        "sharded-Grid",
        "sharded-RSMI",
        "parallel-Grid",
        "durable-Grid",
        "durable-RSMI",
    ],
)
def test_non_finite_writes_are_rejected(target, tmp_path):
    index = _build(target, tmp_path)
    try:
        for x, y in BAD_POINTS:
            with pytest.raises(ValueError, match="finite"):
                index.insert(x, y)
            with pytest.raises(ValueError, match="finite"):
                index.delete(x, y)
        assert index.n_points == 200
        if isinstance(index, ParallelShardEngine):
            stored = index.execute(QueryRequest.for_windows([EVERYWHERE])).values[0]
        else:
            stored = index.window_query(EVERYWHERE)
        assert np.isfinite(stored).all()
        if isinstance(index, DurableIndex):
            assert index.wal_records_pending == 0
    finally:
        if isinstance(index, (DurableIndex, ParallelShardEngine)):
            index.close()


@pytest.mark.parametrize("kind", ["Grid", "RSMI"])
def test_rejected_write_does_not_poison_recovery(tmp_path, kind):
    """One NaN insert, one valid insert, then a crash: recovery replays the
    valid write and nothing else."""
    durable = DurableIndex(_kind(kind, _points()), tmp_path, checkpoint_every=1_000)
    with pytest.raises(ValueError, match="finite"):
        durable.insert(math.nan, 0.5)
    durable.insert(0.123454321, 0.567898765)
    durable.simulate_crash()

    recovered, report = DurableIndex.recover(tmp_path)
    try:
        assert report.replayed == 1
        assert recovered.contains(0.123454321, 0.567898765)
        assert recovered.n_points == 201
    finally:
        recovered.close()
