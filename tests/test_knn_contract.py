"""The ``k`` above the live point count contract of kNN queries.

Every index kind, the sharded Grid and RSMI indices and both engines answer
a kNN query whose ``k`` exceeds the live point count with every live point,
nearest first: ``min(k, live)`` distinct rows.  Deletes shrink the live set
the answer must equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analytics import QueryRequest
from repro.engine import BatchQueryEngine
from repro.evaluation.adapters import INDEX_NAMES, build_index_suite
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory

from tests.conftest import FAST_TRAINING


def _check(answer: np.ndarray, live: np.ndarray, query: tuple[float, float]) -> None:
    answer = np.asarray(answer, dtype=float).reshape(-1, 2)
    assert answer.shape[0] == live.shape[0]
    assert {tuple(p) for p in answer.tolist()} == {tuple(p) for p in live.tolist()}
    distances = np.hypot(answer[:, 0] - query[0], answer[:, 1] - query[1])
    assert np.all(np.diff(distances) >= 0)


def _indices(points: np.ndarray) -> dict:
    suite = build_index_suite(
        points, block_capacity=4, partition_threshold=20, training=FAST_TRAINING
    )
    for kind in ("Grid", "RSMI"):
        factory = shard_index_factory(
            kind, block_capacity=4, partition_threshold=20, training=FAST_TRAINING
        )
        suite[f"sharded-{kind}"] = ShardedSpatialIndex(
            factory, n_shards=4, policy="grid"
        ).build(points)
    return suite


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 40),
    extra=st.integers(1, 30),
    n_deleted=st.integers(0, 4),
)
def test_knn_with_k_above_live_count_returns_every_live_point(seed, n, extra, n_deleted):
    rng = np.random.default_rng(seed)
    points = np.unique(rng.random((n, 2)), axis=0)
    indices = _indices(points)
    assert set(INDEX_NAMES) <= set(indices)
    live = points[n_deleted:]
    for name, index in indices.items():
        if name == "RSMIa":
            continue  # a view of the RSMI: the RSMI's deletes are its deletes
        for x, y in points[:n_deleted].tolist():
            assert index.delete(x, y)
    k = points.shape[0] + extra
    queries = rng.uniform(-0.2, 1.2, size=(3, 2))
    for name, index in indices.items():
        engine = (
            ShardedBatchEngine(index) if name.startswith("sharded") else BatchQueryEngine(index)
        )
        answers = engine.execute(QueryRequest.for_knn(queries, k)).values
        for query, answer in zip(queries.tolist(), answers):
            _check(index.knn_query(query[0], query[1], k), live, query)
            _check(answer, live, query)
