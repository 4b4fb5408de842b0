"""Update-interleaving tests for the batched query engine.

The engine caches blocks only within a single batch call, so insertions and
deletions performed *between* batches (through :mod:`repro.core.updates` for
the RSMI, and the uniform insert/delete protocol for the baselines) must be
visible to the next batch exactly as they are to the sequential query paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.baselines import GridFile
from repro.core import RSMI, RSMIConfig
from tests.reference_loops import batch_point_queries, batch_window_queries
from repro.engine import BatchQueryEngine
from repro.datasets import dataset_by_name
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.queries import brute_force_window


@pytest.fixture()
def rsmi_index():
    points = dataset_by_name("skewed", 400, seed=41)
    config = RSMIConfig(
        block_capacity=16,
        partition_threshold=150,
        training=TrainingConfig(epochs=10, seed=0),
        seed=0,
    )
    return points, RSMI(config).build(points)


def _assert_batches_agree(index, queries, windows):
    engine = BatchQueryEngine(index)
    sequential_p = batch_point_queries(index, queries)
    batched_p = engine.execute(QueryRequest.for_points(queries))
    assert batched_p.values == sequential_p.results
    sequential_w = batch_window_queries(index, windows)
    batched_w = engine.execute(QueryRequest.for_windows(windows))
    for got, want in zip(batched_w.values, sequential_w.results):
        assert np.array_equal(got, want)


class TestRSMIUpdateInterleaving:
    def test_inserts_between_batches_are_visible(self, rsmi_index):
        points, index = rsmi_index
        rng = np.random.default_rng(8)
        new_points = rng.random((30, 2))
        queries = np.vstack([points[::10], new_points])
        windows = [Rect(0.1, 0.1, 0.6, 0.6), Rect(0.0, 0.0, 1.0, 1.0)]
        engine = BatchQueryEngine(index)

        before = engine.execute(QueryRequest.for_points(queries))
        # before the inserts, none of the new points exist (matching sequential)
        assert before.values[-30:] == [False] * 30
        _assert_batches_agree(index, queries, windows)

        for x, y in new_points:
            index.insert(float(x), float(y))

        after = engine.execute(QueryRequest.for_points(queries))
        assert after.values[-30:] == [True] * 30
        _assert_batches_agree(index, queries, windows)

    def test_deletes_between_batches_are_visible(self, rsmi_index):
        points, index = rsmi_index
        victims = points[:20]
        queries = points[:60]
        windows = [Rect(0.0, 0.0, 1.0, 1.0)]
        engine = BatchQueryEngine(index)

        assert engine.execute(QueryRequest.for_points(queries)).values == [True] * 60

        for x, y in victims:
            assert index.delete(float(x), float(y))

        after = engine.execute(QueryRequest.for_points(queries))
        assert after.values == [False] * 20 + [True] * 40
        _assert_batches_agree(index, queries, windows)

    def test_mixed_update_stream_between_batches(self, rsmi_index):
        """Alternate batches with insert+delete rounds; engine tracks sequential."""
        points, index = rsmi_index
        rng = np.random.default_rng(15)
        queries = points[::5]
        windows = [Rect(0.2, 0.0, 0.7, 0.4)]
        for round_no in range(3):
            inserts = rng.random((10, 2))
            for x, y in inserts:
                index.insert(float(x), float(y))
            for x, y in points[round_no * 5 : round_no * 5 + 5]:
                assert index.delete(float(x), float(y))
            batch_queries = np.vstack([queries, inserts])
            _assert_batches_agree(index, batch_queries, windows)
            # the freshly inserted points are reported by the batched path
            found = BatchQueryEngine(index).execute(QueryRequest.for_points(inserts)).values
            assert found == [True] * 10


class TestBaselineUpdateInterleaving:
    def test_grid_file_updates_between_batches(self):
        points = dataset_by_name("uniform", 300, seed=3)
        index = GridFile(block_capacity=16).build(points)
        engine = BatchQueryEngine(index)
        rng = np.random.default_rng(4)
        live = [tuple(map(float, p)) for p in points]

        for _ in range(3):
            inserts = rng.random((8, 2))
            for x, y in inserts:
                index.insert(float(x), float(y))
                live.append((float(x), float(y)))
            for x, y in list(live[:4]):
                assert index.delete(x, y)
            del live[:4]

            queries = np.asarray(live[::7], dtype=float)
            batched = engine.execute(QueryRequest.for_points(queries))
            assert batched.values == batch_point_queries(index, queries).results
            assert all(batched.values)

            window = Rect(0.25, 0.25, 0.75, 0.75)
            got = engine.execute(QueryRequest.for_windows([window])).values[0]
            want = brute_force_window(np.asarray(live, dtype=float), window)
            assert {tuple(p) for p in np.round(got, 12)} == {
                tuple(p) for p in np.round(want, 12)
            }
