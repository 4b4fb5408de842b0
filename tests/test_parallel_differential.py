"""Differential tests: process-pool serving must answer exactly like one index.

The :class:`~repro.serving.ParallelShardEngine` moves shard state into
worker processes; nothing about the move may change an answer.  These tests
compare whole query batches byte-for-byte against the single-process
:class:`~repro.sharding.ShardedBatchEngine` built from the *same*
:class:`~repro.serving.ServingSpec`, across exact index kinds x sharding
policies x worker counts, over rebalanced (split/merged) topologies, and
through full scenario replays with the oracle shadow
attached — including streams filtered by token-bucket admission.

Read accounting matches exactly for point and window batches (each worker
counts its shards' reads and the parent merges them).  kNN accounting is an
*upper bound*: the single-process engine's best-first expansion shares the
running k-th distance across shards to prune, which independent worker
processes cannot do — answers stay identical, access counts may not.
"""

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.datasets import dataset_by_name
from repro.geometry import Rect
from repro.serving import ParallelShardEngine, ServingSpec, admit_operations
from repro.sharding import ShardedBatchEngine, shard_index_factory
from repro.workloads import OracleIndex, ScenarioRunner, generate_operations, scenario_by_name

from tests.conftest import FAST_TRAINING

POLICIES = ("grid", "zorder", "balanced")
EXACT_KINDS = ("Grid", "KDB", "RSMIa")
WORKER_COUNTS = (1, 2, 4)


def build_spec(kind, policy="grid", n_shards=4, n_points=350, seed=31):
    points = dataset_by_name("skewed", n_points, seed=seed)
    factory = shard_index_factory(
        kind,
        block_capacity=10,
        partition_threshold=150,
        training=FAST_TRAINING,
    )
    spec = ServingSpec.from_points(
        factory, points, n_shards=n_shards, policy=policy, name=kind
    )
    return spec, points


def query_batches(points, seed=7, n_queries=120):
    rng = np.random.default_rng(seed)
    queries = rng.random((n_queries, 2))
    queries[: n_queries // 2] = points[
        rng.integers(0, points.shape[0], size=n_queries // 2)
    ]
    windows = [
        Rect.from_center(float(x), float(y), 0.15, 0.12).clip_to(Rect.unit())
        for x, y in rng.random((30, 2))
    ]
    knn = rng.random((20, 2))
    return queries, windows, knn


def assert_identical(engine, reference, points, seed=7):
    """Every batch kind answers byte-identically; point/window reads match."""
    queries, windows, knn = query_batches(points, seed=seed)

    got = engine.execute(QueryRequest.for_points(queries))
    want = reference.execute(QueryRequest.for_points(queries))
    assert got.values == want.values
    assert got.access.logical_reads == want.access.logical_reads
    assert got.access.per_shard_logical_reads == want.access.per_shard_logical_reads

    got = engine.execute(QueryRequest.for_windows(windows))
    want = reference.execute(QueryRequest.for_windows(windows))
    for a, b in zip(got.values, want.values):
        a = np.asarray(a, dtype=float).reshape(-1, 2)
        b = np.asarray(b, dtype=float).reshape(-1, 2)
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert got.access.logical_reads == want.access.logical_reads

    got = engine.execute(QueryRequest.for_knn(knn, k=5))
    want = reference.execute(QueryRequest.for_knn(knn, k=5))
    for a, b in zip(got.values, want.values):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    # upper bound only: workers cannot share the best-first pruning distance
    assert got.access.logical_reads >= want.access.logical_reads


@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_two_worker_smoke(kind):
    """Tier-1 smoke: every exact kind through a real 2-process pool."""
    spec, points = build_spec(kind)
    reference = ShardedBatchEngine(spec.build_index())
    with ParallelShardEngine(spec, n_workers=2) as engine:
        assert engine.n_processes == 2
        assert engine.n_points == points.shape[0]
        assert_identical(engine, reference, points)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_worker_counts_identical(n_workers):
    spec, points = build_spec("Grid")
    reference = ShardedBatchEngine(spec.build_index())
    with ParallelShardEngine(spec, n_workers=n_workers) as engine:
        assert_identical(engine, reference, points)


@pytest.mark.parametrize("policy", POLICIES)
def test_policies_identical(policy):
    spec, points = build_spec("KDB", policy=policy)
    reference = ShardedBatchEngine(spec.build_index())
    with ParallelShardEngine(spec, n_workers=2) as engine:
        assert_identical(engine, reference, points)


def test_writes_fan_out_and_are_billed():
    """Inserts/deletes land in the owning worker, billed like a direct index."""
    spec, points = build_spec("Grid")
    index = spec.build_index()

    def total_reads():
        return sum(int(shard.stats.total_reads) for shard in index.shards)

    rng = np.random.default_rng(11)
    extra = rng.random((40, 2))
    with ParallelShardEngine(spec, n_workers=2) as engine:
        before = total_reads()
        for x, y in extra:
            engine.insert(float(x), float(y))
            index.insert(float(x), float(y))
        logical, physical = engine.pop_write_accesses()
        # same billing a single-process index records for the same writes
        assert logical == total_reads() - before
        assert engine.pop_write_accesses() == (0, 0)  # pop drains the counters
        assert engine.n_points == index.n_points
        removed = engine.delete(float(extra[0, 0]), float(extra[0, 1]))
        assert removed and index.delete(float(extra[0, 0]), float(extra[0, 1]))
        assert not engine.delete(-0.5, -0.5)
        assert_identical(engine, ShardedBatchEngine(index), points, seed=13)


def test_rebalanced_topology_served_identically():
    """A split/merged (adaptive-policy) index snapshots into the pool exactly."""
    spec, points = build_spec("Grid", n_shards=4)
    index = spec.build_index()
    index.enable_rebalancing()
    # drive real topology changes through the policy before snapshotting
    from repro.sharding import RebalanceConfig, RebalanceController

    controller = RebalanceController(
        index,
        RebalanceConfig(
            split_threshold=0.30,
            merge_threshold=0.05,
            cooldown_ticks=1,
            min_split_points=32,
            min_observations=64,
        ),
    )
    rng = np.random.default_rng(19)
    for _ in range(30):
        hot = {0: 500, 1: 30, 2: 30, 3: 30}
        controller.observe(per_shard_reads=hot)
        controller.tick()
        x, y = rng.random(2)
        index.insert(float(x), float(y))
    assert controller.report.n_splits >= 1
    live = index.window_query(Rect.unit())

    snapshot_spec = ServingSpec.from_index(index)
    assert snapshot_spec.n_shards == index.n_shards
    # workers rebuild compact shards from the snapshot, so accounting is
    # compared against an in-process engine built from the *same* spec; the
    # mutated live index (overflow chains and all) still checks the answers
    reference = ShardedBatchEngine(snapshot_spec.build_index())
    with ParallelShardEngine(snapshot_spec, n_workers=3) as engine:
        assert_identical(engine, reference, live, seed=23)
        queries = live[:50]
        got = engine.execute(QueryRequest.for_points(queries))
        assert got.values == [bool(index.contains(x, y)) for x, y in queries]


def replay_pair(kind, operations, points, spec):
    """The same stream through the pool engine and a plain sequential run."""
    engine_spec = ServingSpec.from_points(
        shard_index_factory(
            kind, block_capacity=10, partition_threshold=150, training=FAST_TRAINING
        ),
        points,
        n_shards=4,
        policy="grid",
        name=kind,
    )
    with ParallelShardEngine(engine_spec, n_workers=2) as engine:
        runner = ScenarioRunner(
            engine,
            spec,
            oracle=OracleIndex().build(points),
            exact_results=True,
            engine=engine,
        )
        parallel = runner.replay(list(operations))

    sequential_index = engine_spec.build_index()
    sequential = ScenarioRunner(
        sequential_index, spec, oracle=OracleIndex().build(points), exact_results=True
    ).replay(list(operations))
    return parallel, sequential


def test_scenario_replay_matches_sequential():
    """Oracle-checked replay: pool and sequential engines agree op for op."""
    points = dataset_by_name("skewed", 350, seed=29)
    spec = scenario_by_name("sharded-mixed").with_overrides(
        n_ops=220, snapshot_every=110, seed=29, k=5
    )
    operations = generate_operations(spec, points)
    parallel, sequential = replay_pair("Grid", operations, points, spec)
    assert parallel.checked and sequential.checked
    assert parallel.n_ops == sequential.n_ops == len(operations)


def test_admitted_stream_replays_identically():
    """Token-bucket admission composes: both engines see the accepted ops."""
    points = dataset_by_name("skewed", 300, seed=37)
    spec = scenario_by_name("sharded-mixed").with_overrides(
        n_ops=300,
        snapshot_every=150,
        seed=37,
        k=5,
        arrival_model="open-loop",
        arrival_rate=2000.0,
    )
    operations = generate_operations(spec, points)
    accepted, report = admit_operations(operations, tenant_rate=300.0)
    assert 0 < report.n_accepted < len(operations)
    parallel, sequential = replay_pair("Grid", accepted, points, spec)
    assert parallel.checked and sequential.checked
    assert parallel.n_ops == sequential.n_ops == report.n_accepted


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_full_matrix_identical(kind, policy):
    """Nightly: the full kind x policy x worker-count identity matrix."""
    spec, points = build_spec(kind, policy=policy, n_points=700, seed=41)
    reference = ShardedBatchEngine(spec.build_index())
    for n_workers in WORKER_COUNTS:
        with ParallelShardEngine(spec, n_workers=n_workers) as engine:
            assert_identical(engine, reference, points, seed=43)


@pytest.mark.slow
def test_spawn_start_method_identical():
    """Everything shipped to workers pickles: spawn answers like fork."""
    spec, points = build_spec("Grid")
    reference = ShardedBatchEngine(spec.build_index())
    with ParallelShardEngine(spec, n_workers=2, start_method="spawn") as engine:
        assert_identical(engine, reference, points)
