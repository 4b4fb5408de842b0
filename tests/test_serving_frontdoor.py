"""Tests of the async front door: admission, shedding, adaptive batching.

Everything gated here is deterministic by construction: token buckets run
on the stream's *virtual* arrival instants (same spec + seed ⇒ identical
accept/reject decisions), and in unpaced mode the producer enqueues the
whole stream before the consumer dispatches, so the adaptive batch
schedule is a pure function of the stream too.  Wall-clock behaviour
(paced sojourns) is only sanity-checked, never compared.
"""

import numpy as np
import pytest

from repro.analytics import QueryRequest
from repro.datasets import dataset_by_name
from repro.serving import (
    FrontDoor,
    ParallelShardEngine,
    ServingSpec,
    TokenBucket,
    admit_operations,
)
from repro.sharding import ShardedBatchEngine, shard_index_factory
from repro.workloads import (
    Operation,
    generate_operations,
    generate_tenant_operations,
    scenario_by_name,
)

from tests.conftest import FAST_TRAINING

POINTS = dataset_by_name("skewed", 300, seed=53)


def build_spec(n_shards=4):
    factory = shard_index_factory(
        "Grid", block_capacity=10, partition_threshold=150, training=FAST_TRAINING
    )
    return ServingSpec.from_points(factory, POINTS, n_shards=n_shards, policy="grid")


def open_loop_ops(n_ops=240, rate=2000.0, seed=53, tenants=4):
    spec = scenario_by_name("tenant-mixed").with_overrides(
        n_ops=n_ops, seed=seed, k=5, arrival_rate=rate
    )
    operations, _ = generate_tenant_operations(spec, POINTS, tenants)
    return operations


class TestTokenBucket:
    def test_refills_along_virtual_time(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.admit(0.0) and bucket.admit(0.0)
        assert not bucket.admit(0.0)  # burst spent
        assert bucket.admit(0.1)  # 0.1s * 10/s refills exactly one token
        assert not bucket.admit(0.1)

    def test_burst_caps_the_refill(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        assert bucket.admit(0.0)
        # a long silence refills to the cap, not beyond
        for _ in range(3):
            assert bucket.admit(10.0)
        assert not bucket.admit(10.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.admit(5.0)
        assert not bucket.admit(1.0)  # stale instant: no refill, no crash

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmission:
    def test_same_stream_same_decisions(self):
        operations = open_loop_ops()
        accepted_a, report_a = admit_operations(operations, tenant_rate=400.0)
        accepted_b, report_b = admit_operations(operations, tenant_rate=400.0)
        assert report_a.decisions == report_b.decisions
        assert [id(op) for op in accepted_a] == [id(op) for op in accepted_b]
        assert 0 < report_a.n_accepted < report_a.n_offered

    def test_seeded_regeneration_same_decisions(self):
        """Two independently *generated* streams with one seed agree."""
        _, report_a = admit_operations(open_loop_ops(seed=59), tenant_rate=300.0)
        _, report_b = admit_operations(open_loop_ops(seed=59), tenant_rate=300.0)
        assert report_a.decisions == report_b.decisions
        assert report_a.as_dict() == report_b.as_dict()
        _, other = admit_operations(open_loop_ops(seed=60), tenant_rate=300.0)
        assert other.decisions != report_a.decisions  # the seed is load-bearing

    def test_closed_loop_streams_are_never_rate_limited(self):
        """Closed-loop arrival times are all zero: only the burst admits."""
        spec = scenario_by_name("sharded-mixed").with_overrides(n_ops=50, seed=61)
        operations = generate_operations(spec, POINTS)
        accepted, report = admit_operations(operations, tenant_rate=1000.0, burst=8.0)
        # every op "arrives" at t=0, so exactly the burst gets through per tenant
        tenants = {op.tenant for op in operations}
        assert report.n_accepted == min(50, 8 * len(tenants))

    def test_front_door_admission_matches_prefilter(self):
        """FrontDoor's inline admission equals the admit_operations prefilter."""
        operations = open_loop_ops(rate=3000.0)
        _, want = admit_operations(operations, tenant_rate=500.0)
        spec = build_spec()
        door = FrontDoor(
            ShardedBatchEngine(spec.build_index()), tenant_rate=500.0
        )
        report = door.serve(operations, paced=False)
        assert report.admission.decisions == want.decisions
        assert report.n_shed == 0  # unpaced mode never sheds
        assert report.n_served == want.n_accepted


class TestAdaptiveBatching:
    def _door(self, **kwargs):
        spec = build_spec()
        return FrontDoor(ShardedBatchEngine(spec.build_index()), **kwargs)

    def test_unpaced_batch_schedule_is_deterministic(self):
        """Reads run in clamped batches; writes dispatch alone, in order."""
        operations = open_loop_ops(n_ops=200, seed=67)
        door = self._door(max_batch=16)
        report = door.serve(operations, paced=False)
        kinds = ["write" if op.kind in ("insert", "delete") else "read"
                 for op in operations]
        expected: list[int] = []
        run = 0
        for kind in kinds:
            if kind == "read":
                run += 1
                if run == 16:
                    expected.append(run)
                    run = 0
                continue
            if run:
                expected.append(run)
                run = 0
            expected.append(1)
        if run:
            expected.append(run)
        assert report.batch_sizes == expected
        assert report.n_served == len(operations)

    def test_min_batch_and_max_batch_clamp(self):
        operations = [op for op in open_loop_ops(n_ops=120, seed=71)
                      if op.kind in ("point", "window", "knn")]
        report = self._door(max_batch=8).serve(operations, paced=False)
        assert max(report.batch_sizes) <= 8
        assert sum(report.batch_sizes) == len(operations)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            self._door(max_inflight=0)
        with pytest.raises(ValueError):
            self._door(min_batch=5, max_batch=2)
        with pytest.raises(ValueError):
            self._door().serve([], speed=0.0)


class TestAnswersIdentity:
    def test_collected_answers_match_sequential_replay(self):
        """Front-door answers == one-op-at-a-time replay of the same stream."""
        operations = open_loop_ops(n_ops=180, seed=73)
        spec = build_spec()
        door = FrontDoor(
            ShardedBatchEngine(spec.build_index()), collect_answers=True
        )
        report = door.serve(operations, paced=False)
        assert report.answers is not None
        assert len(report.answers) == len(operations)

        replay = ShardedBatchEngine(spec.build_index())
        for op, got in zip(operations, report.answers):
            if op.kind == "point":
                request = QueryRequest.for_points(np.array([[op.x, op.y]]))
                want = replay.execute(request).values[0]
                assert got == want
            elif op.kind == "window":
                want = replay.execute(QueryRequest.for_windows([op.window])).values[0]
                np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
            elif op.kind == "knn":
                request = QueryRequest.for_knn(np.array([[op.x, op.y]]), op.k)
                want = replay.execute(request).values[0]
                np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
            elif op.kind == "insert":
                replay.index.insert(op.x, op.y)
                assert got is None
            else:
                assert got == bool(replay.index.delete(op.x, op.y))

    def test_parallel_engine_behind_the_door(self):
        """The process-pool engine serves the same stream identically."""
        operations = open_loop_ops(n_ops=150, seed=79)
        spec = build_spec()
        reference = FrontDoor(
            ShardedBatchEngine(spec.build_index()), collect_answers=True
        ).serve(operations, paced=False)
        with ParallelShardEngine(spec, n_workers=2) as engine:
            report = FrontDoor(engine, collect_answers=True).serve(
                operations, paced=False
            )
        assert len(report.answers) == len(reference.answers)
        for got, want in zip(report.answers, reference.answers):
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(np.asarray(got), want)
            else:
                assert got == want


    def test_writes_to_the_parallel_engine_land_in_the_workers(self):
        """Inserts and deletes through the door reach the owning worker:
        later point queries see them, and the engine bills their reads."""
        inserted = np.random.default_rng(97).random((12, 2))
        deleted = POINTS[:8]
        operations = [Operation("insert", float(x), float(y)) for x, y in inserted]
        operations += [Operation("delete", float(x), float(y)) for x, y in deleted]
        with ParallelShardEngine(build_spec(), n_workers=2) as engine:
            report = FrontDoor(engine, collect_answers=True).serve(operations, paced=False)
            assert report.answers == [None] * len(inserted) + [True] * len(deleted)
            assert engine.stats.total_reads > 0
            assert engine.n_points == POINTS.shape[0] + len(inserted) - len(deleted)
            found = engine.execute(QueryRequest.for_points(np.vstack([inserted, deleted])))
        assert found.values == [True] * len(inserted) + [False] * len(deleted)


class TestPacedMode:
    def test_inflight_bound_sheds_the_burst(self):
        """Simultaneous arrivals against max_inflight=1: one queues, rest shed."""
        operations = open_loop_ops(n_ops=60, rate=1e9, seed=83)
        door = FrontDoor(
            ShardedBatchEngine(build_spec().build_index()), max_inflight=1
        )
        report = door.serve(operations, paced=True)
        # all arrivals land before the consumer runs; exactly one fits
        assert report.n_shed == len(operations) - 1
        assert report.n_served == 1

    def test_paced_run_measures_sojourns(self):
        operations = open_loop_ops(n_ops=80, rate=4000.0, seed=89)
        door = FrontDoor(ShardedBatchEngine(build_spec().build_index()))
        report = door.serve(operations, paced=True, speed=2.0)
        assert report.sojourn is not None
        assert report.sojourn.p99_ms >= 0.0
        assert report.n_served + report.n_shed == len(operations)
        assert report.elapsed_s > 0.0
