"""Tests of the latency subsystem: sketches, virtual time, tenants, surfaces.

The satellite coverage the latency PR promises: percentile-sketch accuracy
against exact ``numpy.percentile`` on adversarial distributions, virtual
clock determinism (same spec + seed -> identical per-op timestamps), and the
multi-tenant merge preserving per-tenant operation order with oracle
agreement intact.
"""

import numpy as np
import pytest

from repro.baselines import GridFile, KDBTree
from repro.geometry import Rect
from repro.workloads import (
    LatencyRecorder,
    LatencySummary,
    MultiTenantOracle,
    OracleIndex,
    PercentileSketch,
    ScenarioRunner,
    VirtualClock,
    derive_tenant_specs,
    generate_arrival_schedule,
    generate_operations,
    generate_tenant_operations,
    jains_fairness_index,
    scenario_by_name,
    split_tenant_points,
)


def _points(n=300, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


# -- percentile sketch ---------------------------------------------------------


class TestPercentileSketch:
    def test_exact_below_capacity(self):
        values = np.random.default_rng(1).lognormal(size=500)
        sketch = PercentileSketch(capacity=1024)
        sketch.extend(values)
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert sketch.quantile(q) == pytest.approx(float(np.quantile(values, q)))
        assert sketch.count == 500
        assert sketch.mean == pytest.approx(float(values.mean()))
        assert sketch.minimum == pytest.approx(float(values.min()))
        assert sketch.maximum == pytest.approx(float(values.max()))

    @pytest.mark.parametrize(
        "name,values",
        [
            # heavy tail: the p99 region is two orders above the median
            ("lognormal", np.random.default_rng(2).lognormal(mean=0, sigma=2, size=20_000)),
            # far-apart modes: quantiles jump across the gap
            ("bimodal", np.concatenate([
                np.random.default_rng(3).normal(1.0, 0.01, size=10_000),
                np.random.default_rng(4).normal(100.0, 0.01, size=10_000),
            ])),
            # adversarial order: strictly increasing ramp (reservoir must not
            # be biased toward early/late arrivals)
            ("sorted-ramp", np.linspace(0.0, 1.0, 20_000)),
            # near-constant with rare spikes
            ("spiky", np.where(np.arange(20_000) % 1000 == 0, 50.0, 0.5)),
        ],
    )
    def test_tracks_numpy_percentile_on_adversarial_distributions(self, name, values):
        """Sketch quantiles stay within a small *rank* error of brute force."""
        sketch = PercentileSketch(capacity=4096, seed=7)
        sketch.extend(values)
        ordered = np.sort(values)
        for q in (0.5, 0.95, 0.99):
            estimate = sketch.quantile(q)
            # the estimate's rank interval in the true data must cover q
            # (ties span an interval, hence left/right bounds)
            lo = np.searchsorted(ordered, estimate, side="left") / len(ordered)
            hi = np.searchsorted(ordered, estimate, side="right") / len(ordered)
            assert lo - 0.03 <= q <= hi + 0.03, (
                f"{name}: q={q} estimate {estimate} spans ranks [{lo:.4f}, {hi:.4f}]"
            )

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(5).exponential(size=10_000)
        a = PercentileSketch(capacity=256, seed=9)
        b = PercentileSketch(capacity=256, seed=9)
        a.extend(values)
        b.extend(values)
        assert a.quantile(0.99) == b.quantile(0.99)

    def test_empty_and_invalid(self):
        sketch = PercentileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert LatencySummary.from_sketch(sketch) is None
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            PercentileSketch(capacity=0)

    def test_summary_units_and_order(self):
        sketch = PercentileSketch()
        sketch.extend([0.001, 0.002, 0.010])  # seconds
        summary = LatencySummary.from_sketch(sketch)
        assert summary.count == 3
        assert summary.p50_ms == pytest.approx(2.0)
        assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms <= summary.max_ms
        assert set(summary.as_dict()) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        }


# -- virtual clock -------------------------------------------------------------


class TestVirtualClock:
    def test_sojourn_equals_service_when_underloaded(self):
        clock = VirtualClock()
        # arrivals far apart: no queueing
        assert clock.serve(0.0, 1.0) == pytest.approx(1.0)
        assert clock.serve(10.0, 2.0) == pytest.approx(2.0)
        assert clock.server_free == pytest.approx(12.0)

    def test_queue_grows_when_overloaded(self):
        clock = VirtualClock()
        # arrivals every 0.5s, service 1.0s: the i-th op waits ~0.5*i extra
        sojourns = [clock.serve(0.5 * i, 1.0) for i in range(10)]
        assert sojourns[0] == pytest.approx(1.0)
        deltas = np.diff(sojourns)
        assert np.all(deltas == pytest.approx(0.5))
        assert clock.utilization() == pytest.approx(10.0 / clock.server_free)

    def test_rejects_negative_service(self):
        with pytest.raises(ValueError):
            VirtualClock().serve(0.0, -1.0)


class TestArrivalSchedules:
    def test_closed_loop_schedule_is_zero(self):
        spec = scenario_by_name("mixed").with_overrides(n_ops=50)
        assert not np.any(generate_arrival_schedule(spec, 50))

    def test_open_loop_deterministic_per_spec_seed(self):
        """Same spec + seed -> identical per-op timestamps, different seed differs."""
        spec = scenario_by_name("latency-hotspot").with_overrides(n_ops=400, seed=3)
        a = generate_arrival_schedule(spec, 400)
        b = generate_arrival_schedule(spec, 400)
        assert np.array_equal(a, b)
        c = generate_arrival_schedule(spec.with_overrides(seed=4), 400)
        assert not np.array_equal(a, c)
        # the full operation stream carries the same timestamps
        points = _points()
        ops_a = generate_operations(spec, points)
        ops_b = generate_operations(spec, points)
        assert [op.arrival_time for op in ops_a] == [op.arrival_time for op in ops_b]
        assert [op.arrival_time for op in ops_a] == a.tolist()

    def test_open_loop_rate_is_respected(self):
        spec = scenario_by_name("tenant-mixed").with_overrides(
            n_ops=4_000, seed=5, arrival_rate=500.0
        )
        schedule = generate_arrival_schedule(spec, 4_000)
        assert np.all(np.diff(schedule) >= 0)
        realized = 4_000 / schedule[-1]
        assert realized == pytest.approx(500.0, rel=0.1)

    def test_bursty_open_loop_shares_instants(self):
        spec = scenario_by_name("tenant-mixed").with_overrides(
            n_ops=2_000, seed=6, arrival="bursty", burst_length=16
        )
        schedule = generate_arrival_schedule(spec, 2_000)
        assert np.all(np.diff(schedule) >= 0)
        # bursts collapse many arrivals onto one instant
        assert len(np.unique(schedule)) < 0.5 * len(schedule)
        realized = 2_000 / schedule[-1]
        assert realized == pytest.approx(spec.arrival_rate, rel=0.25)

    def test_arrival_model_validation(self):
        with pytest.raises(ValueError):
            scenario_by_name("mixed").with_overrides(arrival_model="laplace")
        with pytest.raises(ValueError):
            scenario_by_name("mixed").with_overrides(arrival_rate=0.0)
        with pytest.raises(ValueError):
            scenario_by_name("mixed").with_overrides(think_time=-1.0)


# -- runner latency surfaces ---------------------------------------------------


class TestRunnerLatency:
    def test_closed_loop_latency_recorded(self):
        points = _points(250, seed=10)
        index = GridFile(block_capacity=16).build(points)
        spec = scenario_by_name("mixed").with_overrides(n_ops=200, seed=11)
        result = ScenarioRunner(
            index, spec, oracle=OracleIndex().build(points), exact_results=True
        ).run(points)
        assert result.latency is not None and result.latency.count == 200
        # closed loop: sojourn == service per op, so the summaries agree
        assert result.latency.p99_ms == pytest.approx(
            result.service_latency.p99_ms, rel=1e-6
        )
        assert sum(s.count for s in result.latency_by_kind.values()) == 200
        assert list(result.latency_by_tenant) == [0]
        assert result.fairness is None
        for snapshot in result.snapshots:
            assert snapshot.latency is not None
            assert snapshot.latency.p50_ms <= snapshot.latency.p99_ms

    def test_open_loop_overload_builds_queue_delay(self):
        points = _points(250, seed=12)
        index = GridFile(block_capacity=16).build(points)
        # absurd offered load: every op queues behind the whole backlog
        spec = scenario_by_name("latency-hotspot").with_overrides(
            n_ops=200, seed=13, arrival_rate=1e9
        )
        result = ScenarioRunner(index, spec).run(points)
        assert result.latency.p99_ms > result.service_latency.p99_ms
        # with all arrivals at ~t=0 the mean sojourn is about half the run
        assert result.latency.mean_ms > 10 * result.service_latency.p50_ms

    def test_think_time_does_not_inflate_sojourn(self):
        points = _points(200, seed=14)
        index = GridFile(block_capacity=16).build(points)
        spec = scenario_by_name("mixed").with_overrides(
            n_ops=150, seed=15, think_time=10.0
        )
        result = ScenarioRunner(index, spec).run(points)
        # think time delays issue, it is not part of the measured sojourn
        assert result.latency.p99_ms == pytest.approx(
            result.service_latency.p99_ms, rel=1e-6
        )

    def test_latency_recorder_split(self):
        recorder = LatencyRecorder()
        recorder.record("point", 0, 0.001, 0.002)
        recorder.record("window", 1, 0.003, 0.004)
        assert recorder.sojourn_summary().count == 2
        assert set(recorder.by_kind()) == {"point", "window"}
        assert set(recorder.by_tenant()) == {0, 1}
        assert recorder.fairness() is not None


# -- multi-tenant streams ------------------------------------------------------


class TestMultiTenantStreams:
    def test_split_points_partitions(self):
        points = _points(101, seed=20)
        splits = split_tenant_points(points, 3)
        assert sum(s.shape[0] for s in splits) == 101
        merged = {tuple(p) for s in splits for p in s}
        assert merged == {tuple(p) for p in points}
        with pytest.raises(ValueError):
            split_tenant_points(points[:2], 3)

    def test_derived_specs_are_independent_and_open_loop(self):
        base = scenario_by_name("tenant-mixed").with_overrides(n_ops=100, seed=21)
        specs = derive_tenant_specs(base, 3)
        assert [s.n_ops for s in specs] == [34, 33, 33]
        assert len({s.seed for s in specs}) == 3
        assert all(s.arrival_model == "open-loop" for s in specs)
        assert sum(s.arrival_rate for s in specs) == pytest.approx(base.arrival_rate)

    def test_merge_preserves_per_tenant_order(self):
        points = _points(300, seed=22)
        base = scenario_by_name("tenant-mixed").with_overrides(n_ops=240, seed=23)
        operations, tenant_points = generate_tenant_operations(base, points, 3)
        assert len(operations) == 240
        # merged stream is globally ordered by arrival time
        times = [op.arrival_time for op in operations]
        assert times == sorted(times)
        # each tenant's subsequence equals its own stream, in order
        for tenant, spec in enumerate(derive_tenant_specs(base, 3)):
            own = [op for op in operations if op.tenant == tenant]
            expected = generate_operations(spec, tenant_points[tenant])
            assert [
                (op.kind, op.x, op.y, op.arrival_time) for op in own
            ] == [(op.kind, op.x, op.y, op.arrival_time) for op in expected]

    @pytest.mark.parametrize("index_kind", [GridFile, KDBTree])
    def test_oracle_agreement_under_multi_tenancy(self, index_kind):
        points = _points(300, seed=24)
        base = scenario_by_name("tenant-mixed").with_overrides(n_ops=300, seed=25)
        operations, tenant_points = generate_tenant_operations(base, points, 3)
        oracle = MultiTenantOracle(3).build(tenant_points)
        index = index_kind(block_capacity=16).build(points)
        result = ScenarioRunner(
            index, base, oracle=oracle, exact_results=True
        ).replay(operations)
        assert result.checked
        assert set(result.latency_by_tenant) == {0, 1, 2}
        assert sum(s.count for s in result.latency_by_tenant.values()) == 300
        assert result.fairness is not None and 0.0 < result.fairness <= 1.0
        # per-tenant shadows track their own live points; the union matches
        # what an independent single oracle replay would hold
        replay = OracleIndex().build(points)
        for op in operations:
            if op.kind == "insert":
                replay.insert(op.x, op.y)
            elif op.kind == "delete":
                replay.delete(op.x, op.y)
        assert oracle.n_points == replay.n_points
        assert sum(oracle.per_tenant_points()) == oracle.n_points

    def test_multi_tenant_oracle_routes_writes(self):
        oracle = MultiTenantOracle(2).build([_points(10, 30), _points(10, 31)])
        oracle.insert(5.0, 5.0, tenant=1)
        assert oracle.contains(5.0, 5.0)
        assert oracle.per_tenant_points() == [10, 11]
        assert not oracle.delete(5.0, 5.0, tenant=0)  # belongs to tenant 1
        assert oracle.delete(5.0, 5.0, tenant=1)
        assert oracle.per_tenant_points() == [10, 10]
        window = Rect(0.0, 0.0, 1.0, 1.0)
        assert oracle.window_query(window).shape[0] == 20
        assert oracle.knn_query(0.5, 0.5, 5).shape == (5, 2)

    def test_fairness_index(self):
        assert jains_fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jains_fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        with pytest.raises(ValueError):
            jains_fairness_index([])
