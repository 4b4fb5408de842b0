"""Unit tests of the scenario workload subsystem (spec, stream, oracle, runner)."""

import numpy as np
import pytest

from repro.baselines import GridFile
from repro.geometry import Rect
from repro.queries import brute_force_knn, brute_force_window
from repro.workloads import (
    OperationMix,
    OracleIndex,
    SCENARIO_PRESETS,
    ScenarioMismatch,
    ScenarioRunner,
    ScenarioSpec,
    generate_operations,
    scenario_by_name,
)
from repro.workloads.stream import Operation, read_requests


def _points(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


class TestOperationMix:
    def test_probabilities_normalised(self):
        mix = OperationMix(point=2.0, insert=1.0, delete=1.0)
        probabilities = mix.probabilities()
        assert probabilities == pytest.approx((0.5, 0.0, 0.0, 0.25, 0.25, 0.0))
        assert mix.write_fraction == pytest.approx(0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            OperationMix(point=-0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            OperationMix(point=0.0)


class TestScenarioSpec:
    def test_presets_are_valid_and_named(self):
        assert len(SCENARIO_PRESETS) >= 5
        for name, spec in SCENARIO_PRESETS.items():
            assert spec.name == name
            assert sum(spec.mix.probabilities()) == pytest.approx(1.0)

    def test_scenario_by_name(self):
        assert scenario_by_name("HOTSPOT ").distribution == "hotspot"
        with pytest.raises(ValueError):
            scenario_by_name("nope")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distribution": "weird"},
            {"arrival": "poisson"},
            {"n_ops": 0},
            {"snapshot_every": 0},
            {"k": 0},
            {"window_area_fraction": 0.0},
            {"window_aspect_ratio": -1.0},
            {"hotspot_fraction": 1.5},
            {"hotspot_extent": 0.0},
            {"zipf_exponent": 1.0},
            {"churn_period": 0},
            {"point_miss_fraction": -0.1},
            {"delete_miss_fraction": 2.0},
            {"burst_length": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", **kwargs)

    def test_with_overrides(self):
        spec = scenario_by_name("mixed").with_overrides(n_ops=42, seed=7)
        assert spec.n_ops == 42 and spec.seed == 7
        assert scenario_by_name("mixed").n_ops != 42 or True  # original untouched
        assert SCENARIO_PRESETS["mixed"].seed == 0


class TestStreamGeneration:
    def test_deterministic(self):
        points = _points()
        spec = scenario_by_name("mixed").with_overrides(n_ops=300, seed=5)
        assert generate_operations(spec, points) == generate_operations(spec, points)

    def test_different_seeds_differ(self):
        points = _points()
        spec = scenario_by_name("mixed").with_overrides(n_ops=300)
        a = generate_operations(spec.with_overrides(seed=1), points)
        b = generate_operations(spec.with_overrides(seed=2), points)
        assert a != b

    def test_length_and_kinds(self):
        points = _points()
        spec = scenario_by_name("bulk-churn").with_overrides(n_ops=250, seed=3)
        operations = generate_operations(spec, points)
        assert len(operations) == 250
        assert {op.kind for op in operations} <= {
            "point", "window", "knn", "insert", "delete"
        }

    def test_mix_ratios_approximately_respected(self):
        points = _points(400)
        spec = ScenarioSpec(
            name="ratios",
            mix=OperationMix(point=0.5, insert=0.3, delete=0.2),
            n_ops=3_000,
            seed=9,
        )
        operations = generate_operations(spec, points)
        fraction = sum(op.kind == "point" for op in operations) / len(operations)
        assert fraction == pytest.approx(0.5, abs=0.05)

    def test_deletes_target_stored_points(self):
        """Replaying through the oracle, at most the configured miss fraction
        of deletes can fail."""
        points = _points(300, seed=2)
        spec = scenario_by_name("write-heavy").with_overrides(
            n_ops=800, seed=4, delete_miss_fraction=0.05
        )
        oracle = OracleIndex().build(points)
        outcomes = []
        for op in generate_operations(spec, points):
            if op.kind == "insert":
                oracle.insert(op.x, op.y)
            elif op.kind == "delete":
                outcomes.append(oracle.delete(op.x, op.y))
        assert outcomes, "write-heavy scenario generated no deletes"
        assert np.mean(outcomes) >= 0.85

    def test_hotspot_concentrates_operations(self):
        points = _points(300, seed=6)
        spec = scenario_by_name("hotspot").with_overrides(
            n_ops=600, seed=8, hotspot_fraction=1.0, hotspot_extent=0.1
        )
        inserts = np.asarray(
            [(op.x, op.y) for op in generate_operations(spec, points) if op.kind == "insert"]
        )
        assert inserts.shape[0] > 20
        extent = inserts.max(axis=0) - inserts.min(axis=0)
        # every insert lands in one region of ~0.1 side length
        assert np.all(extent <= 0.11)

    def test_drifting_region_moves(self):
        points = _points(300, seed=7)
        spec = scenario_by_name("drifting").with_overrides(
            n_ops=1_000, seed=10, hotspot_fraction=1.0, drift_cycles=0.5
        )
        operations = generate_operations(spec, points)
        fresh = [(op.x, op.y) for op in operations if op.kind in ("insert", "window", "knn")]
        early = np.mean(fresh[: len(fresh) // 4], axis=0)
        late = np.mean(fresh[-len(fresh) // 4 :], axis=0)
        assert np.hypot(*(late - early)) > 0.15

    def test_bursty_arrival_produces_runs(self):
        points = _points()
        base = scenario_by_name("mixed").with_overrides(n_ops=2_000, seed=12)

        def mean_run_length(operations):
            runs, current = [], 1
            for previous, op in zip(operations, operations[1:]):
                if op.kind == previous.kind:
                    current += 1
                else:
                    runs.append(current)
                    current = 1
            runs.append(current)
            return np.mean(runs)

        steady = mean_run_length(generate_operations(base, points))
        bursty = mean_run_length(
            generate_operations(
                base.with_overrides(arrival="bursty", burst_length=32), points
            )
        )
        assert bursty > 4 * steady

    def test_zipfian_access_is_skewed(self):
        points = _points(500, seed=1)
        # read-only mix: deletions would recycle the popular slots and dilute the skew
        spec = scenario_by_name("zipfian").with_overrides(
            mix=OperationMix(point=1.0),
            n_ops=2_000,
            seed=13,
            zipf_exponent=2.0,
            point_miss_fraction=0.0,
        )
        operations = generate_operations(spec, points)
        keys = [(op.x, op.y) for op in operations if op.kind == "point"]
        _, counts = np.unique(np.asarray(keys), axis=0, return_counts=True)
        # the most popular key dominates: far above the uniform expectation
        assert counts.max() >= 0.05 * len(keys)

    def test_empty_initial_points_rejected(self):
        with pytest.raises(ValueError):
            generate_operations(scenario_by_name("mixed"), np.empty((0, 2)))

    def test_read_requests_split_knn_ops_by_k(self):
        ops = [
            Operation("knn", 0.1, 0.1, k=3),
            Operation("point", 0.2, 0.2),
            Operation("knn", 0.3, 0.3, k=5),
            Operation("insert", 0.4, 0.4),
            Operation("knn", 0.5, 0.5, k=3),
        ]
        requests = read_requests(ops)
        assert [(positions, request.kind) for positions, request in requests] == [
            ([1], "point"),
            ([0, 4], "knn"),
            ([2], "knn"),
        ]
        assert [request.k for _, request in requests[1:]] == [3, 5]


class TestOracleIndex:
    def test_matches_brute_force(self):
        points = _points(150, seed=20)
        oracle = OracleIndex().build(points)
        assert oracle.n_points == 150
        for x, y in points[:10]:
            assert oracle.contains(float(x), float(y))
        assert not oracle.contains(2.0, 2.0)

        window = Rect(0.2, 0.2, 0.6, 0.5)
        got = {tuple(p) for p in oracle.window_query(window)}
        want = {tuple(p) for p in brute_force_window(points, window)}
        assert got == want

        got_knn = oracle.knn_query(0.4, 0.4, 7)
        want_knn = brute_force_knn(points, 0.4, 0.4, 7)
        assert np.allclose(
            np.sort(np.hypot(got_knn[:, 0] - 0.4, got_knn[:, 1] - 0.4)),
            np.sort(np.hypot(want_knn[:, 0] - 0.4, want_knn[:, 1] - 0.4)),
        )

    def test_updates(self):
        oracle = OracleIndex().build(_points(50, seed=21))
        assert not oracle.delete(3.0, 3.0)
        oracle.insert(3.0, 3.0)
        assert oracle.contains(3.0, 3.0)
        with pytest.raises(ValueError):
            oracle.insert(3.0, 3.0)
        assert oracle.delete(3.0, 3.0)
        assert not oracle.contains(3.0, 3.0)
        assert oracle.n_points == 50

    def test_window_reflects_mutations(self):
        oracle = OracleIndex().build(np.array([[0.5, 0.5]]))
        window = Rect(0.0, 0.0, 1.0, 1.0)
        assert oracle.window_query(window).shape[0] == 1
        oracle.insert(0.25, 0.25)
        assert oracle.window_query(window).shape[0] == 2
        oracle.delete(0.5, 0.5)
        assert {tuple(p) for p in oracle.window_query(window)} == {(0.25, 0.25)}

    def test_knn_empty_and_invalid(self):
        oracle = OracleIndex()
        assert oracle.knn_query(0.5, 0.5, 3).shape == (0, 2)
        with pytest.raises(ValueError):
            oracle.knn_query(0.5, 0.5, 0)


class _TamperedOracle:
    """Wrap an OracleIndex and corrupt one aspect of its behaviour."""

    name = "Tampered"

    def __init__(self, inner, corrupt: str):
        self._inner = inner
        self._corrupt = corrupt

    def __getattr__(self, item):
        return getattr(self._inner, item)

    def contains(self, x, y):
        if self._corrupt == "point":
            return False
        return self._inner.contains(x, y)

    def window_query(self, window):
        result = self._inner.window_query(window)
        if self._corrupt == "window-false-positive":
            return np.vstack([result, [[5.0, 5.0]]])
        if self._corrupt == "window-drop" and result.shape[0] > 0:
            return result[:-1]
        return result

    def delete(self, x, y):
        if self._corrupt == "delete":
            self._inner.delete(x, y)
            return True  # lies about misses
        return self._inner.delete(x, y)


class TestScenarioRunner:
    def test_snapshot_cadence_and_totals(self):
        points = _points(250, seed=30)
        index = GridFile(block_capacity=16).build(points)
        spec = scenario_by_name("mixed").with_overrides(
            n_ops=230, snapshot_every=100, seed=31
        )
        result = ScenarioRunner(
            index, spec, oracle=OracleIndex().build(points), exact_results=True
        ).run(points)
        assert result.checked
        assert [s.op_index for s in result.snapshots] == [100, 200, 230]
        assert sum(s.interval_ops for s in result.snapshots) == 230
        assert sum(result.op_counts.values()) == 230
        assert result.total_block_accesses > 0
        # the final snapshot's live count matches an independent replay
        replay = OracleIndex().build(points)
        for op in generate_operations(spec, points):
            if op.kind == "insert":
                replay.insert(op.x, op.y)
            elif op.kind == "delete":
                replay.delete(op.x, op.y)
        assert result.snapshots[-1].n_points == replay.n_points

    def test_runs_without_oracle(self):
        points = _points(200, seed=32)
        index = GridFile(block_capacity=16).build(points)
        spec = scenario_by_name("read-heavy").with_overrides(n_ops=120, seed=33)
        result = ScenarioRunner(index, spec).run(points)
        assert not result.checked
        assert result.snapshots[-1].window_recall is None
        assert result.snapshots[-1].n_points == index.n_points

    def test_oracle_vs_oracle_agrees_exactly(self):
        points = _points(150, seed=34)
        spec = scenario_by_name("bulk-churn").with_overrides(n_ops=300, seed=35)
        result = ScenarioRunner(
            OracleIndex().build(points),
            spec,
            oracle=OracleIndex().build(points),
            exact_results=True,
        ).run(points)
        assert result.checked and result.n_ops == 300

    @pytest.mark.parametrize("corrupt", ["point", "window-false-positive", "delete"])
    def test_mismatch_detected(self, corrupt):
        points = _points(150, seed=36)
        spec = scenario_by_name("mixed").with_overrides(n_ops=400, seed=37)
        tampered = _TamperedOracle(OracleIndex().build(points), corrupt)
        runner = ScenarioRunner(
            tampered, spec, oracle=OracleIndex().build(points), exact_results=False
        )
        with pytest.raises(ScenarioMismatch):
            runner.run(points)

    def test_dropped_window_point_caught_only_under_exact_policy(self):
        """Soundness allows missing results (approximate indices); the exact
        policy does not."""
        points = _points(150, seed=38)
        spec = scenario_by_name("read-heavy").with_overrides(n_ops=300, seed=39)
        sound = ScenarioRunner(
            _TamperedOracle(OracleIndex().build(points), "window-drop"),
            spec,
            oracle=OracleIndex().build(points),
            exact_results=False,
        ).run(points)
        assert sound.checked
        # recall < 1 is recorded rather than raised
        recalls = [s.window_recall for s in sound.snapshots if s.window_recall is not None]
        assert recalls and min(recalls) < 1.0

        with pytest.raises(ScenarioMismatch):
            ScenarioRunner(
                _TamperedOracle(OracleIndex().build(points), "window-drop"),
                spec,
                oracle=OracleIndex().build(points),
                exact_results=True,
            ).run(points)

    def test_invalid_batch_size(self):
        index = GridFile(block_capacity=16).build(_points(50))
        with pytest.raises(ValueError):
            ScenarioRunner(index, scenario_by_name("mixed"), batch_size=0)
