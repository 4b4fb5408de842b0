"""Differential tests: the sharded index must answer exactly like one index.

Sharding is a serving-layer concern — it must never change an answer.  The
harness drives a :class:`ShardedSpatialIndex` and a brute-force
:class:`OracleIndex` through identical interleaved operation sequences
(point/window/kNN queries mixed with inserts and deletes) and asserts
exact agreement across sharding policies × wrapped index types.  On top of
the hand-rolled interleavings, the scenario fuzz machinery of
:mod:`repro.workloads` replays whole ``scenario-*`` streams (including the
``sharded-*`` presets and the churny ``bulk-churn`` mix) with the oracle
shadow attached, which raises :class:`ScenarioMismatch` on any divergence.
"""

import numpy as np
import pytest

from repro.datasets import dataset_by_name
from repro.geometry import Rect
from repro.sharding import ShardedSpatialIndex, shard_index_factory
from repro.workloads import OracleIndex, ScenarioRunner, scenario_by_name

from tests.conftest import FAST_TRAINING

POLICIES = ("grid", "zorder", "balanced")
EXACT_KINDS = ("Grid", "KDB")


def build_pair(kind, policy, n_shards, points, block_capacity=10):
    factory = shard_index_factory(
        kind,
        block_capacity=block_capacity,
        partition_threshold=150,
        training=FAST_TRAINING,
    )
    index = ShardedSpatialIndex(factory, n_shards=n_shards, policy=policy).build(points)
    return index, OracleIndex().build(points)


def run_interleaved(index, oracle, points, n_ops=240, seed=0, exact=True):
    """Drive both indices through an identical interleaved op sequence."""
    rng = np.random.default_rng(seed)
    live = [tuple(map(float, p)) for p in points]
    for step in range(n_ops):
        op = rng.choice(["point", "window", "knn", "insert", "delete"])
        if op == "point":
            if live and rng.random() < 0.7:
                x, y = live[int(rng.integers(len(live)))]
            else:
                x, y = float(rng.random()), float(rng.random())
            assert index.contains(x, y) == oracle.contains(x, y), (step, x, y)
        elif op == "window":
            cx, cy = rng.random(), rng.random()
            window = Rect.from_center(cx, cy, 0.15, 0.12).clip_to(Rect.unit())
            got = {tuple(p) for p in index.window_query(window)}
            want = {tuple(p) for p in oracle.window_query(window)}
            if exact:
                assert got == want, (step, window)
            else:
                assert got <= want, (step, window)
        elif op == "knn":
            x, y = float(rng.random()), float(rng.random())
            k = int(rng.integers(1, 12))
            answer = index.knn_query(x, y, k)
            assert answer.shape[0] == min(k, oracle.n_points)
            for px, py in answer:
                assert oracle.contains(float(px), float(py)), (step, px, py)
            if exact:
                got = np.sort(np.hypot(answer[:, 0] - x, answer[:, 1] - y))
                np.testing.assert_allclose(
                    got, oracle.knn_distances(x, y, k), atol=1e-9, err_msg=str(step)
                )
        elif op == "insert":
            x, y = float(rng.random()), float(rng.random())
            if not oracle.contains(x, y):
                index.insert(x, y)
                oracle.insert(x, y)
                live.append((x, y))
        else:
            if live and rng.random() < 0.8:
                x, y = live.pop(int(rng.integers(len(live))))
            else:
                x, y = float(rng.random()), float(rng.random())
            assert index.delete(x, y) == oracle.delete(x, y), (step, x, y)
        assert index.n_points == oracle.n_points, step


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_sharded_exact_agreement_under_interleaved_updates(policy, kind):
    points = dataset_by_name("skewed", 350, seed=31)
    index, oracle = build_pair(kind, policy, 4, points)
    run_interleaved(index, oracle, points, n_ops=240, seed=7, exact=True)


@pytest.mark.parametrize("policy", ("grid", "balanced"))
def test_sharded_rsmi_soundness_under_interleaved_updates(policy):
    """RSMI-wrapped shards stay approximate: sound, never inventing points."""
    points = dataset_by_name("uniform", 400, seed=33)
    index, oracle = build_pair("RSMI", policy, 4, points, block_capacity=16)
    run_interleaved(index, oracle, points, n_ops=160, seed=9, exact=False)


def test_sharded_exact_rsmi_agreement():
    """RSMIa-configured shards (exact window/kNN variants) match brute force."""
    points = dataset_by_name("skewed", 400, seed=35)
    index, oracle = build_pair("RSMIa", "grid", 4, points, block_capacity=16)
    assert index.supports_exact_results
    run_interleaved(index, oracle, points, n_ops=120, seed=11, exact=True)


class TestScenarioFuzz:
    """Whole scenario streams through the runner with the oracle attached."""

    def run_scenario(self, scenario, kind, policy, n_ops, n_points=400, seed=41):
        points = dataset_by_name("skewed", n_points, seed=seed)
        index, oracle = build_pair(kind, policy, 4, points)
        spec = scenario_by_name(scenario).with_overrides(
            n_ops=n_ops, snapshot_every=max(1, n_ops // 2), seed=seed, k=5
        )
        runner = ScenarioRunner(
            index, spec, oracle=oracle, exact_results=kind in ("Grid", "KDB", "HRR", "RR*")
        )
        result = runner.run(points)
        assert result.checked and result.n_ops == n_ops
        assert result.snapshots[-1].per_shard_points == index.per_shard_points()
        return result

    @pytest.mark.parametrize("scenario", ["sharded-mixed", "sharded-hotspot", "bulk-churn"])
    @pytest.mark.parametrize("policy", ("grid", "balanced"))
    def test_sharded_scenarios_verify_against_the_oracle(self, scenario, policy):
        self.run_scenario(scenario, "Grid", policy, n_ops=300)

    def test_sharded_rsmi_scenario_verifies_against_the_oracle(self):
        points = dataset_by_name("uniform", 350, seed=43)
        index, oracle = build_pair("RSMI", "grid", 4, points, block_capacity=16)
        spec = scenario_by_name("sharded-mixed").with_overrides(
            n_ops=200, snapshot_every=100, seed=43, k=5
        )
        result = ScenarioRunner(index, spec, oracle=oracle, exact_results=False).run(points)
        assert result.checked
        snapshot = result.snapshots[-1]
        assert snapshot.window_recall is None or snapshot.window_recall > 0.5

    @pytest.mark.slow
    @pytest.mark.parametrize("scenario", ["sharded-mixed", "bulk-churn", "hotspot"])
    @pytest.mark.parametrize("kind,policy", [("Grid", "zorder"), ("KDB", "balanced"), ("RSMIa", "grid")])
    def test_sharded_scenarios_large_budget(self, scenario, kind, policy):
        self.run_scenario(scenario, kind, policy, n_ops=2_500, n_points=1_200, seed=47)
