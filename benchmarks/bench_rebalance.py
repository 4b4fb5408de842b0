"""Benchmark of latency-driven online shard rebalancing (``repro.sharding``).

Replays the ``drifting`` scenario — its hot region migrates across the
space over the stream — twice over an identical 4-shard deployment: once
static, once with a :class:`~repro.sharding.RebalanceController` attached.
The controller must split the drifting hotspot's shard online and, once
the hotspot has moved at least once (the tail half of the stream), serve
the same operations with *fewer block accesses per op* and a *lower p99*.

Persisted machine-readably to ``benchmarks/results/BENCH_rebalance.json``
(mirrored to the committed repo-root canonical snapshot at the default
budget).  The *gated* metrics (see ``tools/check_bench.py``) are the
machine-independent ones: the controller's trigger is driven by decayed
logical read counts, never by wall-clock time, so ``n_splits``,
``final_shards`` and the per-op block-access counts are deterministic
given the stream — only the raw ``*_ms`` percentiles vary per machine and
stay informational.  Override the data size with
``REPRO_BENCH_REBALANCE_N``.
"""

from __future__ import annotations

import os
from statistics import mean

from conftest import record_bench_result
from repro.evaluation.runner import SuiteConfig
from repro.experiments.rebalance_sweeps import rebalance_sweep_config
from repro.experiments.scenario_sweeps import build_sharded_index
from repro.sharding import RebalanceController
from repro.workloads import ScenarioRunner, scenario_by_name
from repro.datasets import dataset_by_name

REBALANCE_N = int(os.environ.get("REPRO_BENCH_REBALANCE_N", "20000"))
#: op budget is fixed: the drifting hotspot needs time to move, not points
N_OPS = 4_000
N_SHARDS = 4
BLOCK_CAPACITY = 8
INDEX_NAME = "Grid"

RESULTS_FILE = "BENCH_rebalance.json"
#: only default-budget runs refresh the committed repo-root snapshot
_CANONICAL = REBALANCE_N == 20000


def _record(name: str, payload: dict) -> None:
    record_bench_result(RESULTS_FILE, name, payload, canonical=_CANONICAL)


def _points():
    return dataset_by_name("skewed", REBALANCE_N, seed=43)


def _spec():
    return scenario_by_name("drifting").with_overrides(
        n_ops=N_OPS, snapshot_every=N_OPS // 8, seed=11
    )


def _build(points):
    config = SuiteConfig(
        n_points=points.shape[0],
        distribution="skewed",
        block_capacity=BLOCK_CAPACITY,
        partition_threshold=2000,
        training_epochs=1,
        seed=43,
    )
    return build_sharded_index(points, INDEX_NAME, N_SHARDS, "grid", config)


def _run_arm(points, spec, controller_on: bool):
    index = _build(points)
    rebalancer = None
    if controller_on:
        rebalancer = RebalanceController(index, rebalance_sweep_config(spec.n_ops))
    runner = ScenarioRunner(index, spec, rebalancer=rebalancer)
    result = runner.run(points)
    return index, rebalancer, result


def _tail(snapshots):
    """Tail half of the stream: the hot region has moved at least once."""
    tail = snapshots[-(len(snapshots) // 2) or -1 :]
    return (
        mean(s.avg_block_accesses for s in tail),
        mean(s.latency.p99_ms for s in tail if s.latency is not None),
    )


def test_controller_wins_the_drifting_tail(benchmark):
    """Controller on: fewer blocks/op and lower p99 once the hotspot moved."""
    points = _points()
    spec = _spec()

    _, _, off = _run_arm(points, spec, controller_on=False)
    index_on, rebalancer, on = _run_arm(points, spec, controller_on=True)
    report = rebalancer.report

    blocks_off, p99_off = _tail(off.snapshots)
    blocks_on, p99_on = _tail(on.snapshots)
    payload = {
        "n_points": points.shape[0],
        "n_ops": N_OPS,
        "n_shards": N_SHARDS,
        "block_capacity": BLOCK_CAPACITY,
        "n_splits": report.n_splits,
        "n_merges": report.n_merges,
        "rescued_writes": report.rescued_writes,
        "mid_migration_batches": report.mid_migration_batches,
        "final_shards": index_on.n_shards,
        "tail_blocks_per_op_off": round(blocks_off, 4),
        "tail_blocks_per_op_on": round(blocks_on, 4),
        "blocks_advantage": round(blocks_off / blocks_on, 4),
        "tail_p99_ms_off": round(p99_off, 4),
        "tail_p99_ms_on": round(p99_on, 4),
        "p99_trajectory_ms": {
            "off": {str(s.op_index): round(s.latency.p99_ms, 4) for s in off.snapshots},
            "on": {str(s.op_index): round(s.latency.p99_ms, 4) for s in on.snapshots},
        },
        "blocks_trajectory": {
            "off": {
                str(s.op_index): round(s.avg_block_accesses, 3) for s in off.snapshots
            },
            "on": {
                str(s.op_index): round(s.avg_block_accesses, 3) for s in on.snapshots
            },
        },
    }
    _record(f"drifting_tail/{INDEX_NAME}", payload)
    benchmark.extra_info.update(payload)

    # the replay mutates the index, so every timing round gets a fresh build
    benchmark.pedantic(
        lambda runner: runner.run(points),
        setup=lambda: (
            (
                ScenarioRunner(
                    (idx := _build(points)),
                    spec,
                    rebalancer=RebalanceController(
                        idx, rebalance_sweep_config(spec.n_ops)
                    ),
                ),
            ),
            {},
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    assert report.n_splits >= 1, "the drifting hotspot never triggered a split"
    assert index_on.n_shards > N_SHARDS or report.n_merges > 0
    assert blocks_on < blocks_off, (
        f"controller-on tail blocks/op {blocks_on:.3f} did not beat the static "
        f"deployment's {blocks_off:.3f}"
    )
    assert p99_on < p99_off, (
        f"controller-on tail p99 {p99_on:.3f} ms did not beat the static "
        f"deployment's {p99_off:.3f} ms after the hotspot moved"
    )
