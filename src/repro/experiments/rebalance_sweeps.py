"""Rebalance sweep: latency-driven shard splitting, controller on vs off.

The ``drifting`` scenario moves its hot region across the space over the
stream, so whichever shard currently hosts it absorbs ~90 % of the traffic
*and* the hotspot's insert pressure — its structures degrade (overflow
chains, over-full cells) exactly where the tail latency is measured.  This
experiment replays the identical stream twice per index over a sharded
deployment: once static, once with a :class:`~repro.sharding.
RebalanceController` attached, which watches per-shard heat and p99 and
splits the hot shard online (children rebuilt compactly from the live
points, in-flight writes rescued, swap atomic).  One row per snapshot per
arm; the summary notes compare tail-half block accesses and p99, where the
controller's advantage must show once the hotspot has moved.

Both arms are shadowed by the brute-force oracle, so the sweep doubles as
a mid-migration correctness check (:class:`~repro.workloads.runner.
ScenarioMismatch` on any divergence).
"""

from __future__ import annotations

from statistics import mean
from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.scenario_sweeps import (
    build_sharded_index,
    scenario_spec_for_profile,
)
from repro.experiments.sweeps import engine_mode, make_points
from repro.evaluation.runner import SuiteConfig
from repro.sharding import RebalanceConfig, RebalanceController
from repro.workloads import OracleIndex, ScenarioRunner

__all__ = ["REBALANCE_SWEEP_INDEX_NAMES", "rebalance_sweep_config", "run_rebalance_sweep"]

#: default arms: one exact paged baseline, one learned block layout
REBALANCE_SWEEP_INDEX_NAMES = ("Grid", "ZM")


def rebalance_sweep_config(
    n_ops: int, split_threshold: Optional[float] = None
) -> RebalanceConfig:
    """Controller settings for the sweep: the decayed heat total reaches a
    scale-free equilibrium (it depends on batch size and decay, not stream
    length), so the warm-up threshold is fixed and the decay is slowed to
    keep the equilibrium above it; a longer cooldown damps split/merge
    thrash on short CI streams."""
    del n_ops  # the trigger thresholds are deliberately scale-free
    kwargs = dict(min_observations=96, decay=0.95, cooldown_ticks=4)
    if split_threshold is not None:
        kwargs["split_threshold"] = float(split_threshold)
    return RebalanceConfig(**kwargs)


def run_rebalance_sweep(
    profile: ScaleProfile,
    index_names: Optional[Sequence[str]] = None,
    scenario: str = "drifting",
    shards: int = 4,
    check: bool = True,
) -> ExperimentResult:
    """Replay ``scenario`` per index with the rebalancer off, then on."""
    names = tuple(index_names) if index_names is not None else REBALANCE_SWEEP_INDEX_NAMES
    spec = scenario_spec_for_profile(profile, scenario)
    spec = spec.with_overrides(snapshot_every=max(1, spec.n_ops // 8))
    points = make_points(profile)
    config = SuiteConfig(
        n_points=points.shape[0],
        distribution=profile.default_distribution,
        block_capacity=profile.block_capacity,
        partition_threshold=profile.partition_threshold,
        training_epochs=profile.training_epochs,
        seed=profile.seed,
    )
    mode = engine_mode(profile)
    split_threshold = profile.extras.get("split_threshold")

    rows: list[list] = []
    notes: list[str] = [
        f"scenario '{spec.name}': {spec.n_ops} ops over {shards} initial shards; "
        "each index runs the identical stream twice (controller off / on)"
    ]
    for name in names:
        tails: dict[str, tuple[float, float]] = {}
        for arm in ("off", "on"):
            index = build_sharded_index(points, name, shards, "grid", config)
            rebalancer = None
            if arm == "on":
                rebalancer = RebalanceController(
                    index, rebalance_sweep_config(spec.n_ops, split_threshold)
                )
            runner = ScenarioRunner(
                index,
                spec,
                oracle=OracleIndex().build(points) if check else None,
                engine_mode=mode,
                rebalancer=rebalancer,
            )
            result = runner.run(points)
            for snapshot in result.snapshots:
                rows.append(
                    [
                        name,
                        arm,
                        snapshot.op_index,
                        round(snapshot.ops_per_s, 1),
                        round(snapshot.avg_block_accesses, 2),
                        index.n_shards if rebalancer is not None else shards,
                        round(snapshot.latency.p50_ms, 3) if snapshot.latency else "-",
                        round(snapshot.latency.p99_ms, 3) if snapshot.latency else "-",
                    ]
                )
            # tail half of the stream: the hot region has moved at least once
            snaps = result.snapshots
            tail = snaps[-(len(snaps) // 2) or -1 :]
            tails[arm] = (
                mean(s.avg_block_accesses for s in tail),
                mean(s.latency.p99_ms for s in tail if s.latency is not None),
            )
            if rebalancer is not None:
                report = rebalancer.report
                notes.append(
                    f"{name}: controller — {report.n_splits} split(s), "
                    f"{report.n_merges} merge(s), {report.rescued_writes} rescued "
                    f"write(s), {report.mid_migration_batches} batch(es) raced a "
                    f"migration; final topology {index.n_shards} shard(s)"
                )
            if check and result.checked:
                notes.append(
                    f"{name}/{arm}: {result.n_ops} ops verified against the oracle"
                )
        (blocks_off, p99_off), (blocks_on, p99_on) = tails["off"], tails["on"]
        notes.append(
            f"{name}: tail-half blocks/op {blocks_off:.2f} (off) vs {blocks_on:.2f} "
            f"(on); tail-half p99 {p99_off:.3f} ms (off) vs {p99_on:.3f} ms (on)"
            + (" — controller wins the tail" if p99_on < p99_off else "")
        )
    return ExperimentResult(
        experiment_id="rebalance-sweep",
        title="Online shard rebalancing under a drifting hotspot",
        paper_reference="beyond the paper (ROADMAP: rebalancing & autoscaling)",
        header=[
            "index",
            "controller",
            "ops_done",
            "ops_per_s",
            "block_accesses_per_op",
            "n_shards",
            "p50_ms",
            "p99_ms",
        ],
        rows=rows,
        notes=notes,
    )


register_experiment(
    "rebalance-sweep",
    "Latency-driven online shard rebalancing: drifting hotspot, controller on/off",
    "beyond the paper",
)(run_rebalance_sweep)
