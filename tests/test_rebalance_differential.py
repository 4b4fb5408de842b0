"""Mid-migration differential fuzz: rebalancing must never change an answer.

The online rebalancer splits and merges shards *while* a workload stream is
running: read batches execute between migration stages, writes land in
shards that are mid-split and travel through the rescue buffer.  These
tests replay the ``drifting`` and ``bulk-churn`` scenarios through
:func:`repro.workloads.run_rebalance_fuzz`, which shadows every operation
with the brute-force :class:`OracleIndex` — for every kind in
``EXACT_KINDS`` with **exact-agreement** assertions — and raises
on vacuous runs (no migration, or no operation racing one).  Tier-1 runs a
small budget per combination; ``--runslow`` scales the streams up.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import dataset_by_name
from repro.sharding import EXACT_KINDS, ShardedSpatialIndex, shard_index_factory
from repro.workloads import aggressive_config, run_rebalance_fuzz, scenario_by_name

from tests.conftest import FAST_TRAINING

SCENARIOS = ("drifting", "bulk-churn")
LEARNED_KINDS = ("RSMI", "ZM")


def fuzz(kind, scenario, n_points=400, n_ops=200, seed=7, aggregates=False,
         **config_overrides):
    points = dataset_by_name("skewed", n_points, seed=seed)
    factory = shard_index_factory(
        kind,
        block_capacity=10,
        partition_threshold=150,
        training=FAST_TRAINING,
    )
    index = ShardedSpatialIndex(factory, n_shards=2, policy="grid").build(points)
    spec = scenario_by_name(scenario).with_overrides(n_ops=n_ops, seed=seed)
    if aggregates:
        # fold a heavy aggregate weight into the scenario's own mix so every
        # push-down operator races live shard splits/merges
        spec = spec.with_overrides(
            mix=dataclasses.replace(spec.mix, aggregate=0.35),
            aggregate_window_area_fraction=0.01,
        )
    return run_rebalance_fuzz(
        index,
        spec,
        points,
        exact=kind in EXACT_KINDS,
        config=aggressive_config(**config_overrides),
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", sorted(EXACT_KINDS))
def test_exact_kinds_agree_with_oracle_mid_migration(kind, scenario):
    outcome = fuzz(kind, scenario)
    # the harness raised on any disagreement; assert the run was non-vacuous
    assert outcome.result.n_ops == 200
    assert outcome.n_migrations >= 1
    assert outcome.mid_migration_ticks >= 1
    assert outcome.mid_migration_batches > 0 or outcome.rescued_writes > 0


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", LEARNED_KINDS)
def test_learned_kinds_stay_sound_mid_migration(kind, scenario):
    """Learned kinds get the soundness + recall oracle checks (their window
    answers are approximate by design), still raced against live splits."""
    outcome = fuzz(kind, scenario)
    assert outcome.n_migrations >= 1


def test_topology_actually_changed_and_is_queryable():
    outcome = fuzz("Grid", "drifting")
    assert outcome.final_shards != outcome.initial_shards or outcome.n_merges > 0
    assert outcome.n_splits >= 1


@pytest.mark.parametrize("kind", ("Grid", "KDB"))
def test_aggregates_agree_with_oracle_mid_migration(kind):
    """Push-down aggregate identity while shards split and merge: every
    count/sum/mean/quantile/top-k answer is oracle-checked exactly while
    migrations are in flight."""
    outcome = fuzz(kind, "bulk-churn", aggregates=True)
    assert outcome.result.op_counts.get("aggregate", 0) > 0
    assert outcome.n_migrations >= 1
    assert outcome.mid_migration_ticks >= 1


def test_aggregates_stay_sound_mid_migration_learned():
    outcome = fuzz("RSMI", "drifting", aggregates=True)
    assert outcome.result.op_counts.get("aggregate", 0) > 0
    assert outcome.n_migrations >= 1


def test_rescued_writes_survive_the_swap():
    """bulk-churn is write-heavy: writes must land mid-split, be buffered by
    the rescue path and come out queryable (the oracle checked them)."""
    outcome = fuzz("Grid", "bulk-churn", seed=11)
    assert outcome.rescued_writes > 0


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", sorted(EXACT_KINDS))
def test_exact_kinds_large_budget(kind, scenario):
    outcome = fuzz(kind, scenario, n_points=1_200, n_ops=900, seed=3)
    assert outcome.n_migrations >= 1
    assert outcome.mid_migration_batches > 0 or outcome.rescued_writes > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_seed_sweep_drifting_grid(seed):
    outcome = fuzz("Grid", "drifting", n_points=800, n_ops=500, seed=seed)
    assert outcome.n_migrations >= 1


@pytest.mark.slow
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("kind", sorted(EXACT_KINDS))
def test_aggregates_mid_migration_large_budget(kind, scenario):
    outcome = fuzz(kind, scenario, n_points=1_000, n_ops=700, seed=5,
                   aggregates=True)
    assert outcome.result.op_counts.get("aggregate", 0) > 0
    assert outcome.n_migrations >= 1
