"""Sharded serving: partition the data space across N independent shards.

The paper evaluates one index serving one query at a time; a
production-scale deployment partitions the space across shards and serves
whole batches in parallel.  This package provides the three layers of that
serving stack:

* **Policies** (:mod:`repro.sharding.policy`) decide *where data lives*: a
  regular grid, contiguous Z-order or Hilbert curve ranges, or
  sample-balanced k-d style regions
  (:func:`~repro.sharding.policy.make_policy`).
* **Routing** (:mod:`repro.sharding.router`) maps every operation to the
  minimal shard set — one shard for point ops, only intersecting shards
  for windows (spatial data skipping), and a best-first MINDIST order for
  kNN expansion.
* **Serving** (:mod:`repro.sharding.index`, :mod:`repro.sharding.engine`):
  :class:`~repro.sharding.index.ShardedSpatialIndex` wraps any existing
  index type per shard behind the common query/update interface, and
  :class:`~repro.sharding.engine.ShardedBatchEngine` groups query batches
  per shard and dispatches them through per-shard
  :class:`~repro.engine.BatchQueryEngine` instances, merging results in
  shard-id order and aggregating per-shard
  :class:`~repro.storage.AccessStats`.
* **Rebalancing** (:mod:`repro.sharding.rebalance`): the
  :class:`~repro.sharding.rebalance.RebalanceController` watches per-shard
  access counts and p99 sketches, splits hot shards online (children built
  in the background, in-flight writes rescued, atomic swap), merges cold
  siblings, and moves cache budgets toward the heat.

The sharded index answers every query exactly like an equivalent
single-index deployment (asserted by ``tests/test_sharding_differential.py``
and the scenario fuzz harness); sharding only changes *which* blocks are
touched and how much of the work can run concurrently.
"""

from repro.sharding.engine import ShardedBatchEngine
from repro.sharding.index import (
    EXACT_KINDS,
    SHARDABLE_KINDS,
    CompositeAccessStats,
    ShardedSpatialIndex,
    shard_index_factory,
)
from repro.sharding.policy import (
    SHARDING_POLICY_NAMES,
    CurveRangePolicy,
    HilbertRangePolicy,
    RegularGridPolicy,
    SampleBalancedPolicy,
    ShardingPolicy,
    ZOrderRangePolicy,
    make_policy,
)
from repro.sharding.rebalance import (
    AdaptiveShardingPolicy,
    MergeMigration,
    RebalanceConfig,
    RebalanceController,
    RebalanceError,
    SplitMigration,
)
from repro.sharding.router import ShardRouter

__all__ = [
    "AdaptiveShardingPolicy",
    "MergeMigration",
    "RebalanceConfig",
    "RebalanceController",
    "RebalanceError",
    "SplitMigration",
    "ShardingPolicy",
    "RegularGridPolicy",
    "CurveRangePolicy",
    "ZOrderRangePolicy",
    "HilbertRangePolicy",
    "SampleBalancedPolicy",
    "SHARDING_POLICY_NAMES",
    "make_policy",
    "ShardRouter",
    "ShardedSpatialIndex",
    "ShardedBatchEngine",
    "CompositeAccessStats",
    "shard_index_factory",
    "SHARDABLE_KINDS",
    "EXACT_KINDS",
]
