"""Multi-core serving: process-pool shards behind an async front door.

The paper's cost model is block accesses, but a served workload feels
wall-clock latency under offered load — and a single Python process caps
throughput at one core.  This package turns the share-nothing sharding
layer into real multi-core serving:

* :class:`ServingSpec` — a picklable description of one sharded index
  (factory + resolved policy + per-shard point arrays) from which any
  process rebuilds byte-identical shards;
* :class:`ParallelShardEngine` — the batch-query surface of
  :class:`~repro.sharding.ShardedBatchEngine` executed on per-shard-group
  worker processes;
* :class:`FrontDoor` — an asyncio ingress applying per-tenant token-bucket
  admission control, bounded-queue overload shedding and latency-aware
  adaptive batching, usable as a deterministic replayer or as a wall-clock
  open-loop load generator.
"""

from repro.serving.engine import ParallelShardEngine
from repro.serving.frontdoor import (
    AdmissionReport,
    FrontDoor,
    FrontDoorReport,
    TokenBucket,
    admit_operations,
)
from repro.serving.spec import ServingSpec

__all__ = [
    "AdmissionReport",
    "FrontDoor",
    "FrontDoorReport",
    "ParallelShardEngine",
    "ServingSpec",
    "TokenBucket",
    "admit_operations",
]
