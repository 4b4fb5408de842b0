"""Reproduction of "Effectively Learning Spatial Indices" (Qi et al., VLDB 2020).

The package implements the Recursive Spatial Model Index (RSMI) — a learned
index for two-dimensional point data — together with every baseline index the
paper evaluates against, the substrate libraries (NumPy neural networks,
space-filling curves, simulated block storage), data-set and query-workload
generators, and an experiment harness that regenerates every table and figure
of the paper's evaluation section.

Quick start::

    import numpy as np
    from repro import RSMI, RSMIConfig, Rect
    from repro.datasets import generate_uniform

    points = generate_uniform(20_000, seed=7)
    index = RSMI(RSMIConfig(block_capacity=50, partition_threshold=2_000)).build(points)

    index.contains(*points[0])                     # point query: bool
    index.window_query(Rect(0.2, 0.2, 0.3, 0.3))   # window query: (m, 2) array
    index.knn_query(0.5, 0.5, k=10)                # k nearest neighbours: (k, 2) array
    index.exact_view().knn_query(0.5, 0.5, k=10)   # RSMIa: exact, via the MBRs

Every index kind — RSMI, RSMIa and the baselines — implements one protocol,
:class:`~repro.baselines.interface.SpatialIndex`: the engines, the
experiment runner and the sweeps call it directly, and dispatch on what a
kind declares (``supports_exact_results``) rather than on its type name.
``insert``/``delete`` reject NaN and infinite coordinates with a
``ValueError`` on every kind, on the sharded index and on the durable tier.

Batched execution
-----------------

The paper defines its query algorithms per query; serving heavy traffic
means executing them in batches.  :class:`~repro.engine.BatchQueryEngine`
pushes whole query arrays through the RSMI level-synchronously — one
vectorised model call per touched sub-model, one block scan per touched
block — and falls back to one uniform per-query loop for the baseline
indices and for query types without a vectorised formulation.  Results are
identical to the sequential paths (asserted by the differential harness in
``tests/test_engine_differential.py``), typically at an order of magnitude
fewer block accesses per batch::

    from repro import BatchQueryEngine
    from repro.analytics import QueryRequest

    engine = BatchQueryEngine(index)           # any SpatialIndex kind
    engine.execute(QueryRequest.for_points(points[:1000]))   # booleans
    engine.execute(QueryRequest.for_windows(windows))        # point arrays
    engine.execute(QueryRequest.for_knn(points[:100], k=10)) # point arrays

``execute`` is the engines' only query entry point: the former per-kind
methods (``point_queries``/``window_queries``/``knn_queries``) are gone,
and the request constructors reject NaN/infinite coordinates and
``k < 1`` before any engine sees them.

The experiment harness opts in through the measurement functions'
``execution="batched"`` parameter (:mod:`repro.evaluation.runner`) or the
CLI's ``--execution batched`` flag; see ``examples/batched_queries.py`` for a
runnable tour.

Analytic queries: push-down aggregates, quantiles, top-k
--------------------------------------------------------

Production spatial services also answer **aggregate** questions — count/
sum/mean over a window, quantiles of an attribute within a region,
top-k-by-attribute.  :mod:`repro.analytics` defines them as engine-level
operators: an :class:`~repro.analytics.AggregateSpec` names the operator
and window (the attribute column is a deterministic per-point value, so
every answer has a brute-force reference,
:func:`~repro.analytics.exact_aggregate`), and the engines push the
aggregation **down to the shards** — each shard folds the rows its window
answer holds into one partial per spec (count/sum pairs, a mergeable
quantile sketch, a top-k list), partials merge at the router in shard-id
order, and only partials cross shard or worker-process boundaries::

    from repro.analytics import AggregateSpec, QueryRequest

    specs = [AggregateSpec(op="quantile", window=Rect(0.2, 0.2, 0.4, 0.4), q=0.9),
             AggregateSpec(op="top-k", window=Rect(0.5, 0.5, 0.7, 0.7), k=8)]
    result = engine.execute(QueryRequest.for_aggregates(specs))
    result.values[0].value            # the in-region 0.9-quantile
    result.values[0].max_rank_error   # the sketch's self-reported rank bound
    result.access.logical_reads       # blocks touched, not a full scan

Indexes whose ``supports_exact_results`` flag is set reproduce the
brute-force answers exactly (quantiles within the sketch's self-reported
rank-error bound); the approximate learned indexes (ZM, raw RSMI) get
soundness checks.  Every operator is differentially fuzzed against the
oracle across index kinds, sharding policies, caches, mid-migration
rebalancing and worker processes
(``tests/test_analytics_differential.py``); the ``analytics-mixed``
scenario preset and ``analytics-sweep``/``rebuild-policy`` experiments
drive the same machinery from the CLI, and
``benchmarks/bench_analytics.py`` gates the blocks-touched reduction
(``BENCH_analytics.json``).

Scenario workloads & fuzzing
----------------------------

The paper measures static query workloads and isolated update sweeps;
production serving means interleaved, shifting read/write mixes.
:mod:`repro.workloads` declares such scenarios and replays them: a
:class:`~repro.workloads.ScenarioSpec` fixes the operation mix
(point/window/kNN/insert/delete), the arrival pattern and a key
distribution (``hotspot``, ``drifting``, ``zipfian``, ``bulk-churn``, ...);
the :class:`~repro.workloads.ScenarioRunner` drives any index through the
resulting seeded stream via the batched engine, emitting periodic
:class:`~repro.workloads.ScenarioSnapshot` metrics.  Attaching the
brute-force :class:`~repro.workloads.OracleIndex` shadow turns the same run
into a model-based differential fuzz case (every answer checked, mismatches
raise)::

    from repro.workloads import OracleIndex, ScenarioRunner, scenario_by_name

    spec = scenario_by_name("hotspot").with_overrides(n_ops=5_000)
    runner = ScenarioRunner(index, spec, oracle=OracleIndex().build(points))
    result = runner.run(points)          # raises ScenarioMismatch on any bug
    result.snapshots                     # throughput / recall / chain depth

The CLI exposes the presets via ``repro-experiment --scenario <name>``;
``tests/test_scenario_fuzz.py`` fuzzes every index with the same machinery,
and ``examples/scenario_run.py`` is a runnable tour.

Latency-aware serving & multi-tenancy
-------------------------------------

Block accesses are load-independent; users feel latency under load, and
its *tail* is what matters at serving scale.  :mod:`repro.workloads`
measures it without threads: every :class:`~repro.workloads.ScenarioSpec`
carries an **arrival model** — ``closed-loop`` (each operation issued as
the previous completes, plus think time) or ``open-loop`` (a seeded
virtual-time Poisson/bursty schedule at ``arrival_rate`` ops/s) — and the
:class:`~repro.workloads.ScenarioRunner` feeds measured per-op service
times through a :class:`~repro.workloads.VirtualClock`, yielding sojourn
times that include queueing delay once the offered rate outpaces the
server.  Percentiles come from seeded reservoir
:class:`~repro.workloads.PercentileSketch` es and surface as p50/p95/p99
on snapshots and results (per kind, per tenant, with a Jain fairness
index).  The engines themselves never time anything: a
:class:`~repro.analytics.QueryResult` carries answers and block
accounting only, and whoever calls ``execute`` owns the clock::

    from repro.workloads import (
        MultiTenantOracle, ScenarioRunner, generate_tenant_operations,
        scenario_by_name,
    )

    spec = scenario_by_name("latency-hotspot")      # open-loop preset
    result = ScenarioRunner(index, spec).run(points)
    result.latency.p99_ms                           # queue-inclusive sojourn
    result.service_latency.p99_ms                   # pure service time

    # N independently-seeded tenant streams merged by arrival time, each
    # checked against its own oracle shadow
    ops, slices = generate_tenant_operations(spec, points, 3)
    oracle = MultiTenantOracle(3).build(slices)
    result = ScenarioRunner(index, spec, oracle=oracle).replay(ops)
    result.latency_by_tenant                        # per-tenant p50/p95/p99
    result.fairness                                 # Jain's index

CLI: ``--tenants N``, ``--arrival-rate R``, the ``latency-sweep``
experiment; ``benchmarks/bench_latency_serving.py`` emits
``BENCH_latency.json``, gated against committed baselines by CI's
perf-gate job via ``tools/check_bench.py``;
``examples/latency_serving.py`` is a runnable tour.

Paged storage & caching
-----------------------

Every index reports its cost through one paged-storage seam: the learned
indices read data blocks through :class:`~repro.storage.BlockStore`, and
the tree baselines read their nodes through the
:class:`~repro.storage.NodePager` façade (stable page ids per node, same
accounting).  A :class:`~repro.storage.PageCache` — LRU or clock
replacement, dirty-page invalidation on writes/splits/overflow growth —
can be attached in front of any index, splitting
:class:`~repro.storage.AccessStats` into **logical** reads (what the
algorithm touched; the paper's "# block accesses", identical with the
cache on or off) and **physical** reads (what actually hit storage)::

    from repro import BatchQueryEngine
    from repro.analytics import QueryRequest
    from repro.storage import PageCache

    index.attach_cache(PageCache(64, "lru"))     # any index kind
    engine = BatchQueryEngine(index)             # or cache_blocks=64 here
    result = engine.execute(QueryRequest.for_points(points[:1000]))
    result.access.logical_reads                  # logical (unchanged)
    result.access.physical_reads                 # post-cache
    result.access.cache_hit_ratio

Sharded deployments take one cache **per shard**
(``ShardedSpatialIndex(..., cache_blocks=64)``), so a write routed to one
shard invalidates pages in that shard's cache only.  Answers never depend
on caching (``tests/test_cache_differential.py`` fuzzes every index kind
and sharding policy against the oracle with caches attached);
``benchmarks/bench_block_cache.py`` asserts a ≥3x physical-read reduction
on hotspot point batches at a cache ~10% of the block count, and the
``cache-sweep`` experiment (CLI: ``--cache-blocks/--cache-policy``) maps
the full cost curve.

Blocks summarise themselves once: :meth:`~repro.storage.Block.points`
returns a **read-only** ``(m, 2)`` array shared by every caller until the
block changes (``append``/``delete``/``bulk_fill`` drop it; arrays handed
out earlier keep their contents), and :meth:`~repro.storage.Block.mbr` is
memoised the same way.  Neither memo is pickled.
:meth:`~repro.storage.Block.iter_points` iterates that array as Python
floats, so an iterator started before a mutation keeps the old contents.
:meth:`~repro.storage.BlockStore.touch_chain` reads a whole chain and
returns its blocks, with exactly the reads and prefetch a complete
``iter_chain`` walk records; :func:`~repro.storage.block_store.chain_points`
joins those blocks' live points into one array.  The batch engine
keeps the blocks of every chain a request touches and builds the array
only when a compare that passes the block-MBR gate, a hash or a window
scan needs it.  :meth:`~repro.core.RSMI.point_query` (Algorithm 1) reads a
chain the gate rules out with ``touch_chain`` and walks the others with
``iter_chain``, stopping at the block that holds the point.  The kNN query
(Algorithm 3, :mod:`repro.core.knn`) reads each round's new chains with
``touch_chain`` and examines them in one pass: one ``np.hypot`` over their
points gives the round's k-th distance, and the per-point rule runs only
over the blocks holding a point within it.  Both read exactly the blocks
the paper's algorithms read.

Durable storage & crash recovery
--------------------------------

The block store simulates external memory; a durable deployment must
survive a killed process.  :class:`~repro.storage.DurableIndex` wraps any
built index (RSMI, baseline, or sharded) with that guarantee: every
``insert``/``delete`` is appended to a checksummed
:class:`~repro.storage.WriteAheadLog` **before** it is applied
(append-before-apply, unbuffered writes, per-append ``fsync`` by default),
every ``checkpoint_every`` writes the whole index is checkpointed through
:func:`~repro.core.save_index` — which writes a temp file in the
destination directory, ``fsync``\\ s it and atomically ``os.replace``\\ s it
over the old artifact, so a crash mid-save can never destroy the previous
checkpoint — and the WAL is reset.  With ``backend="disk"`` the block
store additionally mirrors every block into a CRC-checked
:class:`~repro.storage.BlockFile` (one per shard when sharded) and serves
cache-missing reads by deserialising from the file, so physical reads are
actual I/O::

    from repro.storage import DurableIndex

    durable = DurableIndex(index, "storage/run1", checkpoint_every=256,
                           backend="disk")
    durable.insert(0.3, 0.7)        # WAL first, then applied
    # ... process dies here; later:
    recovered, report = DurableIndex.recover("storage/run1", backend="disk")
    report.describe()               # "recovered from checkpoint.idx + N WAL record(s)"

Recovery loads the newest checkpoint, truncates any **torn WAL tail** (a
crash mid-append) and replays the surviving records through the index's
own update surface.  The crash-recovery fuzz harness
(:func:`~repro.workloads.run_crash_recovery`,
``tests/test_crash_recovery.py``) kills seeded scenario streams at
arbitrary operations — optionally tearing the last WAL record — and
asserts exact agreement with an oracle over the surviving prefix.  CLI:
``--storage-backend disk --checkpoint-every N``;
``benchmarks/bench_durability.py`` emits ``BENCH_durability.json``
showing cold-start-from-checkpoint beating a full rebuild.

Sharded serving
---------------

One index serves one machine's worth of traffic; production serving
partitions the data space across shards.  :mod:`repro.sharding` provides
the serving stack: a :class:`~repro.sharding.ShardingPolicy` decides where
data lives (``grid``, ``zorder`` ranges, or sample-``balanced`` k-d style
regions), the :class:`~repro.sharding.ShardRouter` maps every operation to
the minimal shard set (one shard per point op, only intersecting shards
per window, best-first MINDIST order for kNN), and a
:class:`~repro.sharding.ShardedSpatialIndex` wraps any index type — RSMI
or baseline — per shard behind the common query/update interface.  Batches
go through the :class:`~repro.sharding.ShardedBatchEngine`, which groups
each batch per shard, dispatches through per-shard
:class:`~repro.engine.BatchQueryEngine` instances and merges the results,
reporting block accesses both in total and per shard::

    from repro.sharding import (
        ShardedBatchEngine, ShardedSpatialIndex, shard_index_factory,
    )

    factory = shard_index_factory("RSMI", block_capacity=50,
                                  partition_threshold=2_000)
    sharded = ShardedSpatialIndex(factory, n_shards=4,
                                  policy="balanced").build(points)
    engine = ShardedBatchEngine(sharded)
    result = engine.execute(QueryRequest.for_points(points[:1000]))
    result.access.per_shard_logical_reads   # attribution per shard id

Sharded answers are differentially tested against a single-index oracle
(``tests/test_sharding_differential.py``), the scenario runner drives
sharded deployments through the same oracle-checked streams (CLI:
``--scenario sharded-mixed --shards 4``), and
``benchmarks/bench_sharded_scaling.py`` measures batched throughput
scaling and asserts the shard-locality of window batches;
``examples/sharded_serving.py`` is a runnable tour.
"""

from repro.analytics import AggregateSpec, QueryRequest, QueryResult
from repro.core import RSMI, RSMIa, RSMIConfig, PeriodicRebuilder
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex
from repro.storage import (
    AccessStats,
    Block,
    BlockStore,
    DurableIndex,
    PageCache,
    RecoveryReport,
    WriteAheadLog,
)
from repro.workloads import (
    LatencySummary,
    MultiTenantOracle,
    OracleIndex,
    PercentileSketch,
    ScenarioRunner,
    ScenarioSpec,
    VirtualClock,
)

__version__ = "1.6.0"

__all__ = [
    "RSMI",
    "RSMIa",
    "RSMIConfig",
    "PeriodicRebuilder",
    "BatchQueryEngine",
    "AggregateSpec",
    "QueryRequest",
    "QueryResult",
    "ShardedSpatialIndex",
    "ShardedBatchEngine",
    "Rect",
    "AccessStats",
    "Block",
    "BlockStore",
    "PageCache",
    "DurableIndex",
    "RecoveryReport",
    "WriteAheadLog",
    "ScenarioSpec",
    "ScenarioRunner",
    "OracleIndex",
    "MultiTenantOracle",
    "PercentileSketch",
    "LatencySummary",
    "VirtualClock",
    "__version__",
]
