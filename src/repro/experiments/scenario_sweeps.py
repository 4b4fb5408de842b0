"""Scenario sweeps: mixed read/write workloads the paper never measures.

Every preset of :data:`repro.workloads.SCENARIO_PRESETS` is registered as an
experiment (``scenario-hotspot``, ``scenario-drifting``, ...) that replays
the scenario's operation stream against each configured index through the
:class:`~repro.workloads.runner.ScenarioRunner` and reports the periodic
:class:`~repro.workloads.runner.ScenarioSnapshot` series — throughput, block
accesses per operation, recall against the shadow oracle, and overflow-chain
growth.  The CLI exposes the same sweeps directly via ``--scenario <name>``.

Unlike the static sweeps, every index is built *fresh* per scenario run (the
stream mutates it), and the shadow oracle replays the identical stream so
answer agreement is asserted while measuring — the experiment doubles as a
differential correctness check.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.evaluation.adapters import build_index_suite
from repro.evaluation.runner import SuiteConfig
from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.sweeps import execution_mode, make_points
from repro.sharding import EXACT_KINDS, ShardedSpatialIndex, shard_index_factory
from repro.storage import (
    STORAGE_BACKENDS,
    DurableIndex,
    SharedBufferPool,
    make_page_cache,
    storage_root,
)
from repro.workloads import (
    SCENARIO_PRESETS,
    MultiTenantOracle,
    OracleIndex,
    ScenarioRunner,
    ScenarioSpec,
    generate_operations,
    generate_tenant_operations,
    scenario_by_name,
)

__all__ = [
    "SCENARIO_INDEX_NAMES",
    "EXACT_RESULT_INDICES",
    "scenario_spec_for_profile",
    "build_sharded_index",
    "run_scenario_sweep",
]

#: indices a scenario sweep drives by default: RSMI plus the four baseline
#: families.  RSMIa is omitted only because it would re-train a second RSMI
#: (every name gets a fresh build here, since the stream mutates it); request
#: it explicitly via ``--scenario-indices`` to fuzz the exact query variants.
SCENARIO_INDEX_NAMES = ("Grid", "HRR", "KDB", "RR*", "ZM", "RSMI")

#: deprecated: the name set survives for older tests, but harness code now
#: reads the ``supports_exact_results`` capability flag off the index itself
#: (string-matching names breaks down for wrappers, shards and engines)
EXACT_RESULT_INDICES = EXACT_KINDS

#: engine mode per CLI/profile execution override
_ENGINE_MODES = {"sequential": "sequential", "batched": "auto"}


def scenario_spec_for_profile(
    profile: ScaleProfile, scenario: str | ScenarioSpec
) -> ScenarioSpec:
    """Scale a (named) scenario to a profile: op budget, k, window size, seed.

    ``profile.extras["scenario_ops"]`` overrides the operation budget (the
    CLI's ``--scenario-ops``); otherwise it tracks the profile's data size.
    """
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    n_ops = int(profile.extras.get("scenario_ops", max(200, profile.n_points // 5)))
    return spec.with_overrides(
        n_ops=n_ops,
        snapshot_every=max(1, n_ops // 4),
        seed=profile.seed + 101,
        k=profile.default_k,
        window_area_fraction=profile.default_window_area,
    )


def build_sharded_index(
    points,
    kind: str,
    n_shards: int,
    policy: str,
    config: SuiteConfig,
) -> ShardedSpatialIndex:
    """A sharded index over ``points`` wrapping ``kind`` per shard.

    The RSMI partition threshold is scaled to the expected per-shard
    population so per-shard hierarchies keep the configured depth.
    """
    factory = shard_index_factory(
        kind,
        block_capacity=config.block_capacity,
        partition_threshold=max(config.block_capacity, config.partition_threshold // n_shards),
        training=config.training_config(),
        seed=config.seed,
    )
    return ShardedSpatialIndex(factory, n_shards=n_shards, policy=policy).build(points)


def run_scenario_sweep(
    profile: ScaleProfile,
    scenario: str | ScenarioSpec,
    index_names: Optional[Sequence[str]] = None,
    check: bool = True,
    shards: Optional[int] = None,
    sharding_policy: Optional[str] = None,
    cache_blocks: Optional[int] = None,
    cache_policy: Optional[str] = None,
    shared_pool_blocks: Optional[int] = None,
    pool_admission: Optional[str] = None,
    tenants: Optional[int] = None,
    arrival_rate: Optional[float] = None,
    storage_backend: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    rebalance: Optional[bool] = None,
    split_threshold: Optional[float] = None,
    workers: Optional[int] = None,
    max_inflight: Optional[int] = None,
    tenant_rate: Optional[float] = None,
) -> ExperimentResult:
    """Replay one scenario against every index; one row per snapshot.

    ``shards``/``sharding_policy`` (or the profile extras of the same
    names, which the CLI's ``--shards``/``--sharding-policy`` flags set)
    wrap every index into a :class:`~repro.sharding.ShardedSpatialIndex`,
    so the oracle shadow validates the *sharded* answers under churn.

    ``cache_blocks``/``cache_policy`` (or the same-named profile extras,
    set by ``--cache-blocks``/``--cache-policy``) put a
    :class:`~repro.storage.PageCache` in front of every index — per shard
    when sharded — so the snapshot series reports the cache hit ratio while
    the oracle keeps asserting that answers are unchanged.

    ``shared_pool_blocks``/``pool_admission`` (CLI ``--shared-pool-blocks``/
    ``--pool-admission``, mutually exclusive with ``cache_blocks``) instead
    serve each index from one :class:`~repro.storage.SharedBufferPool` of
    that *total* capacity — shared across all shards when sharded — with
    TinyLFU admission by default, so the capacity follows the traffic and
    one-touch scans cannot flush the hot set.

    ``tenants`` (CLI ``--tenants``) splits the scenario into that many
    independently-seeded streams merged by virtual arrival time, each tenant
    shadowed by its own oracle; the notes then report per-tenant sojourn
    percentiles and the fairness index.  ``arrival_rate`` (CLI
    ``--arrival-rate``) overrides the spec's open-loop offered load.

    ``storage_backend`` (CLI ``--storage-backend``, default ``"memory"``)
    set to ``"disk"`` wraps every index in a
    :class:`~repro.storage.DurableIndex` rooted under
    :func:`~repro.storage.storage_root`: writes go through a WAL, the index
    checkpoints every ``checkpoint_every`` writes (CLI
    ``--checkpoint-every``), and blocks mirror into per-index block files —
    while the shadow oracle keeps asserting that answers are unchanged.

    ``workers`` (CLI ``--workers``, requires ``shards >= 2``) serves every
    sharded index through a process-pool
    :class:`~repro.serving.ParallelShardEngine` — shards grouped onto that
    many worker processes, writes routed to the owning worker — while the
    oracle keeps checking every answer.  Incompatible with ``rebalance``,
    ``storage_backend="disk"`` and ``shared_pool_blocks`` (worker processes
    own their shard state; see the buffer-pool module doc).  ``tenant_rate``
    (CLI ``--tenant-rate``) pre-filters the stream through per-tenant
    token-bucket admission on virtual arrival times (needs an open-loop
    stream), deterministically for index and oracle alike.  ``max_inflight``
    (CLI ``--max-inflight``, requires ``workers``) additionally runs the
    accepted stream through a *paced* :class:`~repro.serving.FrontDoor` on
    a second engine built from the same spec, reporting measured wall-clock
    sojourns, shed arrivals and adaptive batch sizes.
    """
    spec = scenario_spec_for_profile(profile, scenario)
    names = tuple(index_names) if index_names is not None else SCENARIO_INDEX_NAMES
    shards = shards if shards is not None else int(profile.extras.get("shards", 0))
    tenants = tenants if tenants is not None else int(profile.extras.get("tenants", 0))
    arrival_rate = (
        arrival_rate
        if arrival_rate is not None
        else profile.extras.get("arrival_rate")
    )
    if arrival_rate is not None:
        spec = spec.with_overrides(
            arrival_rate=float(arrival_rate), arrival_model="open-loop"
        )
    if tenants > 1:
        # tenant streams are merged by virtual arrival time, so the replay
        # must follow the same open-loop schedule the merge order came from
        spec = spec.with_overrides(arrival_model="open-loop")
    sharding_policy = (
        sharding_policy
        if sharding_policy is not None
        else profile.extras.get("sharding_policy", "grid")
    )
    cache_blocks = (
        cache_blocks
        if cache_blocks is not None
        else int(profile.extras.get("cache_blocks", 0))
    )
    cache_policy = (
        cache_policy
        if cache_policy is not None
        else profile.extras.get("cache_policy", "lru")
    )
    shared_pool_blocks = (
        shared_pool_blocks
        if shared_pool_blocks is not None
        else int(profile.extras.get("shared_pool_blocks", 0))
    )
    pool_admission = (
        pool_admission
        if pool_admission is not None
        else profile.extras.get("pool_admission", "tinylfu")
    )
    if cache_blocks > 0 and shared_pool_blocks > 0:
        raise ValueError("pass either cache_blocks or shared_pool_blocks, not both")
    storage_backend = (
        storage_backend
        if storage_backend is not None
        else profile.extras.get("storage_backend", "memory")
    )
    if storage_backend not in STORAGE_BACKENDS:
        raise ValueError(
            f"unknown storage backend {storage_backend!r}; "
            f"available: {STORAGE_BACKENDS}"
        )
    checkpoint_every = (
        checkpoint_every
        if checkpoint_every is not None
        else int(profile.extras.get("checkpoint_every", 256))
    )
    rebalance = (
        rebalance
        if rebalance is not None
        else bool(profile.extras.get("rebalance", False))
    )
    split_threshold = (
        split_threshold
        if split_threshold is not None
        else profile.extras.get("split_threshold")
    )
    if rebalance and shards <= 1:
        raise ValueError("--rebalance requires a sharded deployment (--shards >= 2)")
    workers = workers if workers is not None else int(profile.extras.get("workers", 0))
    max_inflight = (
        max_inflight
        if max_inflight is not None
        else profile.extras.get("max_inflight")
    )
    tenant_rate = (
        tenant_rate
        if tenant_rate is not None
        else profile.extras.get("tenant_rate")
    )
    if workers > 0:
        if shards <= 1:
            raise ValueError("--workers requires a sharded deployment (--shards >= 2)")
        if rebalance:
            raise ValueError(
                "--workers cannot be combined with --rebalance: worker "
                "processes own the shard state, the controller could only "
                "migrate the parent's copy"
            )
        if storage_backend == "disk":
            raise ValueError(
                "--workers cannot be combined with --storage-backend disk: "
                "the WAL/checkpoint wrapper lives in the parent process"
            )
        if shared_pool_blocks > 0:
            raise ValueError(
                "--workers cannot be combined with --shared-pool-blocks: a "
                "shared pool is an in-process structure (copies diverge "
                "across workers); per-shard --cache-blocks works"
            )
    if max_inflight is not None and workers <= 0:
        raise ValueError("--max-inflight requires --workers")
    if tenant_rate is not None and spec.arrival_model != "open-loop":
        raise ValueError(
            "--tenant-rate needs an open-loop stream (token buckets refill "
            "on virtual arrival times); pass --arrival-rate or pick an "
            "open-loop scenario"
        )
    points = make_points(profile)
    config = SuiteConfig(
        n_points=points.shape[0],
        distribution=profile.default_distribution,
        block_capacity=profile.block_capacity,
        partition_threshold=profile.partition_threshold,
        training_epochs=profile.training_epochs,
        seed=profile.seed,
    )
    engine_mode = _ENGINE_MODES[execution_mode(profile)]

    rows: list[list] = []
    notes: list[str] = []
    for name in names:
        # fresh build per index: the stream mutates the structure
        pool: Optional[SharedBufferPool] = None
        if shared_pool_blocks > 0:
            # one fresh pool per index keeps the per-index runs independent
            pool = SharedBufferPool(shared_pool_blocks, pool_admission)
        engine = None
        serving_spec = None
        if workers > 0:
            # deferred import: repro.serving pulls the sharding engines in
            from repro.serving import ParallelShardEngine, ServingSpec

            factory = shard_index_factory(
                name,
                block_capacity=config.block_capacity,
                partition_threshold=max(
                    config.block_capacity, config.partition_threshold // shards
                ),
                training=config.training_config(),
                seed=config.seed,
            )
            serving_spec = ServingSpec.from_points(
                factory,
                points,
                n_shards=shards,
                policy=sharding_policy,
                cache_blocks=cache_blocks if cache_blocks > 0 else None,
                cache_policy=cache_policy,
                name=name,
            )
            engine = ParallelShardEngine(
                serving_spec,
                n_workers=workers,
                mode=engine_mode,
                reorder=bool(profile.extras.get("batch_reorder", False)),
            )
            index = engine
        elif shards > 1:
            index = build_sharded_index(points, name, shards, sharding_policy, config)
            if cache_blocks > 0:
                index.attach_caches(cache_blocks, cache_policy)
            if pool is not None:
                index.attach_shared_pool(pool)
        else:
            suite = build_index_suite(
                points,
                index_names=[name],
                block_capacity=config.block_capacity,
                partition_threshold=config.partition_threshold,
                training=config.training_config(),
                seed=config.seed,
            )
            index = suite[name]
            if cache_blocks > 0:
                index.attach_cache(make_page_cache(cache_blocks, cache_policy))
            if pool is not None:
                index.attach_cache(pool.client(name))
        rebalancer = None
        if rebalance:
            # deferred: rebalance_sweeps imports this module at registration
            from repro.experiments.rebalance_sweeps import rebalance_sweep_config
            from repro.sharding import RebalanceController

            rebalancer = RebalanceController(
                index, rebalance_sweep_config(spec.n_ops, split_threshold)
            )
        durable: Optional[DurableIndex] = None
        if storage_backend == "disk":
            slug = name.lower().replace("*", "star")
            durable = DurableIndex(
                index,
                storage_root() / f"scenario-{spec.name}" / slug,
                checkpoint_every=checkpoint_every,
                backend="disk",
            )
            index = durable
        if tenants > 1:
            operations, tenant_points = generate_tenant_operations(
                spec, points, tenants
            )
            oracle = MultiTenantOracle(tenants).build(tenant_points) if check else None
        else:
            operations = generate_operations(spec, points)
            oracle = OracleIndex().build(points) if check else None
        raw_operations = operations
        admission_report = None
        if tenant_rate is not None:
            # the index under test and the oracle replay the same accepted
            # stream, so every differential check keeps working
            from repro.serving import admit_operations

            operations, admission_report = admit_operations(
                operations, float(tenant_rate)
            )
        runner = ScenarioRunner(
            index,
            spec,
            oracle=oracle,
            engine_mode=engine_mode,
            batch_reorder=bool(profile.extras.get("batch_reorder", False)),
            rebalancer=rebalancer,
            engine=engine,
        )
        result = runner.replay(operations)
        for snapshot in result.snapshots:
            rows.append(
                [
                    name,
                    snapshot.op_index,
                    round(snapshot.ops_per_s, 1),
                    round(snapshot.avg_block_accesses, 2),
                    snapshot.n_points,
                    _cell(snapshot.window_recall),
                    _cell(snapshot.knn_recall),
                    _cell(snapshot.n_overflow_blocks),
                    _cell(snapshot.max_chain_depth),
                    _cell(snapshot.cache_hit_ratio),
                    _latency_cell(snapshot.latency, "p50_ms"),
                    _latency_cell(snapshot.latency, "p95_ms"),
                    _latency_cell(snapshot.latency, "p99_ms"),
                ]
            )
        if result.checked:
            notes.append(f"{name}: {result.n_ops} ops verified against the shadow oracle")
        if admission_report is not None:
            drops = admission_report.as_dict()["drops_by_tenant"]
            notes.append(
                f"{name}: admission (token bucket, {float(tenant_rate):g} ops/s "
                f"per tenant) accepted {admission_report.n_accepted}/"
                f"{admission_report.n_offered}"
                + (f"; drops per tenant {drops}" if drops else "")
            )
        if result.latency is not None:
            notes.append(
                f"{name}: sojourn p50/p95/p99 = {result.latency.p50_ms:.3f}/"
                f"{result.latency.p95_ms:.3f}/{result.latency.p99_ms:.3f} ms "
                f"({spec.arrival_model}"
                + (
                    f" @ {spec.arrival_rate:.0f} ops/s offered"
                    if spec.arrival_model == "open-loop"
                    else ""
                )
                + f"), service p99 = {result.service_latency.p99_ms:.3f} ms"
            )
        if tenants > 1:
            breakdown = ", ".join(
                f"t{tenant}: {summary.p50_ms:.3f}/{summary.p95_ms:.3f}/"
                f"{summary.p99_ms:.3f} ms ({summary.count} ops)"
                for tenant, summary in result.latency_by_tenant.items()
            )
            notes.append(
                f"{name}: per-tenant sojourn p50/p95/p99 — {breakdown}; "
                f"fairness index {result.fairness:.3f}"
            )
        if cache_blocks > 0:
            notes.append(
                f"{name}: block cache {cache_blocks} blocks/{cache_policy}"
                + (" per shard" if shards > 1 else "")
                + f", whole-run hit ratio {result.cache_hit_ratio:.3f}"
            )
        if pool is not None:
            notes.append(
                f"{name}: shared pool {pool.capacity} blocks/{pool.admission}"
                + (f" across {shards} shards" if shards > 1 else "")
                + f", whole-run hit ratio {pool.hit_ratio:.3f}, "
                f"{pool.rejections} admission rejection(s), "
                f"{pool.prefetch_used}/{pool.prefetch_issued} prefetches used"
            )
        if engine is not None:
            per_shard_reads = [
                (result.per_shard_block_accesses or {}).get(shard_id, 0)
                for shard_id in range(serving_spec.n_shards)
            ]
            notes.append(
                f"{name}: parallel serving — {engine.n_workers} worker "
                f"process(es) over {serving_spec.n_shards} shard(s) "
                f"({serving_spec.policy.describe()}); per-shard read accesses "
                f"(whole run) {per_shard_reads}"
            )
            if max_inflight is not None:
                from repro.serving import FrontDoor, ParallelShardEngine

                paced_engine = ParallelShardEngine(
                    serving_spec, n_workers=workers, mode=engine_mode
                )
                try:
                    door = FrontDoor(
                        paced_engine,
                        max_inflight=int(max_inflight),
                        tenant_rate=tenant_rate,
                    )
                    door_report = door.serve(raw_operations, paced=True)
                finally:
                    paced_engine.close()
                sojourn = door_report.sojourn
                notes.append(
                    f"{name}: paced front door (max_inflight {int(max_inflight)}) "
                    f"— served {door_report.n_served}, shed {door_report.n_shed}, "
                    f"mean batch {door_report.mean_batch_size:.1f}"
                    + (
                        f", measured sojourn p50/p99 = {sojourn.p50_ms:.3f}/"
                        f"{sojourn.p99_ms:.3f} ms"
                        if sojourn is not None
                        else ""
                    )
                )
            engine.close()
        elif shards > 1:
            final_shards = (
                rebalancer.index.n_shards if rebalancer is not None else shards
            )
            per_shard_reads = [
                (result.per_shard_block_accesses or {}).get(shard_id, 0)
                for shard_id in range(final_shards)
            ]
            notes.append(
                f"{name}: sharded {index.policy.describe()} — per-shard points "
                f"{index.per_shard_points()}, per-shard read accesses (whole run) "
                f"{per_shard_reads}"
            )
        if rebalancer is not None:
            report = rebalancer.report
            notes.append(
                f"{name}: rebalancer — {report.n_splits} split(s), "
                f"{report.n_merges} merge(s), {report.n_aborted} aborted, "
                f"{report.rescued_writes} rescued write(s), "
                f"{report.budget_resizes} budget resize(s); final topology "
                f"{rebalancer.index.n_shards} shard(s): "
                f"{rebalancer.index.policy.describe()}"
            )
        if durable is not None:
            notes.append(
                f"{name}: durable (backend=disk, checkpoint every "
                f"{checkpoint_every} writes) — {durable.n_checkpoints} "
                f"checkpoint(s), {durable.wal_records_pending} WAL record(s) "
                f"pending at shutdown under {durable.directory}"
            )
            durable.close()

    mix = ", ".join(
        f"{kind}={p:.2f}"
        for kind, p in zip(
            ("point", "window", "knn", "insert", "delete"), spec.mix.probabilities()
        )
        if p > 0
    )
    notes.insert(
        0,
        f"scenario '{spec.name}': {spec.n_ops} ops, distribution={spec.distribution}, "
        f"arrival={spec.arrival}/{spec.arrival_model}"
        + (f" @ {spec.arrival_rate:.0f} ops/s" if spec.arrival_model == "open-loop" else "")
        + (f" across {tenants} tenants" if tenants > 1 else "")
        + f", mix: {mix}",
    )
    return ExperimentResult(
        experiment_id=f"scenario-{spec.name}",
        title=f"Scenario sweep '{spec.name}'",
        paper_reference="beyond the paper (ROADMAP: scenario workloads)",
        header=[
            "index",
            "ops_done",
            "ops_per_s",
            "block_accesses_per_op",
            "n_points",
            "window_recall",
            "knn_recall",
            "overflow_blocks",
            "max_chain_depth",
            "cache_hit",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
        rows=rows,
        notes=notes,
    )


def _cell(value):
    """Render optional snapshot fields as table cells."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return round(value, 3)
    return value


def _latency_cell(summary, field: str):
    """One percentile of an optional LatencySummary as a table cell."""
    if summary is None:
        return "-"
    return round(getattr(summary, field), 3)


def _register_presets() -> None:
    for name in SCENARIO_PRESETS:
        def runner(profile: ScaleProfile, _name: str = name) -> ExperimentResult:
            return run_scenario_sweep(profile, _name)

        register_experiment(
            f"scenario-{name}",
            f"Mixed-workload scenario '{name}' (throughput, recall, chain growth)",
            "beyond the paper",
        )(runner)


_register_presets()
