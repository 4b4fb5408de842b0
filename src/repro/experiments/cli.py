"""Command-line entry point: ``repro-experiment <id>|all [--profile tiny|small|paper]``.

Examples::

    repro-experiment --list
    repro-experiment fig6
    repro-experiment table3 fig10 --profile small
    repro-experiment all --profile tiny
    repro-experiment --scenario hotspot
    repro-experiment --scenario bulk-churn --scenario-ops 2000 --scenario-indices RSMI,Grid
    repro-experiment --scenario sharded-mixed --shards 4 --sharding-policy balanced
    repro-experiment sharded-scaling --profile tiny
    repro-experiment --scenario cache-hotspot --cache-blocks 32 --cache-policy clock
    repro-experiment cache-sweep --profile tiny
    repro-experiment --scenario tenant-mixed --tenants 3
    repro-experiment --scenario latency-hotspot --arrival-rate 5000
    repro-experiment latency-sweep --profile tiny
    repro-experiment --scenario write-heavy --storage-backend disk --checkpoint-every 128
    repro-experiment --scenario drifting --shards 4 --rebalance --split-threshold 0.4
    repro-experiment rebalance-sweep --profile small
    repro-experiment --scenario sharded-mixed --shards 4 --workers 2
    repro-experiment --scenario latency-hotspot --shards 4 --workers 4 \
        --arrival-rate 3000 --tenant-rate 500 --max-inflight 128
    repro-experiment parallel-sweep --profile tiny
    repro-experiment analytics-sweep --profile tiny
    repro-experiment analytics-sweep --aggregate-ops quantile,top-k --shards 4
    repro-experiment rebuild-policy --profile tiny
    repro-experiment --scenario analytics-mixed --scenario-indices KDB,RSMI

Every run's text table is also written to ``<results dir>/<id>.txt``; the
results directory is ``$REPRO_RESULTS_DIR`` when set, else ``./results``
(gitignored), never the current package/test tree.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.analytics import AGGREGATE_OPS
from repro.experiments import EXPERIMENT_REGISTRY, profile_by_name
from repro.experiments.scenario_sweeps import run_scenario_sweep
from repro.sharding import SHARDING_POLICY_NAMES
from repro.storage import PAGE_CACHE_POLICIES, POOL_ADMISSIONS, STORAGE_BACKENDS
from repro.workloads import SCENARIO_PRESETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate tables/figures of 'Effectively Learning Spatial Indices'",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. fig6 table3), or 'all'",
    )
    parser.add_argument(
        "--profile",
        default="tiny",
        choices=("tiny", "small", "paper"),
        help="workload scale (default: tiny)",
    )
    parser.add_argument(
        "--execution",
        default="sequential",
        choices=("sequential", "batched"),
        help="query execution mode: per-query loop (default) or the batched "
        "query engine",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve through a sharded index with this many shards "
        "(applies to --scenario runs and the sharded-scaling experiment)",
    )
    parser.add_argument(
        "--sharding-policy",
        default=None,
        choices=SHARDING_POLICY_NAMES,
        help="how the data space is partitioned across shards (default: grid)",
    )
    parser.add_argument(
        "--cache-blocks",
        type=int,
        default=None,
        help="put a block cache of this many pages in front of every index "
        "(per shard when sharded); 0 disables (applies to --scenario runs "
        "and the cache-sweep experiment)",
    )
    parser.add_argument(
        "--cache-policy",
        default=None,
        choices=PAGE_CACHE_POLICIES,
        help="block-cache replacement policy (default: lru)",
    )
    parser.add_argument(
        "--shared-pool-blocks",
        type=int,
        default=None,
        help="serve every index from one shared buffer pool of this total "
        "capacity (all shards share it when sharded) instead of private "
        "caches; 0 disables (mutually exclusive with --cache-blocks)",
    )
    parser.add_argument(
        "--pool-admission",
        default=None,
        choices=POOL_ADMISSIONS,
        help="shared-pool admission policy: 'tinylfu' (frequency-sketch "
        "gated, scan-resistant; default) or 'lru' (always admit)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="split a --scenario run into this many independently-seeded "
        "tenant streams merged by virtual arrival time (per-tenant oracle "
        "shadows, per-tenant latency percentiles, fairness index)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="offered open-loop load in ops per virtual second for "
        "--scenario runs (forces the open-loop arrival model; default: "
        "the scenario's own arrival model and rate)",
    )
    parser.add_argument(
        "--storage-backend",
        choices=sorted(STORAGE_BACKENDS),
        default=None,
        help="where blocks live during a --scenario run: 'memory' (default) "
        "simulates storage in RAM; 'disk' wraps every index in a durable "
        "store (write-ahead log + periodic checkpoints + block files under "
        "$REPRO_STORAGE_DIR or ./storage) whose reads perform actual I/O",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="writes between checkpoints for --storage-backend disk "
        "(default: 256)",
    )
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help="attach the online rebalancing controller to a sharded "
        "--scenario run: it watches per-shard heat and p99, splits hot "
        "shards and merges cold siblings while the stream runs "
        "(requires --shards >= 2; answers stay oracle-checked mid-migration)",
    )
    parser.add_argument(
        "--split-threshold",
        type=float,
        default=None,
        help="access-share a shard must exceed before --rebalance splits it "
        "(default: 0.45)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="serve a sharded --scenario run through a process-pool engine "
        "with this many worker processes (requires --shards >= 2; shard s "
        "goes to worker s %% N; answers stay oracle-checked; incompatible "
        "with --rebalance, --storage-backend disk and --shared-pool-blocks)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="additionally run the stream through a paced asyncio front "
        "door bounding queued operations at this many (overload beyond it "
        "is shed; requires --workers); reports measured wall-clock sojourns "
        "and adaptive batch sizes",
    )
    parser.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="per-tenant token-bucket admission at this many ops per "
        "virtual second for --scenario runs (deterministic: refills follow "
        "the stream's arrival instants; needs an open-loop stream, e.g. "
        "via --arrival-rate)",
    )
    parser.add_argument(
        "--aggregate-ops",
        default=None,
        help="comma-separated aggregate operators for the analytics-sweep "
        f"experiment (subset of {','.join(AGGREGATE_OPS)}; default: all)",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIO_PRESETS),
        help="replay a mixed read/write workload scenario (oracle-checked) "
        "instead of a table/figure experiment",
    )
    parser.add_argument(
        "--scenario-ops",
        type=int,
        default=None,
        help="operation budget for --scenario (default: scales with the profile)",
    )
    parser.add_argument(
        "--scenario-indices",
        default=None,
        help="comma-separated index names for --scenario "
        "(default: Grid,HRR,KDB,RR*,ZM,RSMI)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    return parser


def _apply_profile_overrides(args, profile):
    """Fold the CLI's execution/sharding flags into the profile extras."""
    extras = dict(profile.extras)
    if args.execution != "sequential":
        extras["execution"] = args.execution
    if args.shards is not None:
        extras["shards"] = args.shards
    if args.sharding_policy is not None:
        extras["sharding_policy"] = args.sharding_policy
    if args.cache_blocks is not None:
        extras["cache_blocks"] = args.cache_blocks
    if args.cache_policy is not None:
        extras["cache_policy"] = args.cache_policy
    if args.shared_pool_blocks is not None:
        extras["shared_pool_blocks"] = args.shared_pool_blocks
    if args.pool_admission is not None:
        extras["pool_admission"] = args.pool_admission
    if args.tenants is not None:
        extras["tenants"] = args.tenants
    if args.arrival_rate is not None:
        extras["arrival_rate"] = args.arrival_rate
    if args.storage_backend is not None:
        extras["storage_backend"] = args.storage_backend
    if args.checkpoint_every is not None:
        extras["checkpoint_every"] = args.checkpoint_every
    if args.rebalance:
        extras["rebalance"] = True
    if args.split_threshold is not None:
        extras["split_threshold"] = args.split_threshold
    if args.workers is not None:
        extras["workers"] = args.workers
    if args.max_inflight is not None:
        extras["max_inflight"] = args.max_inflight
    if args.tenant_rate is not None:
        extras["tenant_rate"] = args.tenant_rate
    if args.aggregate_ops:
        extras["aggregate_ops"] = tuple(
            op.strip() for op in args.aggregate_ops.split(",") if op.strip()
        )
    if extras == profile.extras:
        return profile
    return profile.with_overrides(extras=extras)


def results_dir() -> Path:
    """Where experiment/scenario text output is persisted.

    ``$REPRO_RESULTS_DIR`` when set, else ``results/`` under the current
    working directory (gitignored).  Output never lands in the source or
    test trees.
    """
    override = os.environ.get("REPRO_RESULTS_DIR", "").strip()
    return Path(override) if override else Path.cwd() / "results"


def _persist_result_text(experiment_id: str, text: str) -> Path | None:
    """Best-effort write of one result table to the results directory."""
    directory = results_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path
    except OSError:
        return None


def _run_scenario(args, profile) -> int:
    if args.scenario_ops is not None:
        if args.scenario_ops < 1:
            print("--scenario-ops must be >= 1", file=sys.stderr)
            return 2
        profile = profile.with_overrides(
            extras={**profile.extras, "scenario_ops": args.scenario_ops}
        )
    index_names = None
    if args.scenario_indices:
        index_names = tuple(
            name.strip() for name in args.scenario_indices.split(",") if name.strip()
        )
    start = time.perf_counter()
    try:
        result = run_scenario_sweep(profile, args.scenario, index_names=index_names)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    text = result.to_text()
    print(text)
    saved = _persist_result_text(result.experiment_id, text)
    print(
        f"  (scenario '{args.scenario}' completed in {elapsed:.1f}s "
        f"at profile '{profile.name}'"
        + (f"; table saved to {saved}" if saved else "")
        + ")"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2

    if args.cache_blocks is not None and args.cache_blocks < 0:
        print("--cache-blocks must be >= 0", file=sys.stderr)
        return 2

    if args.aggregate_ops:
        requested_ops = [
            op.strip() for op in args.aggregate_ops.split(",") if op.strip()
        ]
        unknown_ops = [op for op in requested_ops if op not in AGGREGATE_OPS]
        if unknown_ops:
            print(
                f"unknown aggregate op(s): {', '.join(unknown_ops)}; "
                f"available: {', '.join(AGGREGATE_OPS)}",
                file=sys.stderr,
            )
            return 2

    if args.shared_pool_blocks is not None and args.shared_pool_blocks < 0:
        print("--shared-pool-blocks must be >= 0", file=sys.stderr)
        return 2

    if (args.cache_blocks or 0) > 0 and (args.shared_pool_blocks or 0) > 0:
        print("pass either --cache-blocks or --shared-pool-blocks, not both",
              file=sys.stderr)
        return 2

    if args.tenants is not None and args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2

    if args.arrival_rate is not None and args.arrival_rate <= 0:
        print("--arrival-rate must be positive", file=sys.stderr)
        return 2

    if (args.tenants is not None or args.arrival_rate is not None) and not args.scenario:
        print("--tenants/--arrival-rate require --scenario", file=sys.stderr)
        return 2

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("--checkpoint-every must be >= 1", file=sys.stderr)
        return 2

    if (
        args.storage_backend is not None or args.checkpoint_every is not None
    ) and not args.scenario:
        print("--storage-backend/--checkpoint-every require --scenario", file=sys.stderr)
        return 2

    if args.split_threshold is not None and not (0.0 < args.split_threshold <= 1.0):
        print("--split-threshold must be in (0, 1]", file=sys.stderr)
        return 2

    if args.rebalance or args.split_threshold is not None:
        if not args.scenario:
            print("--rebalance/--split-threshold require --scenario", file=sys.stderr)
            return 2
        if (args.shards or 0) < 2:
            print("--rebalance requires --shards >= 2", file=sys.stderr)
            return 2
        if args.split_threshold is not None and not args.rebalance:
            print("--split-threshold requires --rebalance", file=sys.stderr)
            return 2

    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2

    if args.max_inflight is not None and args.max_inflight < 1:
        print("--max-inflight must be >= 1", file=sys.stderr)
        return 2

    if args.tenant_rate is not None and args.tenant_rate <= 0:
        print("--tenant-rate must be positive", file=sys.stderr)
        return 2

    if args.workers is not None:
        if not args.scenario:
            print("--workers requires --scenario", file=sys.stderr)
            return 2
        if (args.shards or 0) < 2:
            print("--workers requires --shards >= 2", file=sys.stderr)
            return 2
        if args.rebalance:
            print("--workers cannot be combined with --rebalance", file=sys.stderr)
            return 2
        if args.storage_backend == "disk":
            print(
                "--workers cannot be combined with --storage-backend disk",
                file=sys.stderr,
            )
            return 2
        if (args.shared_pool_blocks or 0) > 0:
            print(
                "--workers cannot be combined with --shared-pool-blocks "
                "(shared pools are in-process; use per-shard --cache-blocks)",
                file=sys.stderr,
            )
            return 2

    if args.max_inflight is not None and args.workers is None:
        print("--max-inflight requires --workers", file=sys.stderr)
        return 2

    if args.tenant_rate is not None and not args.scenario:
        print("--tenant-rate requires --scenario", file=sys.stderr)
        return 2

    if args.scenario:
        if args.experiments:
            print(
                "--scenario cannot be combined with experiment ids; "
                "run them as separate invocations",
                file=sys.stderr,
            )
            return 2
        profile = _apply_profile_overrides(args, profile_by_name(args.profile))
        return _run_scenario(args, profile)

    if args.list or not args.experiments:
        print("Available experiments:")
        for experiment_id in sorted(EXPERIMENT_REGISTRY):
            spec = EXPERIMENT_REGISTRY[experiment_id]
            print(f"  {experiment_id:16s} {spec.title}  [{spec.paper_reference}]")
        return 0

    requested = list(args.experiments)
    if len(requested) == 1 and requested[0].lower() == "all":
        requested = sorted(EXPERIMENT_REGISTRY)

    unknown = [name for name in requested if name not in EXPERIMENT_REGISTRY]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENT_REGISTRY))}", file=sys.stderr)
        return 2

    profile = _apply_profile_overrides(args, profile_by_name(args.profile))
    for name in requested:
        spec = EXPERIMENT_REGISTRY[name]
        start = time.perf_counter()
        result = spec.run(profile)
        elapsed = time.perf_counter() - start
        text = result.to_text()
        print(text)
        saved = _persist_result_text(name, text)
        print(
            f"  ({name} completed in {elapsed:.1f}s at profile '{profile.name}'"
            + (f"; table saved to {saved}" if saved else "")
            + ")"
        )
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
