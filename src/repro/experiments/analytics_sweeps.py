"""Analytic-surface sweeps: push-down aggregates and rebuild trigger policies.

Two experiments beyond the paper (ROADMAP: analytic query surface):

* ``analytics-sweep`` — every aggregate operator (count/sum/mean/quantile/
  top-k) is pushed down through the batched engine for each index kind and
  the block accesses are compared with the brute-force alternative (scan
  every block, aggregate client-side).  Every answer is verified against
  :func:`~repro.analytics.ops.exact_aggregate` while the sweep runs — exact
  agreement for exact index kinds, soundness for the approximate ones — so
  the table can never report speed for wrong answers.  ``--shards N``
  reruns the sweep through the sharded engine (partials merged at the
  router), ``--cache-blocks N`` attaches per-index caches, and
  ``--aggregate-ops`` restricts the operator set.
* ``rebuild-policy`` — replays the write phase of the ``bulk-churn`` drift
  scenario against the RSMI under three retrain trigger policies (``never``,
  ``periodic`` at 10% growth, ``chain-depth`` on overflow-chain depth) and
  reports the retrain cost against the window-recall trajectory, i.e. what
  each policy buys and what it costs.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from repro.analytics.attributes import attribute_values
from repro.analytics.ops import (
    AGGREGATE_OPS,
    AggregateSpec,
    QueryRequest,
    exact_aggregate,
    quantile_rank_distance,
)
from repro.core import RSMI, RSMIConfig
from repro.engine import BatchQueryEngine
from repro.evaluation.adapters import build_index_suite
from repro.evaluation.runner import SuiteConfig
from repro.experiments.base import ExperimentResult, register_experiment
from repro.experiments.profiles import ScaleProfile
from repro.experiments.scenario_sweeps import build_sharded_index
from repro.experiments.sweeps import make_points
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.sharding import ShardedBatchEngine
from repro.storage import PageCache
from repro.workloads import OracleIndex, generate_operations, scenario_by_name

__all__ = [
    "ANALYTICS_INDEX_NAMES",
    "REBUILD_POLICY_NAMES",
    "run_analytics_sweep",
    "run_rebuild_policy",
]

#: index kinds of the aggregate sweep (flat, tree, learned — both RSMI modes)
ANALYTICS_INDEX_NAMES = ("Grid", "KDB", "RSMI", "RSMIa", "ZM")

#: retrain trigger policies compared by ``rebuild-policy``
REBUILD_POLICY_NAMES = ("never", "periodic", "chain-depth")


def _brute_force_reads(index, n_points: int, block_capacity: int) -> int:
    """Blocks a client-side aggregation would scan: the whole store."""
    store = getattr(index, "store", None)
    if store is not None:
        return int(store.n_blocks)
    return max(1, math.ceil(n_points / max(block_capacity, 1)))


def _aggregate_specs(
    points: np.ndarray,
    op: str,
    n: int,
    *,
    area_fraction: float,
    k: int,
    seed: int,
) -> list[AggregateSpec]:
    """Hotspot-style aggregate windows centred on stored points."""
    rng = np.random.default_rng(seed)
    extent = math.sqrt(max(area_fraction, 1e-9))
    specs = []
    for _ in range(n):
        cx, cy = points[int(rng.integers(points.shape[0]))]
        window = Rect.from_center(
            float(cx), float(cy), extent, extent
        ).clip_to(Rect.unit())
        specs.append(
            AggregateSpec(
                op=op,
                window=window,
                q=float(rng.choice((0.25, 0.5, 0.9))),
                k=k,
                attribute_seed=seed,
            )
        )
    return specs


def _verify_outcome(spec, outcome, points, exact: bool) -> None:
    """Raise when an aggregate answer disagrees with the brute-force truth."""
    truth = exact_aggregate(spec, points)
    inside = points[spec.window.contains_points(points)]
    column = np.sort(attribute_values(inside, seed=spec.attribute_seed))
    label = f"{spec.op} over {spec.window}"
    if exact:
        if outcome.count != truth.count:
            raise AssertionError(f"{label}: count {outcome.count} != {truth.count}")
        if spec.op in ("count", "sum", "mean") and outcome.value != truth.value:
            raise AssertionError(f"{label}: value {outcome.value} != {truth.value}")
        if spec.op == "top-k" and outcome.items != truth.items:
            raise AssertionError(f"{label}: top-k items diverged")
        if spec.op == "quantile" and truth.count:
            distance = quantile_rank_distance(outcome.value, column, spec.q)
            if distance > outcome.max_rank_error:
                raise AssertionError(
                    f"{label}: quantile rank distance {distance} exceeds the "
                    f"sketch's bound {outcome.max_rank_error}"
                )
        return
    if outcome.count > truth.count:
        raise AssertionError(f"{label}: count {outcome.count} > true {truth.count}")
    if spec.op in ("count", "sum") and outcome.value > truth.value + 1e-9:
        raise AssertionError(f"{label}: {spec.op} overshoots the truth")
    if spec.op == "quantile" and outcome.value is not None:
        if not np.any(column == outcome.value):
            raise AssertionError(f"{label}: quantile value is not a stored attribute")


@register_experiment(
    "analytics-sweep",
    "Push-down aggregates: block accesses vs brute-force, answers verified",
    "beyond the paper",
)
def run_analytics_sweep(
    profile: ScaleProfile,
    index_names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """One row per (index, aggregate op): reads, reduction, verification."""
    points = make_points(profile)
    names = tuple(index_names) if index_names is not None else ANALYTICS_INDEX_NAMES
    ops = tuple(profile.extras.get("aggregate_ops") or AGGREGATE_OPS)
    unknown = [op for op in ops if op not in AGGREGATE_OPS]
    if unknown:
        raise ValueError(
            f"unknown aggregate op(s) {unknown}; available: {list(AGGREGATE_OPS)}"
        )
    n_shards = int(profile.extras.get("shards", 0))
    policy = profile.extras.get("sharding_policy") or "grid"
    cache_blocks = int(profile.extras.get("cache_blocks", 0))
    n_specs = max(10, profile.n_window_queries)
    # windows holding a few blocks' worth of points: large enough that the
    # partials aggregate something, small enough that push-down skips blocks
    area = min(
        0.05,
        max(profile.default_window_area,
            4 * profile.block_capacity / max(profile.n_points, 1)),
    )

    config = SuiteConfig(
        n_points=points.shape[0],
        distribution=profile.default_distribution,
        block_capacity=profile.block_capacity,
        partition_threshold=profile.partition_threshold,
        training_epochs=profile.training_epochs,
        seed=profile.seed,
    )

    rows: list[list] = []
    for name in names:
        if n_shards >= 2:
            index = build_sharded_index(points, name, n_shards, policy, config)
            if cache_blocks > 0:
                index.attach_caches(cache_blocks)
            engine = ShardedBatchEngine(index)
            exact = bool(index.supports_exact_results)
        else:
            suite = build_index_suite(
                points,
                [name],
                block_capacity=profile.block_capacity,
                partition_threshold=profile.partition_threshold,
                training=TrainingConfig(epochs=profile.training_epochs, seed=profile.seed),
                seed=profile.seed,
            )
            index = suite[name]
            if cache_blocks > 0:
                index.attach_cache(PageCache(cache_blocks))
            engine = BatchQueryEngine(index)
            exact = index.supports_exact_results

        brute = _brute_force_reads(index, points.shape[0], profile.block_capacity)
        for op in ops:
            specs = _aggregate_specs(
                points, op, n_specs,
                area_fraction=area, k=profile.default_k, seed=profile.seed + 53,
            )
            result = engine.execute(QueryRequest.for_aggregates(specs))
            for spec, outcome in zip(specs, result.values):
                _verify_outcome(spec, outcome, points, exact)
            logical = result.access.logical_reads or 0
            brute_total = brute * len(specs)
            rows.append(
                [
                    name,
                    op,
                    len(specs),
                    logical,
                    brute_total,
                    round(brute_total / max(logical, 1), 1),
                    "exact" if exact else "sound",
                    "yes",
                ]
            )

    notes = [
        f"{points.shape[0]} points ({profile.default_distribution}), window area "
        f"fraction {area:.5f}; brute_force_reads = full block scan per aggregate",
        "every answer checked in-line against the brute-force reference "
        "(exact agreement for exact kinds, soundness for ZM/RSMI) — the sweep "
        "aborts on any disagreement",
    ]
    if n_shards >= 2:
        notes.append(
            f"served through {n_shards} '{policy}' shards; one partial per "
            "aggregate per shard, merged at the router"
        )
    if cache_blocks > 0:
        notes.append(
            f"{cache_blocks}-page cache attached (per shard when sharded); "
            "logical reads are cache-independent by construction"
        )
    return ExperimentResult(
        experiment_id="analytics-sweep",
        title="Push-down aggregate operators vs brute-force scans",
        paper_reference="beyond the paper (ROADMAP: analytic query surface)",
        header=[
            "index",
            "op",
            "n_aggregates",
            "logical_reads",
            "brute_force_reads",
            "read_reduction",
            "agreement",
            "verified",
        ],
        rows=rows,
        notes=notes,
    )


def _window_recall(index, oracle: OracleIndex, *, area: float, n_windows: int,
                   seed: int) -> tuple[float, float]:
    """Mean window recall of ``index`` against the oracle's live point set,
    plus the mean block accesses one probe window costs (the read price of
    deferred retraining: overflow chains are scanned, not lost)."""
    live = oracle.points()
    if live.shape[0] == 0:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    extent = math.sqrt(max(area, 1e-9))
    recalls = []
    reads_before = index.stats.logical_reads
    for _ in range(n_windows):
        cx, cy = live[int(rng.integers(live.shape[0]))]
        window = Rect.from_center(
            float(cx), float(cy), extent, extent
        ).clip_to(Rect.unit())
        truth = oracle.window_query(window)
        got = index.window_query(window)
        if truth.shape[0] == 0:
            continue
        want = {(float(x), float(y)) for x, y in truth}
        have = {(float(x), float(y)) for x, y in got}
        recalls.append(len(want & have) / len(want))
    reads_per_window = (index.stats.logical_reads - reads_before) / max(n_windows, 1)
    return (float(np.mean(recalls)) if recalls else 1.0), reads_per_window


@register_experiment(
    "rebuild-policy",
    "RSMI retrain triggers under drift: rebuild cost vs recall trajectory",
    "beyond the paper",
)
def run_rebuild_policy(profile: ScaleProfile) -> ExperimentResult:
    """Replay ``bulk-churn`` writes under each retrain policy; one row per
    (policy, checkpoint)."""
    import dataclasses

    points = make_points(profile)
    n_ops = int(profile.extras.get("scenario_ops", 0)) or max(
        300, profile.n_points // 4
    )
    # keep bulk-churn's drifting key distribution but make the stream pure
    # writes: retrain policies only ever react to writes, and the read kinds
    # would just dilute the drift the policies are being judged on.  Arrival
    # is forced steady — bulk-churn's bursty runs (mean 32) leave a short
    # stream with only ~n_ops/32 kind draws, so the realized insert/delete
    # balance can invert the 3:1 mix and starve the triggers being compared
    base = scenario_by_name("bulk-churn")
    spec = base.with_overrides(
        n_ops=n_ops,
        seed=profile.seed + 97,
        arrival="steady",
        mix=dataclasses.replace(
            base.mix, point=0.0, window=0.0, knn=0.0, insert=0.75, delete=0.25
        ),
    )
    operations = [
        op for op in generate_operations(spec, points)
        if op.kind in ("insert", "delete")
    ]
    n_checkpoints = 4
    every = max(1, len(operations) // n_checkpoints)
    periodic_threshold = max(1, points.shape[0] // 10)
    depth_threshold = 3

    rows: list[list] = []
    for policy in REBUILD_POLICY_NAMES:
        index = RSMI(
            RSMIConfig(
                block_capacity=profile.block_capacity,
                partition_threshold=profile.partition_threshold,
                training=TrainingConfig(epochs=profile.training_epochs,
                                        seed=profile.seed),
                seed=profile.seed,
            )
        ).build(points)
        oracle = OracleIndex().build(points)
        inserts_since = 0
        n_rebuilds = 0
        retrain_s = 0.0

        def maybe_rebuild() -> None:
            nonlocal inserts_since, n_rebuilds, retrain_s
            if policy == "never":
                return
            if policy == "periodic":
                if inserts_since < periodic_threshold:
                    return
            elif policy == "chain-depth":
                depths = index.store.chain_depths()
                if not depths or max(depths) < depth_threshold:
                    return
            started = time.perf_counter()
            index.rebuild()
            retrain_s += time.perf_counter() - started
            inserts_since = 0
            n_rebuilds += 1

        for i, op in enumerate(operations, start=1):
            if op.kind == "insert":
                index.insert(op.x, op.y)
                oracle.insert(op.x, op.y)
                inserts_since += 1
            else:
                index.delete(op.x, op.y)
                oracle.delete(op.x, op.y)
            # chain depth is a store scan; probe it sparsely
            if policy != "chain-depth" or i % 25 == 0:
                maybe_rebuild()
            if i % every == 0 or i == len(operations):
                recall, reads_per_window = _window_recall(
                    index, oracle,
                    # block-sized probe windows: small enough to be local,
                    # populated enough that lost points actually show
                    area=max(profile.default_window_area * 4,
                             2 * profile.block_capacity
                             / max(oracle.n_points, 1)),
                    n_windows=max(10, profile.n_window_queries),
                    seed=profile.seed + i,
                )
                depths = index.store.chain_depths()
                rows.append(
                    [
                        policy,
                        i,
                        oracle.n_points,
                        n_rebuilds,
                        round(retrain_s, 2),
                        round(recall, 4),
                        round(reads_per_window, 1),
                        max(depths) if depths else 0,
                    ]
                )

    notes = [
        f"bulk-churn write stream, {len(operations)} insert/delete ops over "
        f"{points.shape[0]} initial points; recall from "
        f"{max(10, profile.n_window_queries)} windows per checkpoint against a "
        "live oracle",
        f"periodic: retrain after {periodic_threshold} inserts (the paper's "
        f"RSMIr trigger at 10%); chain-depth: retrain when any overflow chain "
        f"reaches depth {depth_threshold}",
        "retrain_s is cumulative wall-clock spent inside rebuilds — the cost "
        "axis the recall column is traded against",
    ]
    return ExperimentResult(
        experiment_id="rebuild-policy",
        title="Retrain trigger policies under bulk-churn drift",
        paper_reference="beyond the paper (ROADMAP: analytic query surface)",
        header=[
            "policy",
            "ops_replayed",
            "live_points",
            "rebuilds",
            "retrain_s",
            "window_recall",
            "reads_per_window",
            "max_chain_depth",
        ],
        rows=rows,
        notes=notes,
    )
