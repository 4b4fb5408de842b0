"""Drive an index through a scenario stream, checking and measuring as it goes.

:class:`ScenarioRunner` replays the operation stream of a
:class:`~repro.workloads.spec.ScenarioSpec` against one index.  Reads are
micro-batched through the existing :class:`~repro.engine.BatchQueryEngine`
(so RSMI-backed indices get the vectorised level-synchronous paths) — or,
for a :class:`~repro.sharding.ShardedSpatialIndex`, through the
shard-grouping :class:`~repro.sharding.ShardedBatchEngine` — and every
write flushes the pending read batch first, which preserves the stream's
read/write interleaving exactly.

When a shadow :class:`~repro.workloads.oracle.OracleIndex` is attached, the
runner replays the identical stream through it and asserts answer agreement
per operation — exact agreement for point queries and deletion outcomes on
every index, exact set/distance agreement for window/kNN on exact indices,
and soundness (no false positives, only stored points) plus recorded recall
for the approximate learned indices.  Any violation raises
:class:`ScenarioMismatch` naming the operation, which is what turns a
scenario into a randomized model-based differential fuzz case.

Periodic :class:`ScenarioSnapshot` records capture throughput, block
accesses, recall and overflow-chain growth so the same machinery doubles as
the load generator behind ``experiments/scenario_sweeps.py``.

Latency is measured per operation against the spec's arrival model: each
engine batch / write is timed (its wall time attributed across the batch's
operations as *service* time) and fed through a
:class:`~repro.workloads.latency.VirtualClock` — under ``closed-loop`` the
next arrival follows the previous completion (plus think time), so sojourn
equals service; under ``open-loop`` arrivals follow the stream's virtual
schedule, so sojourn additionally includes the queueing delay a saturated
server builds up.  p50/p95/p99 summaries surface per snapshot interval, per
operation kind, per tenant (with a fairness index) and for the whole run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analytics.attributes import attribute_value
from repro.analytics.ops import QueryRequest, quantile_rank_distance
from repro.baselines.interface import SpatialIndex
from repro.engine import BatchQueryEngine
from repro.evaluation.metrics import knn_recall, window_recall
from repro.sharding import ShardedBatchEngine, ShardedSpatialIndex
from repro.storage import DurableIndex
from repro.workloads.latency import (
    LatencyRecorder,
    LatencySummary,
    PercentileSketch,
    VirtualClock,
)
from repro.workloads.oracle import OracleIndex
from repro.workloads.spec import ScenarioSpec
from repro.workloads.stream import Operation, generate_operations

__all__ = ["ScenarioMismatch", "ScenarioSnapshot", "ScenarioResult", "ScenarioRunner"]


def _served(index):
    """The index reads are served from: a DurableIndex's wrapped index."""
    return index.wrapped if isinstance(index, DurableIndex) else index


class ScenarioMismatch(AssertionError):
    """An index disagreed with the shadow oracle on one operation."""


@dataclass
class ScenarioSnapshot:
    """Metrics over one snapshot interval of a scenario run."""

    #: operations completed when the snapshot was taken
    op_index: int
    #: wall-clock seconds since the run started
    elapsed_s: float
    #: operations served in this interval
    interval_ops: int
    #: throughput over the interval
    ops_per_s: float
    #: block/node reads per operation over the interval (0.0 for stats-less indices)
    avg_block_accesses: float
    #: live points according to the oracle/stream after the interval
    n_points: int
    #: operations per kind in this interval
    op_counts: dict[str, int] = field(default_factory=dict)
    #: mean window recall vs the oracle over the interval (None without oracle
    #: or when the interval had no window queries)
    window_recall: Optional[float] = None
    #: mean kNN recall vs the oracle over the interval
    knn_recall: Optional[float] = None
    #: overflow blocks in the index's store (None for indices without one)
    n_overflow_blocks: Optional[int] = None
    #: deepest base-block overflow chain (None for indices without a store)
    max_chain_depth: Optional[int] = None
    #: live points per shard (None for unsharded indices)
    per_shard_points: Optional[list[int]] = None
    #: fraction of the interval's logical reads served from the block cache
    #: (None when no cache is attached)
    cache_hit_ratio: Optional[float] = None
    #: sojourn-time percentiles over the interval (queue delay + service
    #: under open-loop arrivals; pure service under closed-loop)
    latency: Optional[LatencySummary] = None


@dataclass
class ScenarioResult:
    """The outcome of one full scenario run against one index."""

    scenario: str
    index_name: str
    n_ops: int
    snapshots: list[ScenarioSnapshot]
    op_counts: dict[str, int]
    elapsed_s: float
    total_block_accesses: int
    #: True when a shadow oracle checked every operation
    checked: bool
    #: read accesses attributed per shard over the whole run (sharded
    #: indices only; writes are not attributed)
    per_shard_block_accesses: Optional[dict[int, int]] = None
    #: physical (post-cache) reads over the whole run; equals
    #: ``total_block_accesses`` when no cache is attached
    total_physical_accesses: int = 0
    #: whole-run sojourn percentiles (arrival-model dependent, see runner doc)
    latency: Optional[LatencySummary] = None
    #: whole-run service-time percentiles (arrival-model independent)
    service_latency: Optional[LatencySummary] = None
    #: sojourn percentiles split by operation kind
    latency_by_kind: dict[str, LatencySummary] = field(default_factory=dict)
    #: sojourn percentiles split by tenant id (one entry for single-tenant runs)
    latency_by_tenant: dict[int, LatencySummary] = field(default_factory=dict)
    #: Jain's fairness index over per-tenant mean sojourns (None unless the
    #: stream interleaved >= 2 tenants)
    fairness: Optional[float] = None

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of the run's logical reads served from the cache."""
        if self.total_block_accesses <= 0:
            return 0.0
        return 1.0 - self.total_physical_accesses / self.total_block_accesses

    @property
    def ops_per_s(self) -> float:
        return self.n_ops / self.elapsed_s if self.elapsed_s > 0 else float("inf")


class _IntervalAccumulator:
    """Counters reset at every snapshot boundary."""

    def __init__(self, seed: int = 0):
        self.ops = 0
        self.block_accesses = 0
        self.physical_accesses = 0
        self.op_counts: dict[str, int] = {}
        self.window_recalls: list[float] = []
        self.knn_recalls: list[float] = []
        self.sojourns = PercentileSketch(seed=seed)
        self.started_at = time.perf_counter()

    def count(self, kind: str) -> None:
        self.ops += 1
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1


class ScenarioRunner:
    """Replay a scenario stream against one index.

    Parameters
    ----------
    index:
        The index under test: any
        :class:`~repro.baselines.interface.SpatialIndex` kind, a sharded
        index, or either behind a :class:`~repro.storage.DurableIndex`.
    spec:
        The scenario to run.
    oracle:
        Optional shadow :class:`OracleIndex` built over the *same* initial
        points; when given, every answer is checked and recall is recorded.
    exact_results:
        True when the index answers window/kNN/aggregate queries exactly (the
        traditional baselines); enables exact-agreement assertions instead of
        soundness-only checks.  Ignored without an oracle.  The default
        (``None``) auto-detects from the index's ``supports_exact_results``
        capability flag (falling back to the innermost wrapped index, then to
        ``False``).
    engine_mode / batch_size:
        Execution mode for the read engine and the maximum number of reads
        batched between writes/snapshots.
    batch_reorder:
        Execute read micro-batches in Hilbert-key order (results scatter
        back, answers unchanged — see
        :class:`~repro.engine.BatchQueryEngine`'s ``reorder``).
    rebalancer:
        Optional :class:`~repro.sharding.RebalanceController` over the
        (inner) sharded index.  The runner feeds it every batch's per-shard
        access counts and ticks it after each flush
        and each write, so shard migrations interleave with the stream —
        reads race the swap, writes land in splitting shards — while the
        oracle checks keep asserting answer identity.
    engine:
        Optional pre-built batch engine overriding the automatic choice —
        this is how the process-pool
        :class:`~repro.serving.ParallelShardEngine` drops into scenario
        runs.  An engine advertising ``applies_writes`` also absorbs the
        stream's writes (routing them to the owning worker) and is billed
        through its ``pop_write_accesses()``; pass the engine itself as
        ``index`` in that case.  Incompatible with ``rebalancer`` (worker
        processes hold the shard state; the controller could only migrate
        the parent's copy).
    """

    def __init__(
        self,
        index,
        spec: ScenarioSpec,
        *,
        oracle: Optional[OracleIndex] = None,
        exact_results: Optional[bool] = None,
        engine_mode: str = "auto",
        batch_size: int = 64,
        batch_reorder: bool = False,
        rebalancer=None,
        engine=None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.index = index
        self.spec = spec
        self.oracle = oracle
        if exact_results is None:
            exact_results = index.supports_exact_results
        self.exact_results = bool(exact_results)
        if engine is not None:
            if rebalancer is not None:
                raise ValueError(
                    "an injected engine cannot be combined with a rebalancer"
                )
            self.engine = engine
        else:
            # a DurableIndex serves reads straight from the index it wraps
            # (only writes need the WAL, and those go through
            # self.index.insert/delete)
            served = _served(index)
            if isinstance(served, ShardedSpatialIndex):
                # sharded indices batch through the shard-grouping dispatcher
                # so every read still fans out to the minimal shard set
                self.engine = ShardedBatchEngine(
                    served, mode=engine_mode, reorder=batch_reorder
                )
            else:
                self.engine = BatchQueryEngine(
                    served, mode=engine_mode, reorder=batch_reorder
                )
        self._engine_writes = bool(getattr(self.engine, "applies_writes", False))
        self.batch_size = batch_size
        self._rebalancer = rebalancer
        self._name = getattr(index, "name", None) or type(index).__name__
        #: multi-tenant oracles take the op's tenant on writes
        self._tenant_aware_oracle = bool(getattr(oracle, "tenant_aware", False))
        self._open_loop = spec.arrival_model == "open-loop"

    # -- public entry ---------------------------------------------------------

    def run(self, initial_points: np.ndarray) -> ScenarioResult:
        """Generate the stream for ``initial_points`` and replay it."""
        operations = generate_operations(self.spec, initial_points)
        return self.replay(operations)

    def replay(self, operations: list[Operation]) -> ScenarioResult:
        """Replay an already-generated operation stream."""
        snapshots: list[ScenarioSnapshot] = []
        totals: dict[str, int] = {}
        total_accesses = 0
        total_physical = 0
        pending: list[Operation] = []
        self._per_shard_reads: dict[int, int] = {}
        self._clock = VirtualClock()
        self._latency = LatencyRecorder(seed=self.spec.seed)
        interval = _IntervalAccumulator(seed=self.spec.seed)
        started = time.perf_counter()

        for op_index, op in enumerate(operations):
            if op.kind in ("point", "window", "knn", "aggregate"):
                pending.append(op)
                if len(pending) >= self.batch_size:
                    self._flush(pending, interval)
            else:
                self._flush(pending, interval)
                self._apply_write(op, interval)
            interval.count(op.kind)
            totals[op.kind] = totals.get(op.kind, 0) + 1

            if (op_index + 1) % self.spec.snapshot_every == 0 or op_index + 1 == len(
                operations
            ):
                self._flush(pending, interval)
                snapshots.append(self._snapshot(op_index + 1, started, interval))
                total_accesses += interval.block_accesses
                total_physical += interval.physical_accesses
                interval = _IntervalAccumulator(seed=self.spec.seed)

        if self._rebalancer is not None:
            # never leave a migration half-staged at end of run: the swap (or
            # abort) happens under the same single-threaded control loop
            self._rebalancer.drain()
        elapsed = time.perf_counter() - started
        return ScenarioResult(
            scenario=self.spec.name,
            index_name=self._name,
            n_ops=len(operations),
            snapshots=snapshots,
            op_counts=totals,
            elapsed_s=elapsed,
            total_block_accesses=total_accesses,
            checked=self.oracle is not None,
            per_shard_block_accesses=(
                dict(self._per_shard_reads) if self._per_shard_reads else None
            ),
            total_physical_accesses=total_physical,
            latency=self._latency.sojourn_summary(),
            service_latency=self._latency.service_summary(),
            latency_by_kind=self._latency.by_kind(),
            latency_by_tenant=self._latency.by_tenant(),
            fairness=self._latency.fairness(),
        )

    # -- batched reads --------------------------------------------------------

    def _flush(self, pending: list[Operation], interval: _IntervalAccumulator) -> None:
        """Execute the buffered reads (one engine batch per kind), folding
        their logical/physical access costs and measured latencies into
        ``interval``.

        Each engine batch is timed as a whole and its wall time attributed
        uniformly across the batch's operations as per-op *service* time
        (oracle checking is excluded from the timing); the virtual clock then
        replays the flushed operations in stream order to derive sojourns.
        """
        if not pending:
            return
        ops = list(pending)
        pending.clear()
        services = [0.0] * len(ops)
        by_kind: dict[str, list[int]] = {
            "point": [],
            "window": [],
            "knn": [],
            "aggregate": [],
        }
        for position, op in enumerate(ops):
            by_kind[op.kind].append(position)

        positions = by_kind["point"]
        if positions:
            queries = np.asarray([(ops[p].x, ops[p].y) for p in positions], dtype=float)
            request = QueryRequest.for_points(queries)
            result, per_op = self._timed(lambda: self.engine.execute(request), positions)
            self._account(result, interval)
            for p in positions:
                services[p] = per_op
            if self.oracle is not None:
                for p, found in zip(positions, result.values):
                    self._check_point(ops[p], bool(found))
        positions = by_kind["window"]
        if positions:
            request = QueryRequest.for_windows([ops[p].window for p in positions])
            result, per_op = self._timed(lambda: self.engine.execute(request), positions)
            self._account(result, interval)
            for p in positions:
                services[p] = per_op
            if self.oracle is not None:
                for p, reported in zip(positions, result.values):
                    self._check_window(ops[p], reported, interval)
        positions = by_kind["knn"]
        if positions:
            queries = np.asarray([(ops[p].x, ops[p].y) for p in positions], dtype=float)
            request = QueryRequest.for_knn(queries, self.spec.k)
            result, per_op = self._timed(lambda: self.engine.execute(request), positions)
            self._account(result, interval)
            for p in positions:
                services[p] = per_op
            if self.oracle is not None:
                for p, reported in zip(positions, result.values):
                    self._check_knn(ops[p], reported, interval)
        positions = by_kind["aggregate"]
        if positions:
            request = QueryRequest.for_aggregates([ops[p].agg for p in positions])
            result, per_op = self._timed(lambda: self.engine.execute(request), positions)
            self._account(result, interval)
            for p in positions:
                services[p] = per_op
            if self.oracle is not None:
                for p, outcome in zip(positions, result.values):
                    self._check_aggregate(ops[p], outcome)

        # the flushed reads re-enter the virtual timeline in stream order
        for op, service in zip(ops, services):
            self._observe_latency(op, service, interval)
        if self._rebalancer is not None:
            # one control step per flushed batch: migrations advance stage by
            # stage between batches, so later reads genuinely race the swap
            self._rebalancer.tick()

    @staticmethod
    def _timed(run, positions):
        """Run one engine batch, returning it plus its per-op wall seconds."""
        started = time.perf_counter()
        batch = run()
        return batch, (time.perf_counter() - started) / max(len(positions), 1)

    def _account(self, result, interval: _IntervalAccumulator) -> None:
        """Fold one request's unified access summary into the interval/run totals."""
        access = result.access
        per_shard = access.per_shard_logical_reads if access is not None else None
        if self._rebalancer is not None:
            self._rebalancer.observe(per_shard)
        if per_shard:
            for shard_id, reads in per_shard.items():
                self._per_shard_reads[shard_id] = (
                    self._per_shard_reads.get(shard_id, 0) + reads
                )
        logical = (access.logical_reads if access is not None else None) or 0
        interval.block_accesses += logical
        physical = access.physical_reads if access is not None else None
        interval.physical_accesses += logical if physical is None else physical

    # -- latency --------------------------------------------------------------

    def _observe_latency(
        self, op: Operation, service: float, interval: _IntervalAccumulator
    ) -> None:
        """Feed one executed operation through the virtual clock and sketches."""
        if self._open_loop:
            arrival = op.arrival_time
        else:
            # closed loop: issued think_time after the previous completion
            arrival = self._clock.server_free + self.spec.think_time
        sojourn = self._clock.serve(arrival, service)
        interval.sojourns.add(sojourn)
        self._latency.record(op.kind, op.tenant, service, sojourn)

    # -- writes ---------------------------------------------------------------

    def _apply_write(self, op: Operation, interval: _IntervalAccumulator) -> None:
        if self._engine_writes:
            # write-applying engines (the process pool) route the write to
            # the owning worker themselves and report its access deltas
            started = time.perf_counter()
            if op.kind == "insert":
                self.engine.insert(op.x, op.y)
            else:
                removed = bool(self.engine.delete(op.x, op.y))
            service = time.perf_counter() - started
            logical, physical = self.engine.pop_write_accesses()
            if self.oracle is not None:
                if op.kind == "insert":
                    self._oracle_write(op)
                else:
                    expected = self._oracle_write(op)
                    if removed != expected:
                        raise ScenarioMismatch(
                            f"{self._name}: delete({op.x}, {op.y}) returned "
                            f"{removed}, oracle says {expected}"
                        )
            interval.block_accesses += logical
            interval.physical_accesses += physical
            self._observe_latency(op, service, interval)
            return
        stats = self.index.stats
        before = stats.total_reads
        before_physical = stats.physical_reads
        started = time.perf_counter()
        if op.kind == "insert":
            self.index.insert(op.x, op.y)
        else:
            removed = bool(self.index.delete(op.x, op.y))
        service = time.perf_counter() - started
        if self.oracle is not None:
            if op.kind == "insert":
                self._oracle_write(op)
            else:
                expected = self._oracle_write(op)
                if removed != expected:
                    raise ScenarioMismatch(
                        f"{self._name}: delete({op.x}, {op.y}) returned {removed}, "
                        f"oracle says {expected}"
                    )
        after = stats.total_reads
        after_physical = stats.physical_reads
        interval.block_accesses += max(0, after - before)
        interval.physical_accesses += max(0, after_physical - before_physical)
        self._observe_latency(op, service, interval)
        if self._rebalancer is not None:
            # ticked after the access-delta bracket above, so migration I/O
            # (snapshots, child builds) is never billed to this write
            self._rebalancer.observe_write(op.x, op.y)
            self._rebalancer.tick()

    def _oracle_write(self, op: Operation):
        """Replay one write on the shadow (routing tenants when supported)."""
        if op.kind == "insert":
            if self._tenant_aware_oracle:
                return self.oracle.insert(op.x, op.y, tenant=op.tenant)
            return self.oracle.insert(op.x, op.y)
        if self._tenant_aware_oracle:
            return self.oracle.delete(op.x, op.y, tenant=op.tenant)
        return self.oracle.delete(op.x, op.y)

    # -- oracle agreement -----------------------------------------------------

    def _check_point(self, op: Operation, found: bool) -> None:
        expected = self.oracle.contains(op.x, op.y)
        if found != expected:
            raise ScenarioMismatch(
                f"{self._name}: point_query({op.x}, {op.y}) = {found}, "
                f"oracle says {expected}"
            )

    def _check_window(
        self, op: Operation, reported: np.ndarray, interval: _IntervalAccumulator
    ) -> None:
        truth = self.oracle.window_query(op.window)
        got = {tuple(p) for p in np.asarray(reported, dtype=float).reshape(-1, 2)}
        want = {tuple(p) for p in truth}
        if self.exact_results:
            if got != want:
                raise ScenarioMismatch(
                    f"{self._name}: window {op.window} returned {len(got)} points, "
                    f"oracle has {len(want)}; symmetric difference "
                    f"{sorted(got ^ want)[:4]}"
                )
        elif not got <= want:
            raise ScenarioMismatch(
                f"{self._name}: window {op.window} reported points outside the "
                f"true answer (false positives): {sorted(got - want)[:4]}"
            )
        interval.window_recalls.append(window_recall(reported, truth))

    def _check_knn(
        self, op: Operation, reported: np.ndarray, interval: _IntervalAccumulator
    ) -> None:
        reported = np.asarray(reported, dtype=float).reshape(-1, 2)
        expected_count = min(op.k, self.oracle.n_points)
        if reported.shape[0] != expected_count:
            raise ScenarioMismatch(
                f"{self._name}: knn({op.x}, {op.y}, k={op.k}) returned "
                f"{reported.shape[0]} points, expected {expected_count}"
            )
        for x, y in reported:
            if not self.oracle.contains(float(x), float(y)):
                raise ScenarioMismatch(
                    f"{self._name}: knn({op.x}, {op.y}) reported non-stored point "
                    f"({x}, {y})"
                )
        truth = self.oracle.knn_query(op.x, op.y, op.k)
        if self.exact_results:
            got_d = np.sort(np.hypot(reported[:, 0] - op.x, reported[:, 1] - op.y))
            want_d = np.sort(np.hypot(truth[:, 0] - op.x, truth[:, 1] - op.y))
            if not np.allclose(got_d, want_d, atol=1e-9):
                raise ScenarioMismatch(
                    f"{self._name}: knn({op.x}, {op.y}, k={op.k}) distances differ "
                    f"from the oracle: {got_d} vs {want_d}"
                )
        interval.knn_recalls.append(knn_recall(reported, truth))

    def _check_aggregate(self, op: Operation, outcome) -> None:
        """Check one aggregate answer against the brute-force oracle.

        Exact indices must agree exactly — bit-identical count/sum/mean (the
        quantised attribute column makes sums order-independent), identical
        top-k items, and a quantile within the sketch's self-reported rank
        error of the true column.  Approximate indices get soundness checks:
        the answer must be derivable from a subset of the true window (no
        inflated counts/sums, no invented points or attribute values).
        """
        spec = op.agg
        truth = self.oracle.aggregate(spec)
        label = f"{self._name}: {spec.op} over {spec.window}"
        if self.exact_results:
            if outcome.count != truth.count:
                raise ScenarioMismatch(
                    f"{label} saw {outcome.count} points, oracle has {truth.count}"
                )
            if spec.op in ("count", "sum", "mean"):
                if outcome.value != truth.value:
                    raise ScenarioMismatch(
                        f"{label} = {outcome.value!r}, oracle says {truth.value!r}"
                    )
            elif spec.op == "top-k":
                if outcome.items != truth.items:
                    raise ScenarioMismatch(
                        f"{label} items {outcome.items} != oracle {truth.items}"
                    )
            else:  # quantile: within the sketch's self-reported rank error
                if truth.count == 0:
                    if outcome.value is not None:
                        raise ScenarioMismatch(
                            f"{label} returned {outcome.value!r} over an empty window"
                        )
                    return
                column = self.oracle.window_attribute_values(spec)
                distance = quantile_rank_distance(outcome.value, column, spec.q)
                if distance > outcome.max_rank_error:
                    raise ScenarioMismatch(
                        f"{label} q={spec.q} value {outcome.value!r} is {distance} "
                        f"ranks off, sketch promised <= {outcome.max_rank_error}"
                    )
            return
        # approximate index: the answer must come from a subset of the truth
        if outcome.count > truth.count:
            raise ScenarioMismatch(
                f"{label} saw {outcome.count} points, oracle has only {truth.count}"
            )
        if spec.op == "count" and outcome.value > truth.value:
            raise ScenarioMismatch(
                f"{label} = {outcome.value!r} exceeds oracle {truth.value!r}"
            )
        elif spec.op == "sum" and outcome.value > truth.value + 1e-9:
            # attribute values are >= 0, so a subset sum can never exceed
            raise ScenarioMismatch(
                f"{label} = {outcome.value!r} exceeds oracle {truth.value!r}"
            )
        elif spec.op == "mean" and outcome.count > 0:
            column = self.oracle.window_attribute_values(spec)
            if not float(column[0]) <= outcome.value <= float(column[-1]):
                raise ScenarioMismatch(
                    f"{label} = {outcome.value!r} outside the true attribute "
                    f"range [{column[0]}, {column[-1]}]"
                )
        elif spec.op == "quantile" and outcome.value is not None:
            column = self.oracle.window_attribute_values(spec)
            if not np.any(column == outcome.value):
                raise ScenarioMismatch(
                    f"{label} value {outcome.value!r} is not a true attribute "
                    f"value of the window"
                )
        elif spec.op == "top-k" and outcome.items:
            for value, x, y in outcome.items:
                if not spec.window.contains_point(x, y) or not self.oracle.contains(x, y):
                    raise ScenarioMismatch(
                        f"{label} reported non-stored/out-of-window item "
                        f"({value}, {x}, {y})"
                    )
                if value != attribute_value(x, y, spec.attribute_seed):
                    raise ScenarioMismatch(
                        f"{label} item ({x}, {y}) carries attribute {value!r}, "
                        f"true value is {attribute_value(x, y, spec.attribute_seed)!r}"
                    )

    # -- snapshots ------------------------------------------------------------

    def _snapshot(
        self, op_index: int, started: float, interval: _IntervalAccumulator
    ) -> ScenarioSnapshot:
        now = time.perf_counter()
        interval_s = max(now - interval.started_at, 1e-9)
        target = _served(self.index)
        store = getattr(target, "store", None)
        n_overflow = max_depth = None
        if store is not None:
            depths = store.chain_depths()
            n_overflow = store.n_overflow_blocks
            max_depth = max(depths) if depths else 0
        n_points = (
            self.oracle.n_points
            if self.oracle is not None
            else int(target.n_points)
        )
        return ScenarioSnapshot(
            op_index=op_index,
            elapsed_s=now - started,
            interval_ops=interval.ops,
            ops_per_s=interval.ops / interval_s,
            avg_block_accesses=interval.block_accesses / max(interval.ops, 1),
            n_points=n_points,
            op_counts=dict(interval.op_counts),
            window_recall=(
                float(np.mean(interval.window_recalls)) if interval.window_recalls else None
            ),
            knn_recall=(
                float(np.mean(interval.knn_recalls)) if interval.knn_recalls else None
            ),
            n_overflow_blocks=n_overflow,
            max_chain_depth=max_depth,
            per_shard_points=(
                target.per_shard_points()
                if isinstance(target, ShardedSpatialIndex)
                else None
            ),
            cache_hit_ratio=self._interval_hit_ratio(interval),
            latency=LatencySummary.from_sketch(interval.sojourns),
        )

    def _interval_hit_ratio(self, interval: _IntervalAccumulator) -> Optional[float]:
        if not self._has_cache():
            return None
        if interval.block_accesses <= 0:
            return 0.0
        return 1.0 - interval.physical_accesses / interval.block_accesses

    def _has_cache(self) -> bool:
        served = _served(self.index)
        if isinstance(served, ShardedSpatialIndex):
            return served.cache_hit_ratio() is not None
        return isinstance(served, SpatialIndex) and served.cache is not None
