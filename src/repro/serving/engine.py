"""Process-pool serving: per-shard-group workers behind one batch engine.

:class:`ParallelShardEngine` is the multi-core sibling of
:class:`~repro.sharding.ShardedBatchEngine`: the same
``execute(QueryRequest)`` surface, the same per-shard grouping and merge
and the same :class:`~repro.analytics.ops.QueryResult` accounting, but the
per-shard sub-batches execute in **worker processes**.

Worker topology
---------------
* Shard ``s`` belongs to **group** ``s % n_workers`` (with at most one
  group per shard, so extra workers never idle-own nothing).
* Each group is served by one :class:`~concurrent.futures
  .ProcessPoolExecutor` sized to exactly one long-lived worker, which
  builds the group's shards in-process from a picklable
  :class:`~repro.serving.spec.ServingSpec` subset (see
  :mod:`repro.serving.worker`).
* With ``replicas > 1`` each group gets that many identical workers:
  **reads round-robin** deterministically across a group's replicas, every
  **write fans out** to all of them (and delete outcomes must agree), so
  replicas stay bit-identical and a hot shard's read load spreads.

The parent does all routing through its own
:class:`~repro.sharding.router.ShardRouter` (rebuilt over the spec, so its
overflow bookkeeping matches a single-threaded index built from the same
assignment).  Answers are byte-identical to the single-threaded engines —
the differential fuzz suite (``tests/test_parallel_differential.py``)
asserts this across index kinds, sharding policies and worker counts.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from repro.analytics.ops import QueryRequest, QueryResult
from repro.core.batch import latency_from_durations, latency_uniform
from repro.serving import worker as worker_mod
from repro.serving.spec import ServingSpec
from repro.sharding.engine import group_by_shard, merge_shard_answers, request_ops, sub_batch
from repro.sharding.router import ShardRouter
from repro.storage.stats import AccessSummary

__all__ = ["ParallelShardEngine"]

_EMPTY = np.empty((0, 2), dtype=float)


class ParallelShardEngine:
    """Execute query batches against process-pool-resident shards.

    Parameters
    ----------
    spec:
        The :class:`ServingSpec` describing the index to serve.
    n_workers:
        Number of shard groups / worker processes (>= 1; capped at the
        shard count).
    replicas:
        Identical workers per group (>= 1); reads round-robin, writes fan
        out to all.
    mode / reorder:
        Forwarded to every worker's per-shard engines (same semantics as
        :class:`~repro.sharding.ShardedBatchEngine`).
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"`` /
        ``"spawn"``); None uses the platform default.  Everything shipped
        to workers is picklable, so both work.
    """

    #: the scenario runner routes writes through engines advertising this
    applies_writes = True

    def __init__(
        self,
        spec: ServingSpec,
        n_workers: int = 2,
        replicas: int = 1,
        mode: str = "auto",
        reorder: bool = False,
        start_method: Optional[str] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.spec = spec
        self.n_workers = min(int(n_workers), spec.n_shards)
        self.replicas = int(replicas)
        self.mode = mode
        self.name = spec.name
        #: capability flags, mirroring the sharded index the workers rebuild
        self.supports_exact_results = spec.supports_exact_results
        self.supports_attributes = True
        # the parent routes with its own router over a private policy copy;
        # replaying the spec's assignment reproduces the overflow extents a
        # directly built index would have recorded
        self.router = ShardRouter(pickle.loads(pickle.dumps(spec.policy)))
        for shard_id in sorted(spec.shard_points):
            points = spec.shard_points[shard_id]
            if points.shape[0] > 0:
                self.router.record_assignments(
                    points, np.full(points.shape[0], shard_id, dtype=np.int64)
                )
        self._groups: dict[int, list[int]] = {
            group: [] for group in range(self.n_workers)
        }
        for shard_id in range(spec.n_shards):
            self._groups[shard_id % self.n_workers].append(shard_id)
        mp_context = None
        if start_method is not None:
            import multiprocessing

            mp_context = multiprocessing.get_context(start_method)
        self._pools: dict[int, list[ProcessPoolExecutor]] = {}
        self._rr: dict[int, int] = {group: 0 for group in self._groups}
        self._closed = False
        self._n_points = spec.n_points
        self._write_logical = 0
        self._write_physical = 0
        try:
            for group, shard_ids in self._groups.items():
                self._pools[group] = [
                    ProcessPoolExecutor(max_workers=1, mp_context=mp_context)
                    for _ in range(self.replicas)
                ]
            expected = {
                shard_id: spec.shard_points.get(shard_id, _EMPTY).shape[0]
                for shard_id in range(spec.n_shards)
            }
            futures = [
                (group, pool.submit(worker_mod.worker_init,
                                    spec.subset(shard_ids), shard_ids, mode, reorder))
                for group, shard_ids in self._groups.items()
                for pool in self._pools[group]
            ]
            for group, future in futures:
                built = future.result()
                for shard_id, n_points in built.items():
                    if n_points != expected[shard_id]:
                        raise RuntimeError(
                            f"worker group {group} built shard {shard_id} with "
                            f"{n_points} points, spec has {expected[shard_id]}"
                        )
        except BaseException:
            self.close()
            raise

    # -- convenience constructors ----------------------------------------------

    @classmethod
    def from_points(cls, factory, points, n_shards=4, policy="grid", **kwargs):
        """Build straight from a point set (spec construction included)."""
        spec_kwargs = {
            key: kwargs.pop(key)
            for key in ("cache_blocks", "cache_policy", "name")
            if key in kwargs
        }
        spec = ServingSpec.from_points(
            factory, points, n_shards=n_shards, policy=policy, **spec_kwargs
        )
        return cls(spec, **kwargs)

    @classmethod
    def from_index(cls, index, **kwargs):
        """Serve a snapshot of a built (possibly rebalanced) sharded index."""
        return cls(ServingSpec.from_index(index), **kwargs)

    # -- dispatch plumbing -------------------------------------------------------

    def _read_pool(self, group: int) -> ProcessPoolExecutor:
        """The next replica of ``group`` in deterministic round-robin order."""
        pools = self._pools[group]
        if len(pools) == 1:
            return pools[0]
        slot = self._rr[group]
        self._rr[group] = (slot + 1) % len(pools)
        return pools[slot]

    @staticmethod
    def _access(per_group_reads) -> AccessSummary:
        """The request's reads, summed over the workers' per-shard deltas."""
        per_shard: dict[int, int] = {}
        physical = 0
        for reads in per_group_reads:
            for shard_id, (logical, phys) in reads.items():
                per_shard[shard_id] = per_shard.get(shard_id, 0) + logical
                physical += phys
        return AccessSummary(
            logical_reads=sum(per_shard.values()),
            physical_reads=physical,
            per_shard_logical_reads=per_shard,
        )

    def _finalize(
        self,
        kind: str,
        results: list,
        per_group_reads,
        group_seconds: dict,
        group_positions: dict,
        shard_counts: dict,
    ) -> QueryResult:
        per_shard_latency = {}
        per_query = np.zeros(len(results), dtype=float)
        for group, seconds in sorted(group_seconds.items()):
            positions = group_positions.get(group) or []
            if not positions:
                continue
            per_query[positions] += seconds / len(positions)
            for shard_id, count in sorted(shard_counts.get(group, {}).items()):
                summary = latency_uniform(seconds * count / len(positions), count)
                if summary is not None:
                    per_shard_latency[shard_id] = summary
        latency = latency_from_durations(per_query) if per_shard_latency else None
        return QueryResult(
            kind=kind,
            values=results,
            access=self._access(per_group_reads),
            latency=latency,
            per_shard_latency=per_shard_latency or None,
        )

    # -- queries -----------------------------------------------------------------

    def execute(self, request: QueryRequest) -> QueryResult:
        """Execute one :class:`~repro.analytics.ops.QueryRequest`.

        Same protocol as the single-process engines.  Point, window and
        aggregate requests are grouped per shard, each worker group gets
        one task holding its shards' sub-batches, and the answers merge
        parent-side in shard-id order.  Aggregate requests ship **partials**
        back from the workers — an O(1)-sized object per (spec, shard)
        instead of the shard's window point set — so answers are identical
        to :class:`~repro.sharding.ShardedBatchEngine` over the same spec.
        """
        if request.kind == "knn":
            return self._run_knn(request.points, request.k)
        kind = request.kind
        ops = request_ops(request)
        by_shard = group_by_shard(self.router, kind, ops)
        payloads: dict[int, dict] = {}
        group_positions: dict[int, list] = {}
        shard_counts: dict[int, dict] = {}
        for shard_id, indices in by_shard.items():
            group = shard_id % self.n_workers
            payloads.setdefault(group, {})[shard_id] = sub_batch(kind, ops, indices)
            group_positions.setdefault(group, []).extend(indices)
            shard_counts.setdefault(group, {})[shard_id] = len(indices)
        futures = {
            group: self._read_pool(group).submit(worker_mod.worker_read, kind, payload)
            for group, payload in sorted(payloads.items())
        }
        answers: dict[int, list] = {}
        per_group_reads = []
        group_seconds = {}
        for group, future in sorted(futures.items()):
            shard_answers, reads, seconds = future.result()
            answers.update(shard_answers)
            per_group_reads.append(reads)
            group_seconds[group] = seconds
        results = merge_shard_answers(kind, ops, by_shard, answers)
        return self._finalize(
            kind, results, per_group_reads, group_seconds, group_positions, shard_counts
        )

    def _run_knn(self, queries: np.ndarray, k: int) -> QueryResult:
        """kNN: every group computes its owned shards' local top-k; the
        parent merges with the same ``(distance, px, py)`` sort + truncate
        the best-first single-threaded expansion ends in.

        Answers are byte-identical to the single-threaded engine; the
        *access accounting* is an upper bound on it — the single-threaded
        expansion can prune far shards using the running k-th distance,
        a bound that cannot be shared across processes without
        serialising the fan-out, so here every shard always answers."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 2)
        if queries.shape[0] == 0:
            return QueryResult(kind="knn", values=[], access=self._access([]))
        started = time.perf_counter()
        futures = {
            group: self._read_pool(group).submit(worker_mod.worker_knn, queries, k)
            for group in sorted(self._groups)
        }
        merged: list[list] = [[] for _ in range(queries.shape[0])]
        per_group_reads = []
        for _group, future in sorted(futures.items()):
            candidates, reads, _seconds = future.result()
            per_group_reads.append(reads)
            for query_index, best in enumerate(candidates):
                merged[query_index].extend(best)
        results = []
        for best in merged:
            best.sort()
            del best[k:]
            results.append(
                np.asarray([(px, py) for _, px, py in best], dtype=float).reshape(-1, 2)
            )
        return QueryResult(
            kind="knn",
            values=results,
            access=self._access(per_group_reads),
            latency=latency_uniform(time.perf_counter() - started, queries.shape[0]),
        )

    # -- writes ------------------------------------------------------------------

    def insert(self, x: float, y: float) -> None:
        """Insert through the owning shard's worker (all replicas)."""
        x, y = float(x), float(y)
        shard_id = self.router.record_insert(x, y)
        group = shard_id % self.n_workers
        futures = [
            pool.submit(worker_mod.worker_insert, shard_id, x, y)
            for pool in self._pools[group]
        ]
        deltas = [future.result() for future in futures]
        # replicas duplicate the work; bill one replica's reads so the
        # accounting matches a single-threaded index applying this write once
        self._write_logical += deltas[0][0]
        self._write_physical += deltas[0][1]
        self._n_points += 1

    def delete(self, x: float, y: float) -> bool:
        """Delete through the owning shard's worker (all replicas agree)."""
        x, y = float(x), float(y)
        shard_id = self.router.shard_for_point(x, y)
        group = shard_id % self.n_workers
        futures = [
            pool.submit(worker_mod.worker_delete, shard_id, x, y)
            for pool in self._pools[group]
        ]
        outcomes = [future.result() for future in futures]
        removed = outcomes[0][0]
        if any(other != removed for other, _ in outcomes[1:]):
            raise RuntimeError(
                f"replica divergence: delete({x}, {y}) outcomes "
                f"{[other for other, _ in outcomes]}"
            )
        self._write_logical += outcomes[0][1][0]
        self._write_physical += outcomes[0][1][1]
        if removed:
            self._n_points -= 1
        return removed

    def pop_write_accesses(self) -> tuple[int, int]:
        """(logical, physical) reads accumulated by writes since last call."""
        out = (self._write_logical, self._write_physical)
        self._write_logical = 0
        self._write_physical = 0
        return out

    # -- accounting / lifecycle --------------------------------------------------

    @property
    def n_points(self) -> int:
        """Live points across all shards (tracked parent-side)."""
        return self._n_points

    @property
    def n_processes(self) -> int:
        return sum(len(pools) for pools in self._pools.values())

    def close(self) -> None:
        """Shut every worker pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for pools in self._pools.values():
            for pool in pools:
                pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelShardEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelShardEngine(name={self.name!r}, shards={self.spec.n_shards}, "
            f"workers={self.n_workers}, replicas={self.replicas})"
        )
