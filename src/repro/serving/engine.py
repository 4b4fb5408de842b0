"""Process-pool serving: per-shard-group workers behind one batch engine.

:class:`ParallelShardEngine` is the multi-core placement of
:class:`~repro.sharding.ShardedBatchEngine`.  It subclasses it and keeps its
request body: the same ``execute(QueryRequest)`` surface, per-shard
grouping, shard-id-order merge and :class:`~repro.analytics.ops.QueryResult`
accounting.  Only the per-shard dispatch, kNN and writes run in **worker
processes**.

Worker topology
---------------
* Shard ``s`` belongs to **group** ``s % n_workers`` (with at most one
  group per shard, so extra workers never idle-own nothing).
* Each group is served by one :class:`~concurrent.futures
  .ProcessPoolExecutor` sized to exactly one long-lived worker, which
  builds the group's shards in-process from a picklable
  :class:`~repro.serving.spec.ServingSpec` subset (see
  :mod:`repro.serving.worker`).

The parent does all routing through its own
:class:`~repro.sharding.router.ShardRouter` (rebuilt over the spec, so its
overflow bookkeeping matches a single-threaded index built from the same
assignment).  Answers are byte-identical to the single-threaded engines —
the differential fuzz suite (``tests/test_parallel_differential.py``)
asserts this across index kinds, sharding policies and worker counts.
Workers reply with answers and per-shard read counts only; the caller
times the request.

The engine is its own write target: ``insert``/``delete`` route to the
owning worker, and the reads each write costs there are added into
:attr:`ParallelShardEngine.stats`, which callers bracket like any index's.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from repro.analytics.ops import QueryResult
from repro.geometry import require_finite_point
from repro.serving import worker as worker_mod
from repro.serving.spec import ServingSpec
from repro.sharding.engine import ShardedBatchEngine, shard_access
from repro.sharding.router import ShardRouter
from repro.storage.stats import AccessStats

__all__ = ["ParallelShardEngine"]

_EMPTY = np.empty((0, 2), dtype=float)


class ParallelShardEngine(ShardedBatchEngine):
    """Execute query batches against process-pool-resident shards.

    Parameters
    ----------
    spec:
        The :class:`ServingSpec` describing the index to serve.
    n_workers:
        Number of shard groups / worker processes (>= 1; capped at the
        shard count).
    mode:
        Forwarded to every worker's per-shard engines (same semantics as
        :class:`~repro.sharding.ShardedBatchEngine`).
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"`` /
        ``"spawn"``); None uses the platform default.  Everything shipped
        to workers is picklable, so both work.
    """

    def __init__(
        self,
        spec: ServingSpec,
        n_workers: int = 2,
        mode: str = "auto",
        start_method: Optional[str] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.spec = spec
        self.n_workers = min(int(n_workers), spec.n_shards)
        self.mode = mode
        self.name = spec.name
        #: capability flags, mirroring the sharded index the workers rebuild
        self.supports_exact_results = spec.supports_exact_results
        self.supports_attributes = True
        #: reads the workers report for writes; every request resets it
        self.stats = AccessStats()
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
        self._pools: dict[int, ProcessPoolExecutor] = {}
        self._closed = False
        self._n_points = spec.n_points
        try:
            for group in self._groups:
                self._pools[group] = ProcessPoolExecutor(max_workers=1, mp_context=mp_context)
            expected = {
                shard_id: spec.shard_points.get(shard_id, _EMPTY).shape[0]
                for shard_id in range(spec.n_shards)
            }
            futures = [
                (group, self._pools[group].submit(
                    worker_mod.worker_init, spec.subset(shard_ids), shard_ids, mode
                ))
                for group, shard_ids in self._groups.items()
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

    @property
    def index(self) -> "ParallelShardEngine":
        """The engine itself: its router groups requests, and callers write
        through it and bracket its :attr:`stats`."""
        return self

    # -- queries -----------------------------------------------------------------

    def _dispatch(self, kind: str, batches: dict) -> tuple[dict, dict]:
        """One task per worker group holding its shards' sub-batches; each
        worker answers them through the in-process dispatch.  Aggregates
        come back as **partials** — an O(1)-sized object per (spec, shard)
        instead of the shard's window point set."""
        payloads: dict[int, dict] = {}
        for shard_id, ops in batches.items():
            payloads.setdefault(shard_id % self.n_workers, {})[shard_id] = ops
        futures = [
            self._pools[group].submit(worker_mod.worker_read, kind, payload)
            for group, payload in sorted(payloads.items())
        ]
        answers: dict[int, list] = {}
        reads: dict[int, tuple[int, int]] = {}
        for future in futures:
            group_answers, group_reads = future.result()
            answers.update(group_answers)
            reads.update(group_reads)
        return answers, reads

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
            return QueryResult(kind="knn", values=[], access=shard_access({}))
        futures = [
            self._pools[group].submit(worker_mod.worker_knn, queries, k)
            for group in sorted(self._groups)
        ]
        merged: list[list] = [[] for _ in range(queries.shape[0])]
        reads: dict[int, tuple[int, int]] = {}
        for future in futures:
            candidates, group_reads = future.result()
            reads.update(group_reads)
            for query_index, best in enumerate(candidates):
                merged[query_index].extend(best)
        results = []
        for best in merged:
            best.sort()
            del best[k:]
            results.append(
                np.asarray([(px, py) for _, px, py in best], dtype=float).reshape(-1, 2)
            )
        return QueryResult(kind="knn", values=results, access=shard_access(reads))

    # the per-shard steps of the in-process engine run inside the workers;
    # the parent holds no shards to run them on

    def run_shard(self, shard_id: int, kind: str, ops) -> list:
        raise TypeError("ParallelShardEngine shards live in its worker processes")

    def engine_for(self, shard_id: int):
        raise TypeError("ParallelShardEngine shards live in its worker processes")

    # -- writes ------------------------------------------------------------------

    def insert(self, x: float, y: float) -> None:
        """Insert through the owning shard's worker."""
        x, y = float(x), float(y)
        require_finite_point(x, y)
        shard_id = self.router.record_insert(x, y)
        self.stats.add(
            self._pools[shard_id % self.n_workers].submit(
                worker_mod.worker_insert, shard_id, x, y
            ).result()
        )
        self._n_points += 1

    def delete(self, x: float, y: float) -> bool:
        """Delete through the owning shard's worker."""
        x, y = float(x), float(y)
        require_finite_point(x, y)
        shard_id = self.router.shard_for_point(x, y)
        removed, reads = self._pools[shard_id % self.n_workers].submit(
            worker_mod.worker_delete, shard_id, x, y
        ).result()
        self.stats.add(reads)
        if removed:
            self._n_points -= 1
        return removed

    # -- accounting / lifecycle --------------------------------------------------

    @property
    def n_points(self) -> int:
        """Live points across all shards (tracked parent-side)."""
        return self._n_points

    @property
    def n_processes(self) -> int:
        return len(self._pools)

    def close(self) -> None:
        """Shut every worker pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for pool in self._pools.values():
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelShardEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelShardEngine(name={self.name!r}, shards={self.spec.n_shards}, "
            f"workers={self.n_workers})"
        )
