"""Batch dispatch over a sharded index.

:class:`ShardedBatchEngine` is the sharded sibling of
:class:`~repro.engine.BatchQueryEngine`: it accepts the same
``execute(QueryRequest)`` calls, but first **groups the batch per shard**
through the :class:`~repro.sharding.router.ShardRouter` and then answers
each shard's sub-batch through that shard's own ``BatchQueryEngine`` (so
RSMI-backed shards keep the vectorised level-synchronous paths).

Results are scattered back into input order and the per-shard
:class:`~repro.storage.AccessStats` totals are aggregated onto the returned
:class:`~repro.analytics.ops.QueryResult` — both as a batch total and per
shard id, so shard-locality claims ("this window batch only touched two
shards") stay checkable.  Like the single-index engine it never times a
request; latency belongs to the caller.

:meth:`ShardedBatchEngine.execute` is the one request body for both shard
placements.  It groups, calls :meth:`~ShardedBatchEngine._dispatch` for the
per-shard answers and read deltas, merges in shard-id order and builds the
:class:`~repro.storage.stats.AccessSummary` through :func:`shard_access`.
The process-pool engine (:mod:`repro.serving.engine`) subclasses it and
replaces only the dispatch: its workers run this class's in-process
dispatch over the shards they own.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.ops import QueryRequest, QueryResult
from repro.engine import BatchQueryEngine, ENGINE_MODES
from repro.sharding.index import ShardedSpatialIndex
from repro.storage.stats import AccessSummary

__all__ = [
    "ShardedBatchEngine",
    "group_by_shard",
    "merge_shard_answers",
    "request_ops",
    "shard_access",
    "shard_reads",
    "sub_batch",
]

_EMPTY = np.empty((0, 2), dtype=float)


def request_ops(request: QueryRequest):
    """The per-op payload of a point, window or aggregate request."""
    if request.kind == "point":
        return request.points
    if request.kind == "window":
        return request.windows
    return request.aggregates


def group_by_shard(router, kind: str, ops) -> dict[int, list[int]]:
    """Op indices per touched shard id, each list in op order.

    A point belongs to exactly one shard; a window (or an aggregate's
    window) fans out to every shard its extent intersects.
    """
    if len(ops) == 0:
        return {}
    if kind == "point":
        owners = router.shards_for_points(ops)
        return {
            int(shard_id): np.nonzero(owners == shard_id)[0].tolist()
            for shard_id in np.unique(owners)
        }
    by_shard: dict[int, list[int]] = {}
    for op_index, op in enumerate(ops):
        window = op if kind == "window" else op.window
        for shard_id in router.shards_for_window(window):
            by_shard.setdefault(shard_id, []).append(op_index)
    return by_shard


def sub_batch(kind: str, ops, indices: list[int]):
    """The ops at ``indices``: a point array for points, a list otherwise."""
    if kind == "point":
        return ops[indices]
    return [ops[i] for i in indices]


def merge_shard_answers(kind: str, ops, by_shard: dict, answers: dict) -> list:
    """Scatter per-shard answers back to op order.

    ``answers[shard_id]`` lines up with ``by_shard[shard_id]``.  A window's
    chunks concatenate, and an aggregate's partials merge before the one
    finalisation, both in shard-id order, so the answer does not depend on
    the order in which shards replied.
    """
    if kind == "point":
        found = [False] * len(ops)
        for shard_id, hits in answers.items():
            for op_index, hit in zip(by_shard[shard_id], hits):
                found[op_index] = bool(hit)
        return found
    parts: list[list] = [[] for _ in ops]
    for shard_id in sorted(answers):
        for op_index, answer in zip(by_shard[shard_id], answers[shard_id]):
            parts[op_index].append(answer)
    if kind == "window":
        results = []
        for chunks in parts:
            chunks = [chunk for chunk in chunks if chunk.shape[0] > 0]
            results.append(np.vstack(chunks) if chunks else _EMPTY.copy())
        return results
    results = []
    for spec, partials in zip(ops, parts):
        merged = spec.new_partial()
        for partial in partials:
            merged = merged.merge(partial)
        results.append(spec.finalize(merged))
    return results


def shard_reads(shards) -> dict[int, tuple[int, int]]:
    """``{shard_id: (logical, physical)}`` of every shard that read since
    its counters were last reset."""
    reads = {}
    for shard in shards:
        stats = shard.stats
        logical, physical = stats.total_reads, stats.physical_reads
        if logical or physical:
            reads[shard.shard_id] = (logical, physical)
    return reads


def shard_access(reads: dict) -> AccessSummary:
    """One request's :class:`AccessSummary` from per-shard read deltas.

    ``reads`` maps shard id to ``(logical, physical)``; a shard counts
    towards the per-shard attribution only when it read logically, while
    its physical reads (prefetches included) always count.
    """
    per_shard = {
        shard_id: logical for shard_id, (logical, _) in sorted(reads.items()) if logical > 0
    }
    return AccessSummary(
        logical_reads=sum(per_shard.values()),
        physical_reads=sum(physical for _, physical in reads.values()),
        per_shard_logical_reads=per_shard,
    )


class ShardedBatchEngine:
    """Execute query batches against a :class:`ShardedSpatialIndex`.

    Parameters
    ----------
    index:
        A built sharded index.
    mode:
        ``"auto"`` (default) runs one sub-batch per touched shard through a
        per-shard :class:`BatchQueryEngine` in its ``"auto"`` mode;
        ``"sequential"`` forces the per-query path inside every shard.
    cache_blocks / cache_policy:
        When ``cache_blocks`` is positive, installs one fresh shard-local
        :class:`~repro.storage.PageCache` of that capacity per shard (see
        :meth:`ShardedSpatialIndex.attach_caches`); answers are unchanged,
        only the physical-read accounting drops on warm working sets.
    shared_pool / shard_budget:
        Serve every shard from one
        :class:`~repro.storage.SharedBufferPool` instead of shard-local
        caches (mutually exclusive with ``cache_blocks``; see
        :meth:`ShardedSpatialIndex.attach_shared_pool`).  ``shard_budget``
        optionally caps any one shard's pool occupancy.
    """

    def __init__(
        self,
        index: ShardedSpatialIndex,
        mode: str = "auto",
        cache_blocks=None,
        cache_policy: str = "lru",
        shared_pool=None,
        shard_budget=None,
    ):
        if mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {mode!r}; available: {ENGINE_MODES}")
        if not isinstance(index, ShardedSpatialIndex):
            raise TypeError(
                f"ShardedBatchEngine requires a ShardedSpatialIndex, got {type(index).__name__}"
            )
        index._require_built()
        self.index = index
        self.mode = mode
        if cache_blocks is not None and shared_pool is not None:
            raise ValueError("pass either cache_blocks or shared_pool, not both")
        if cache_blocks is not None:
            index.attach_caches(cache_blocks, cache_policy)
        if shared_pool is not None:
            index.attach_shared_pool(shared_pool, budget_per_shard=shard_budget)
        #: shard_id -> (wrapped index identity, engine); rebuilt when a shard's
        #: lazily built index appears or is replaced
        self._engines: dict[int, tuple[int, BatchQueryEngine]] = {}

    # ------------------------------------------------------------------ queries --

    def execute(self, request: QueryRequest) -> QueryResult:
        """Execute one :class:`~repro.analytics.ops.QueryRequest`.

        The one entry point (same protocol as :class:`BatchQueryEngine`):
        the batch is grouped per shard with the index's current router,
        :meth:`_dispatch` answers every shard's sub-batch, and per-op values
        scatter back to request order.  Aggregate requests merge per-shard
        *partials* in shard-id order at this router — point sets never
        cross the shard boundary.
        """
        index = self.index
        index.stats.reset()
        if request.kind == "knn":
            return self._run_knn(request.points, request.k)
        kind = request.kind
        ops = request_ops(request)
        by_shard = group_by_shard(index.router, kind, ops)
        batches = {
            shard_id: sub_batch(kind, ops, by_shard[shard_id]) for shard_id in sorted(by_shard)
        }
        answers, reads = self._dispatch(kind, batches)
        return QueryResult(
            kind=kind,
            values=merge_shard_answers(kind, ops, by_shard, answers),
            access=shard_access(reads),
        )

    def _dispatch(self, kind: str, batches: dict) -> tuple[dict, dict]:
        """Answer ``{shard_id: ops}`` sub-batches in this process.

        Returns ``(answers, reads)``: ``answers[shard_id]`` lines up with
        that shard's ops, and ``reads`` holds the touched shards'
        ``(logical, physical)`` read deltas (see :func:`shard_reads`).
        """
        answers = {
            shard_id: self.run_shard(shard_id, kind, ops) for shard_id, ops in batches.items()
        }
        shards = self.index.shards
        return answers, shard_reads(shards[shard_id] for shard_id in batches)

    def run_shard(self, shard_id: int, kind: str, ops) -> list:
        """One shard's answers to its sub-batch of ``kind`` ops, in op order.

        Resets the shard's :class:`~repro.storage.AccessStats` first.
        Window-shaped sub-batches warm the shard's cache up front (the
        store's per-scan look-ahead never covers the first position of a
        prefetch stride; this does).  Aggregates answer with unfinalised
        partials, for the caller to merge.  An empty shard answers without
        touching its index: no hit, no points, empty partials.
        """
        shard = self.index.shards[shard_id]
        shard.stats.reset()
        if shard.is_empty:
            if kind == "point":
                return [False] * len(ops)
            if kind == "window":
                return [_EMPTY.copy() for _ in ops]
            return [spec.new_partial() for spec in ops]
        engine = self.engine_for(shard_id)
        if kind == "point":
            return engine._run_points(ops).values
        windows = ops if kind == "window" else [spec.window for spec in ops]
        admitted = shard.prefetch_windows(windows)
        if kind == "window":
            values = engine._run_windows(ops).values
        else:
            values = engine.aggregate_partials(ops).values
        if admitted:
            # the per-shard engine resets the shard's counters at batch
            # entry; the speculative I/O belongs to this batch interval
            shard.stats.record_block_prefetch(admitted)
        return values

    def _run_knn(self, queries: np.ndarray, k: int) -> QueryResult:
        """kNN queries via the index's best-first shard expansion per query."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 2)
        knn_query = self.index.knn_query
        values = [knn_query(x, y, k) for x, y in queries.tolist()]
        return QueryResult(
            kind="knn", values=values, access=shard_access(shard_reads(self.index.shards))
        )

    # ------------------------------------------------------------------ plumbing --

    def engine_for(self, shard_id: int) -> BatchQueryEngine:
        """The per-shard :class:`BatchQueryEngine` serving ``shard_id``,
        cached per wrapped-index identity."""
        shard = self.index.shards[shard_id]
        cached = self._engines.get(shard_id)
        if cached is not None and cached[0] == id(shard.index):
            return cached[1]
        engine = BatchQueryEngine(shard.index, mode=self.mode)
        self._engines[shard_id] = (id(shard.index), engine)
        return engine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedBatchEngine(index={self.index.name!r}, mode={self.mode!r}, "
            f"shards={self.index.n_shards})"
        )
