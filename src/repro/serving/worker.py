"""What runs inside one serving worker process.

Each :class:`~concurrent.futures.ProcessPoolExecutor` of the parallel
engine is sized to exactly **one** long-lived worker, so this module's
process-global :class:`_WorkerState` is that worker's whole world: the
partial :class:`~repro.sharding.ShardedSpatialIndex` holding only the
shards the worker owns (rebuilt in-process from a picklable
:class:`~repro.serving.spec.ServingSpec` subset — no index state, cache or
pool object ever crosses the process boundary), plus a
:class:`~repro.sharding.ShardedBatchEngine` whose cached per-shard
``BatchQueryEngine``s serve the sub-batches.

The parent does all routing; tasks arrive already grouped per shard.  Every
task resets the touched shards' :class:`~repro.storage.AccessStats` on
entry and returns ``{shard_id: (logical, physical)}`` read deltas, so the
parent can aggregate block accounting exactly like the single-process
engines do.  Workers do not time their tasks: whoever calls the parallel
engine times the request end to end.

Answers are byte-identical to the single-threaded engine because the shard
structures are byte-identical (see :meth:`ShardedSpatialIndex
.build_assigned`) and each sub-batch goes through the very same
:meth:`~repro.sharding.ShardedBatchEngine.run_shard` step
(``prefetch_windows`` warming included).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.serving.spec import ServingSpec
from repro.sharding.engine import ShardedBatchEngine

__all__ = [
    "worker_init",
    "worker_read",
    "worker_knn",
    "worker_insert",
    "worker_delete",
]

#: the process-global worker state; exactly one per worker process because
#: every pool is constructed with ``max_workers=1``
_STATE: Optional["_WorkerState"] = None


class _WorkerState:
    def __init__(self, spec: ServingSpec, shard_ids, mode: str, reorder: bool):
        self.shard_ids = sorted(int(s) for s in shard_ids)
        self.index = spec.subset(self.shard_ids).build_index()
        self.engine = ShardedBatchEngine(self.index, mode=mode, reorder=reorder)

    def reads_since_reset(self, shard_ids) -> dict:
        out = {}
        for shard_id in shard_ids:
            stats = self.index.shards[shard_id].stats
            if stats.total_reads > 0:
                out[shard_id] = (int(stats.total_reads), int(stats.physical_reads))
        return out


def _state() -> "_WorkerState":
    if _STATE is None:
        raise RuntimeError("worker not initialised; the pool must run worker_init first")
    return _STATE


# -- lifecycle -----------------------------------------------------------------


def worker_init(spec: ServingSpec, shard_ids, mode: str = "auto", reorder: bool = False):
    """Build this worker's owned shards; returns ``{shard_id: n_points}``."""
    global _STATE
    _STATE = _WorkerState(spec, shard_ids, mode, reorder)
    return {
        shard_id: _STATE.index.shards[shard_id].n_points
        for shard_id in _STATE.shard_ids
    }


# -- reads ---------------------------------------------------------------------


def worker_read(kind: str, groups: dict):
    """Point, window or aggregate sub-batches, already routed:
    ``{shard_id: ops}`` with ops a ``(n, 2)`` query array, a list of
    :class:`~repro.geometry.Rect` or a list of ``AggregateSpec``.

    Returns ``(answers, reads)`` with ``answers[shard_id]`` the
    shard's per-op answers in input order (see
    :meth:`ShardedBatchEngine.run_shard`).  Aggregates come back as
    **unfinalised** picklable partials: this is where the parallel tier's
    push-down pays, since an O(1)-sized partial crosses the process
    boundary instead of the shard's window point set.  The parent merges
    answers across workers in shard-id order, exactly like the
    single-process sharded engine merges across shards.
    """
    state = _state()
    answers = {
        shard_id: state.engine.run_shard(shard_id, kind, groups[shard_id])
        for shard_id in sorted(groups)
    }
    return answers, state.reads_since_reset(sorted(groups))


def worker_knn(queries: np.ndarray, k: int):
    """Local top-k over this worker's owned shards, for every query.

    Returns ``(candidates, reads)`` where ``candidates[i]`` is a
    list of at most ``k * n_owned_shards`` ``(distance, px, py)`` tuples;
    the parent merges the workers' candidate lists with the same
    ``sort(); del [k:]`` the single-threaded best-first expansion uses, so
    the merged answer is byte-identical (any shard the reference expansion
    skipped can only contribute strictly farther candidates).
    """
    state = _state()
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    for shard_id in state.shard_ids:
        state.index.shards[shard_id].stats.reset()
    candidates: list[list] = []
    for x, y in queries:
        x, y = float(x), float(y)
        best: list[tuple[float, float, float]] = []
        for shard_id in state.shard_ids:
            shard = state.index.shards[shard_id]
            if shard.is_empty:
                continue
            for px, py in shard.knn_query(x, y, k):
                distance = float(np.hypot(px - x, py - y))
                best.append((distance, float(px), float(py)))
        best.sort()
        del best[k:]
        candidates.append(best)
    return candidates, state.reads_since_reset(state.shard_ids)


# -- writes --------------------------------------------------------------------


def _write_bracket(shard_id: int):
    stats = _state().index.shards[shard_id].stats
    return int(stats.total_reads), int(stats.physical_reads)


def worker_insert(shard_id: int, x: float, y: float):
    """Apply one insert to the owned shard; returns the read delta."""
    state = _state()
    before_logical, before_physical = _write_bracket(shard_id)
    shard = state.index.shards[shard_id]
    shard.insert(float(x), float(y), state.index.factory)
    after_logical, after_physical = _write_bracket(shard_id)
    return (
        max(0, after_logical - before_logical),
        max(0, after_physical - before_physical),
    )


def worker_delete(shard_id: int, x: float, y: float):
    """Apply one delete to the owned shard; returns ``(removed, delta)``."""
    state = _state()
    before_logical, before_physical = _write_bracket(shard_id)
    removed = bool(state.index.shards[shard_id].delete(float(x), float(y)))
    after_logical, after_physical = _write_bracket(shard_id)
    return removed, (
        max(0, after_logical - before_logical),
        max(0, after_physical - before_physical),
    )
