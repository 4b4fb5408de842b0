"""How each workload is set up and served, and the oracle-checked pass.

A workload is set up in two timed steps: ``build`` turns the generated
points into an index, ``serve`` makes it ready to serve (engine, buffer
pool, disk tier, initial checkpoint).  :func:`run_pass` then replays the
request stream once, one request at a time in a closed loop, timing only
the call into the library; every answer is checked against the oracle
after the clock stops.
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import AGGREGATE_OPS, KNN_K, TOP_K
from oracle import Oracle

from repro import (
    AggregateSpec,
    BatchQueryEngine,
    DurableIndex,
    QueryRequest,
    RSMI,
    RSMIConfig,
    Rect,
    ShardedBatchEngine,
    ShardedSpatialIndex,
)
from repro.sharding import shard_index_factory
from repro.storage import SharedBufferPool

__all__ = ["LATENCY_KINDS", "PassResult", "WORKLOADS", "prepare", "run_pass"]

#: latency is reported per these kinds; inserts and deletes are writes
LATENCY_KINDS = ("point", "window", "knn", "aggregate", "write")

#: RSMI configuration of the single-index workloads
SINGLE_CONFIG = RSMIConfig(block_capacity=50, partition_threshold=5_000)

#: durable-drift: shards, per-shard partition threshold, pool share of blocks
N_SHARDS = 4
SHARD_PARTITION_THRESHOLD = 2_000
POOL_FRACTION = 0.10
CHECKPOINT_EVERY = 1_000
WAL_GROUP_COMMIT = 16

#: requests between two freezes of the harness's objects (see run_pass)
FREEZE_EVERY = 256

_PROBE_MATRIX = np.random.default_rng(0).random((24, 24))


def host_probe() -> float:
    """Seconds a fixed slice of Python and NumPy work takes right now.

    On a shared host the CPU's speed drifts by a third within seconds; the
    probe, run untimed before every request, tells the metrics which
    requests ran while the host was near its best speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(600):
        total += i * i
    for _ in range(5):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - start


def _kind_of(kind: str) -> str:
    return "write" if kind in ("insert", "delete") else kind


@dataclass
class Served:
    """An index ready to serve: where reads and writes go, and what the
    harness inspects around them."""

    engine: object
    writer: object
    stats: object
    index: object
    stores: list
    pool: object = None
    close: object = None

    def execute(self, kind: str, payload):
        if kind == "insert":
            return [self.writer.insert(x, y) for x, y in payload]
        if kind == "delete":
            return [self.writer.delete(x, y) for x, y in payload]
        return self.engine.execute(payload).values


# -- set-up ------------------------------------------------------------------------


def build_single(points: np.ndarray):
    return RSMI(SINGLE_CONFIG).build(points)


def serve_single(index, workdir: Path) -> Served:
    return Served(
        engine=BatchQueryEngine(index),
        writer=index,
        stats=index.stats,
        index=index,
        stores=[index.store],
    )


def build_sharded(points: np.ndarray):
    factory = shard_index_factory(
        "RSMI", block_capacity=50, partition_threshold=SHARD_PARTITION_THRESHOLD
    )
    return ShardedSpatialIndex(factory, n_shards=N_SHARDS, policy="hilbert").build(points)


def serve_durable(index, workdir: Path) -> Served:
    stores = [shard.index.store for shard in index.shards if shard.index is not None]
    n_blocks = sum(store.n_blocks for store in stores)
    pool = SharedBufferPool(max(1, round(POOL_FRACTION * n_blocks)))
    engine = ShardedBatchEngine(index, shared_pool=pool)
    durable = DurableIndex(
        index,
        workdir,
        checkpoint_every=CHECKPOINT_EVERY,
        backend="disk",
        fsync=True,
        wal_fsync_every=WAL_GROUP_COMMIT,
    )
    return Served(
        engine=engine,
        writer=durable,
        stats=index.stats,
        index=index,
        stores=stores,
        pool=pool,
        close=lambda: durable.close(checkpoint=False),
    )


@dataclass(frozen=True)
class Workload:
    build: object
    serve: object
    flush_policy: str
    #: boundaries a traced pass of this workload never reaches, and why
    unreached: dict = field(default_factory=dict)


_IN_MEMORY_UNREACHED = {
    "ShardedBatchEngine.execute": "one unsharded index",
    "MLPRegressor.predict_one": "no caller in the library",
    "window_query": "the engine answers windows on its batched path",
    "BlockStore.scan_positions": "only the sequential window query scans runs",
    "PoolClient.access": "no buffer pool",
    "PoolClient.prefetch": "no buffer pool",
    "PoolClient.invalidate": "no buffer pool",
    "BlockFile.read_block": "in memory",
    "BlockFile.write_block": "in memory",
    "BlockFile.sync": "in memory",
    "WriteAheadLog.append": "in memory",
    "WriteAheadLog.flush": "in memory",
    "DurableIndex.checkpoint": "in memory",
    "ShardRouter.shard_for_point": "one unsharded index",
    "ShardRouter.shards_for_points": "one unsharded index",
    "ShardRouter.shards_for_window": "one unsharded index",
    "ShardRouter.record_insert": "one unsharded index",
    "CountSumPartial.merge": "partials merge only across shards",
    "QuantileSummary.merge": "partials merge only across shards",
    "TopKPartial.merge": "partials merge only across shards",
}

WORKLOADS = {
    "online-mixed": Workload(
        build_single, serve_single, "in memory: no WAL, no flush",
        _IN_MEMORY_UNREACHED,
    ),
    "batch-analytics": Workload(
        build_single, serve_single, "in memory: no WAL, no flush",
        _IN_MEMORY_UNREACHED,
    ),
    "durable-drift": Workload(
        build_sharded, serve_durable,
        f"disk backend: WAL fsync on, group commit {WAL_GROUP_COMMIT}, "
        f"checkpoint every {CHECKPOINT_EVERY} writes",
        {
            "BatchQueryEngine.execute": "shard sub-batches bypass execute",
            "MLPRegressor.predict_one": "no caller in the library",
            "window_query": "the engine answers windows on its batched path",
            "BlockStore.scan_positions": "only the sequential window query scans runs",
            "BlockFile.sync": "only attaching the disk tier syncs the block file",
        },
    ),
}


# -- requests ----------------------------------------------------------------------


def prepare(requests) -> list:
    """Library payloads for every request, built once outside the timing."""
    prepared = []
    for request in requests:
        rows = request.rows
        if request.kind in ("point", "knn"):
            points = rows[:, :2].copy()
            payload = (
                QueryRequest.for_points(points)
                if request.kind == "point"
                else QueryRequest.for_knn(points, KNN_K)
            )
        elif request.kind == "window":
            payload = QueryRequest.for_windows([Rect(*row[:4]) for row in rows.tolist()])
        elif request.kind == "aggregate":
            payload = QueryRequest.for_aggregates(
                [
                    AggregateSpec(
                        op=AGGREGATE_OPS[int(row[4])], window=Rect(*row[:4]),
                        q=row[5], k=TOP_K,
                    )
                    for row in rows.tolist()
                ]
            )
        else:
            payload = [(x, y) for x, y in rows[:, :2].tolist()]
        prepared.append(payload)
    return prepared


# -- one pass ----------------------------------------------------------------------


@dataclass
class PassResult:
    """What one replay of the stream measured and found."""

    ops: int = 0
    service_s: float = 0.0
    #: one ``(latency kind, ops, seconds, probe seconds)`` per timed request
    samples: list = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    logical_reads: int = 0
    recall_sum: float = 0.0
    recall_n: int = 0
    bytes_per_point: float = 0.0
    answers: str = ""
    #: traced passes only: window/aggregate rows returned and rows scanned,
    #: base blocks in their ranges, and how many such ops ran
    rows_returned: int = 0
    rows_scanned: int = 0
    window_blocks: int = 0
    window_ops: int = 0

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def exact(self) -> dict:
        """The metrics that repeat bit for bit for one seed."""
        return {
            "blocks_per_op": self.logical_reads / self.ops,
            "recall": self.recall_sum / self.recall_n if self.recall_n else 1.0,
            "bytes_per_point": self.bytes_per_point,
            "failed_frac": self.n_failed / self.ops,
            "answers": self.answers,
        }


def _answer_bytes(answer) -> bytes:
    if isinstance(answer, np.ndarray):
        return np.ascontiguousarray(answer, dtype="<f8").tobytes()
    if answer is None or isinstance(answer, (bool, np.bool_)):
        return repr(answer).encode()
    return repr((answer.count, answer.value, answer.items, answer.max_rank_error)).encode()


def _rows_in_range(store, begin: int, end: int) -> int:
    """Live rows in the block chains at base positions ``begin..end``."""
    rows = 0
    for position in range(begin, end + 1):
        block = store.peek(store.base_block_id(position))
        rows += len(block)
        while block.next_id is not None:
            block = store.peek(block.next_id)
            if not block.is_overflow:
                break
            rows += len(block)
    return rows


def run_pass(served: Served, inputs, prepared: list, tracer=None) -> PassResult:
    """Replay the stream once against ``served``, then check every answer.

    Requests run back to back; the answers are checked against the oracle
    only after the last one, so the checks neither take time between
    requests nor disturb the caches the next request finds.  Everything
    alive is frozen out of the garbage collector's reach before the pass
    and every :data:`FREEZE_EVERY` requests, so collections scan what the
    library allocated lately, not the harness's set-up and stored answers.
    """
    result = PassResult()
    stats = served.stats
    clock = time.perf_counter
    outcomes = []
    gc.collect()
    for index, (request, payload) in enumerate(zip(inputs.requests, prepared)):
        if index % FREEZE_EVERY == 0:
            gc.freeze()
        kind = request.kind
        stats.reset()
        probe = host_probe()
        start = clock()
        try:
            answers = served.execute(kind, payload)
        except Exception as exc:  # every op of a failed request fails
            result.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            outcomes.append(None)
            continue
        elapsed = clock() - start
        result.service_s += elapsed
        result.samples.append((_kind_of(kind), request.n_ops, elapsed, probe))
        result.logical_reads += stats.total_reads
        outcomes.append(answers)
        if tracer is not None and kind in ("window", "aggregate"):
            _note_window_scans(result, tracer, kind, answers)
    gc.unfreeze()
    _check(result, inputs, outcomes)
    result.bytes_per_point = served.index.size_bytes() / max(served.index.n_points, 1)
    return result


def _note_window_scans(result: PassResult, tracer, kind: str, answers) -> None:
    """Rows and base blocks the request's window ranges cover, resolved
    before the next request can change the chains."""
    for store, ranges in tracer.take_window_ranges():
        for begin, end in ranges:
            result.rows_scanned += _rows_in_range(store, begin, end)
            result.window_blocks += end - begin + 1
    result.window_ops += len(answers)
    result.rows_returned += sum(
        a.shape[0] if kind == "window" else a.count for a in answers
    )


def _check(result: PassResult, inputs, outcomes: list) -> None:
    """Replay the stream on the oracle, checking each recorded answer."""
    oracle = Oracle(inputs.points)
    digest = hashlib.blake2b(digest_size=16)
    for request, answers in zip(inputs.requests, outcomes):
        kind = request.kind
        result.ops += request.n_ops
        result.attempted[kind] += request.n_ops
        if answers is None:
            result.failed[kind] += request.n_ops
            for row in request.rows:
                oracle.apply(kind, row)
            continue
        for row, answer in zip(request.rows, answers):
            failed, recall = oracle.check(kind, row, answer)
            result.failed[kind] += int(failed)
            if recall is not None:
                result.recall_sum += recall
                result.recall_n += 1
            digest.update(_answer_bytes(answer))
    result.answers = digest.hexdigest()
