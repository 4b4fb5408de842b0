"""Layer-attributed tracing from outside the library.

:class:`Tracer` wraps the public boundary functions of each layer (see
:data:`BOUNDARIES`) for the duration of a traced pass and restores the
originals afterwards.  Every wrapped call is a span: its layer, its
duration, and the part of that duration covered by child spans; a layer's
self time is the sum of its spans' durations minus their children.
Generator boundaries (``iter_chain``, ``scan_positions``,
``iter_points``) are timed per ``next()``, which is when their work runs.

Each boundary can also carry a counting hook, run outside every span's
self time, that records the work the call did (rows, blocks, bytes,
shards).  Wrappers are installed at every name a caller looks up: on the
class for methods, and on each loaded module that bound a module-level
function by import (``repro.engine.engine.route_batch`` as well as
``repro.engine.routing.route_batch``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

__all__ = ["BOUNDARIES", "Tracer"]

#: layer -> boundary functions as ``(module, qualified name)``
BOUNDARIES = {
    "engine": [
        ("repro.engine.engine", "BatchQueryEngine.execute"),
        ("repro.sharding.engine", "ShardedBatchEngine.execute"),
    ],
    "engine.routing": [("repro.engine.routing", "route_batch")],
    "core.rsmi": [
        ("repro.core.rsmi", "RSMI.route_to_leaf"),
        ("repro.core.rsmi", "InternalNode.route"),
    ],
    "core.leaf_model": [
        ("repro.core.leaf_model", "LeafModel.predict_position"),
        ("repro.core.leaf_model", "LeafModel.predict_positions"),
        ("repro.core.leaf_model", "LeafModel.scan_range"),
        ("repro.core.leaf_model", "LeafModel.scan_ranges"),
    ],
    "nn": [
        ("repro.nn.mlp", "MLPRegressor.predict"),
        ("repro.nn.mlp", "MLPRegressor.predict_one"),
        ("repro.nn.scaler", "MinMaxScaler.transform"),
        ("repro.core.partitioning", "LearnedPartitioning.predict_cell"),
        ("repro.core.partitioning", "LearnedPartitioning.predict_cells"),
    ],
    "core.knn": [("repro.core.knn", "knn_query")],
    "core.window": [
        ("repro.core.window", "window_block_range"),
        ("repro.core.window", "window_query"),
    ],
    "core.updates": [
        ("repro.core.updates", "insert_point"),
        ("repro.core.updates", "delete_point"),
    ],
    "storage.block_store": [
        ("repro.storage.block_store", "BlockStore.read"),
        ("repro.storage.block_store", "BlockStore.iter_chain"),
        ("repro.storage.block_store", "BlockStore.scan_positions"),
        ("repro.storage.block_store", "BlockStore.note_write"),
    ],
    "storage.block": [
        ("repro.storage.block", "Block.contains"),
        ("repro.storage.block", "Block.delete"),
        ("repro.storage.block", "Block.points"),
        ("repro.storage.block", "Block.iter_points"),
        ("repro.storage.block", "Block.mbr"),
    ],
    "storage.buffer_pool": [
        ("repro.storage.buffer_pool", "PoolClient.access"),
        ("repro.storage.buffer_pool", "PoolClient.prefetch"),
        ("repro.storage.buffer_pool", "PoolClient.invalidate"),
    ],
    "storage.block_file": [
        ("repro.storage.block_file", "BlockFile.read_block"),
        ("repro.storage.block_file", "BlockFile.write_block"),
        ("repro.storage.block_file", "BlockFile.sync"),
    ],
    "storage.wal": [
        ("repro.storage.wal", "WriteAheadLog.append"),
        ("repro.storage.wal", "WriteAheadLog.flush"),
    ],
    "storage.durability": [("repro.storage.durability", "DurableIndex.checkpoint")],
    "sharding": [
        ("repro.sharding.router", "ShardRouter.shard_for_point"),
        ("repro.sharding.router", "ShardRouter.shards_for_points"),
        ("repro.sharding.router", "ShardRouter.shards_for_window"),
        ("repro.sharding.router", "ShardRouter.record_insert"),
    ],
    "analytics": [
        ("repro.analytics.ops", "AggregateSpec.fold"),
        ("repro.analytics.ops", "AggregateSpec.finalize"),
        ("repro.analytics.partials", "CountSumPartial.merge"),
        ("repro.analytics.partials", "QuantileSummary.merge"),
        ("repro.analytics.partials", "TopKPartial.merge"),
    ],
}

#: functions that are counted but not timed as spans: ``(module, name)``
COUNTED = [
    ("repro.engine.engine", "BatchQueryEngine._load_position"),
    ("repro.engine.engine", "BatchQueryEngine._window_block_ranges"),
    ("repro.storage.block_store", "BlockStore._touch"),
    ("repro.storage.block_store", "BlockStore.allocate_overflow"),
]


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute name, original)`` for a boundary."""
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if inspect.isclass(owner) else getattr(owner, name)
    return owner, name, original


def _rows(array) -> int:
    shape = np.shape(array)
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    """Spans and counters of one traced pass.

    ``calls[boundary]`` counts calls per boundary, ``self_s[layer]`` sums
    self time per layer, and ``counts`` holds the named work counters the
    hooks record.  ``window_ranges`` collects ``(store, ranges)`` of every
    batched window-range computation, resolved to rows scanned by the
    harness between requests.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.shard_hits: Counter = Counter()
        self.checkpoint_s: list[float] = []
        self.window_ranges: list = []
        self._stack: list = []
        self._patches: list = []
        self._hooks = self._make_hooks()

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, boundaries in BOUNDARIES.items():
            for module_name, qualname in boundaries:
                owner, name, original = _resolve(module_name, qualname)
                if inspect.isgeneratorfunction(original):
                    wrapper = self._generator_span(layer, qualname, original)
                else:
                    wrapper = self._span(layer, qualname, original)
                self._patch(owner, name, original, wrapper)
        for module_name, qualname in COUNTED:
            owner, name, original = _resolve(module_name, qualname)
            self._patch(owner, name, original, self._counted(qualname, original))
        return self

    def _patch(self, owner, name, original, wrapper) -> None:
        if inspect.isclass(owner):
            targets = [owner]
        else:
            # every loaded module that bound the function by import
            targets = [
                module for module in list(sys.modules.values())
                if getattr(module, "__dict__", {}).get(name) is original
            ]
        for target in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, qualname, fn):
        before, after = self._hooks.get(qualname, (None, None))
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        exclude = self._exclude

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            calls[qualname] += 1
            if after is not None:
                hook_start = clock()
                after(args, result, token, elapsed)
                exclude(clock() - hook_start)
            return result

        return wrapper

    def _generator_span(self, layer, qualname, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        self_s[layer] += elapsed - frame[0]
                        if stack:
                            stack[-1][0] += elapsed
                    counts[qualname + ".next"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _counted(self, qualname, fn):
        calls = self.calls
        before, after = self._hooks.get(qualname, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, None, 0.0)
            return result

        return wrapper

    def _exclude(self, seconds: float) -> None:
        """Keep a hook's bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- counting hooks ------------------------------------------------------

    def _make_hooks(self) -> dict:
        """Boundary name -> ``(before, after)``: ``before(args)`` returns a
        token, ``after(args, result, token, elapsed)`` records counts."""
        counts = self.counts

        def add(name, value=1):
            counts[name] += value

        def route_batch(args, result, token, elapsed):
            add("routing.rows", _rows(args[1]))

        def route_to_leaf(args, result, token, elapsed):
            add("rsmi.models", result[1])

        def scan_range(args, result, token, elapsed):
            add("leaf.scans")
            add("leaf.scan_width", result[1] - result[0] + 1)

        def scan_ranges(args, result, token, elapsed):
            begins, ends = result
            add("leaf.scans", int(begins.size))
            add("leaf.scan_width", int((ends - begins + 1).sum()))

        def nn_rows(args, result, token, elapsed):
            add("nn.rows", _rows(args[1]))

        def nn_one(args, result, token, elapsed):
            add("nn.rows")

        def knn_before(args):
            return counts["Block.iter_points.next"]

        def knn_after(args, result, token, elapsed):
            add("knn.expansions", result.expansions)
            add("knn.blocks", result.blocks_scanned)
            add("knn.results", int(result.points.shape[0]))
            add("knn.examined", counts["Block.iter_points.next"] - token)

        def block_contains(args, result, token, elapsed):
            block, x, y = args[0], args[1], args[2]
            n = block._count
            if result:
                coords = block._coords[:n]
                match = (coords[:, 0] == x) & (coords[:, 1] == y) & ~block._deleted[:n]
                n = int(np.argmax(match)) + 1
            add("block.rows", n)

        def block_delete(args, result, token, elapsed):
            block, x, y = args[0], args[1], args[2]
            n = block._count
            if result:
                coords = block._coords[:n]
                n = int(np.argmax((coords[:, 0] == x) & (coords[:, 1] == y))) + 1
            add("block.rows", n)

        def block_points(args, result, token, elapsed):
            add("block.rows", args[0]._count)

        def pool_access(args, result, token, elapsed):
            add("pool.hits", int(bool(result)))

        def pool_invalidate(args, result, token, elapsed):
            add("pool.invalidations", int(bool(result)))

        def wal_append_before(args):
            return args[0]._handle.tell()

        def wal_append_after(args, result, token, elapsed):
            add("wal.bytes", args[0]._handle.tell() - token)

        def wal_flush_before(args):
            wal = args[0]
            return bool(wal.fsync and wal._unsynced)

        def wal_flush_after(args, result, token, elapsed):
            add("wal.fsyncs", int(token))

        def block_file_write(args, result, token, elapsed):
            add("block_file.bytes", args[0].record_size)

        def checkpoint(args, result, token, elapsed):
            self.checkpoint_s.append(elapsed)
            add("checkpoint.bytes", result.stat().st_size)

        def shard_one(args, result, token, elapsed):
            add("sharding.routed")
            self.shard_hits[int(result)] += 1

        def shard_points(args, result, token, elapsed):
            add("sharding.routed", _rows(args[1]))
            self.shard_hits.update(np.asarray(result).tolist())

        def shard_window(args, result, token, elapsed):
            add("sharding.routed")
            self.shard_hits.update(result)

        def fold(args, result, token, elapsed):
            add("analytics.rows", _rows(args[2]))

        def load_position_before(args):
            if args[1] not in args[2]:
                add("engine.chains_loaded")

        def window_ranges(args, result, token, elapsed):
            self.window_ranges.append((args[0]._rsmi.store, result))

        return {
            "route_batch": (None, route_batch),
            "RSMI.route_to_leaf": (None, route_to_leaf),
            "LeafModel.scan_range": (None, scan_range),
            "LeafModel.scan_ranges": (None, scan_ranges),
            "MLPRegressor.predict": (None, nn_rows),
            "MLPRegressor.predict_one": (None, nn_one),
            "MinMaxScaler.transform": (None, nn_rows),
            "LearnedPartitioning.predict_cell": (None, nn_one),
            "LearnedPartitioning.predict_cells": (None, nn_rows),
            "knn_query": (knn_before, knn_after),
            "Block.contains": (None, block_contains),
            "Block.delete": (None, block_delete),
            "Block.points": (None, block_points),
            "PoolClient.access": (None, pool_access),
            "PoolClient.invalidate": (None, pool_invalidate),
            "WriteAheadLog.append": (wal_append_before, wal_append_after),
            "WriteAheadLog.flush": (wal_flush_before, wal_flush_after),
            "BlockFile.write_block": (None, block_file_write),
            "DurableIndex.checkpoint": (None, checkpoint),
            "ShardRouter.shard_for_point": (None, shard_one),
            "ShardRouter.record_insert": (None, shard_one),
            "ShardRouter.shards_for_points": (None, shard_points),
            "ShardRouter.shards_for_window": (None, shard_window),
            "AggregateSpec.fold": (None, fold),
            "BatchQueryEngine._load_position": (load_position_before, None),
            "BatchQueryEngine._window_block_ranges": (None, window_ranges),
        }

    def take_window_ranges(self) -> list:
        taken, self.window_ranges = self.window_ranges, []
        return taken
