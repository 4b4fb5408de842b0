"""The batched query execution engine.

:class:`BatchQueryEngine` accepts whole arrays of point / window / kNN
queries and executes them with as little per-query Python overhead as the
underlying index allows:

* **RSMI** point and (approximate) window queries run *level-synchronously*:
  the batch is pushed through the model hierarchy with one vectorised NumPy
  call per touched internal node (:mod:`repro.engine.routing`), leaf models
  predict whole query groups at once, and every touched data block is scanned
  **once per batch** instead of once per query.
* Query types without a vectorisable algorithm (the RSMI's adaptive
  expanding-region kNN, RSMIa's exact MBR traversals) and the traditional
  baseline indices fall back to one uniform per-query loop.

The engine produces results **identical** to the sequential query paths — the
differential harness in ``tests/test_engine_differential.py`` asserts exact
agreement across every index type — while touching each storage block at most
once per batch, which is where the batched speedup comes from.

The engine serves any :class:`~repro.baselines.interface.SpatialIndex` and
dispatches on what the index declares: every :class:`~repro.core.rsmi.RSMI`
takes the vectorised point path, and windows and aggregates take it too
unless the index declares exact results (the RSMIa kind).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analytics.ops import QueryRequest, QueryResult
from repro.core.batch import latency_from_durations, latency_uniform
from repro.core.rsmi import RSMI, _outward_positions
from repro.core.window import window_corner_points
from repro.engine.routing import route_batch
from repro.geometry import Rect
from repro.storage import hilbert_sort_order, make_page_cache
from repro.storage.stats import AccessSummary

__all__ = ["BatchQueryEngine", "ENGINE_MODES"]

#: recognised execution modes
ENGINE_MODES = ("auto", "sequential")

_EMPTY = np.empty((0, 2), dtype=float)


def _scatter(grouped: list, order) -> list:
    """Undo a batch permutation: ``grouped[i]`` answers query ``order[i]``."""
    results = [None] * len(grouped)
    for spot, value in zip(order.tolist(), grouped):
        results[spot] = value
    return results


def _centers(windows) -> np.ndarray:
    """``(n, 2)`` window centres: the reorder keys of window-shaped ops."""
    return np.asarray(
        [((w.xlo + w.xhi) / 2.0, (w.ylo + w.yhi) / 2.0) for w in windows], dtype=float
    ).reshape(-1, 2)


def _timed_batch(fn, batch) -> tuple[list, object]:
    """Run one vectorised batch; its wall time is attributed uniformly per op."""
    started = time.perf_counter()
    results = fn(batch)
    return results, latency_uniform(time.perf_counter() - started, len(batch))


class BatchQueryEngine:
    """Execute query batches against one index.

    Parameters
    ----------
    index:
        The :class:`~repro.baselines.interface.SpatialIndex` to query.
    mode:
        ``"auto"`` (default) uses the vectorised path wherever one exists and
        the per-query fallback elsewhere; ``"sequential"`` forces the
        per-query path.
    cache_blocks / cache_policy:
        When ``cache_blocks`` is a positive number, a
        :class:`~repro.storage.PageCache` of that capacity (replacement
        ``cache_policy``, ``"lru"`` or ``"clock"``) is attached to the
        index: reads served from the cache stop counting as physical block
        accesses while the logical counters — and therefore every answer —
        stay identical.  The cache persists across batches, which is where
        hot working sets pay off.
    shared_pool / pool_client / pool_budget:
        Instead of a private cache, read through a
        :class:`~repro.storage.SharedBufferPool` (mutually exclusive with
        ``cache_blocks``): the index is attached to the pool client named
        ``pool_client`` (auto-named when None) with an optional residency
        ``pool_budget``, so several engines can share one capacity.
    reorder:
        When True, per-query fallback batches are executed in Hilbert-key
        order of their query points (window batches by window centre) and
        results are scattered back to input order.  Queries touching the
        same block neighbourhood run back-to-back, so under a small cache
        each hot page faults once per batch instead of once per revisit.
        Answers are byte-identical either way (asserted by the differential
        tests); the vectorised RSMI paths already touch every block once
        per batch and ignore the flag.

    Every request resets the index's :class:`AccessStats` and reports the
    batch's total logical and physical block/node reads on the returned
    :class:`~repro.analytics.ops.QueryResult`, so speedups stay
    attributable to saved block accesses.
    """

    def __init__(
        self,
        index,
        mode: str = "auto",
        cache_blocks: int | None = None,
        cache_policy: str = "lru",
        shared_pool=None,
        pool_client: str | None = None,
        pool_budget: int | None = None,
        reorder: bool = False,
    ):
        if mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {mode!r}; available: {ENGINE_MODES}")
        self.index = index
        self.mode = mode
        self.reorder = bool(reorder)
        cache = make_page_cache(cache_blocks, cache_policy)
        if cache is not None and shared_pool is not None:
            raise ValueError("pass either cache_blocks or shared_pool, not both")
        if shared_pool is not None:
            name = pool_client if pool_client is not None else f"engine-{len(shared_pool.clients())}"
            cache = shared_pool.client(name, pool_budget)
        if cache is not None:
            index.attach_cache(cache)
        #: the index's page cache after construction (None when uncached)
        self.cache = index.cache
        vectorizes = mode == "auto" and isinstance(index, RSMI)
        #: the RSMI when the vectorised point path applies, else None
        self._rsmi = index if vectorizes else None
        #: windows and aggregates vectorise only over the approximate
        #: algorithm; RSMIa answers them through its exact MBR traversal
        self._vectorizes_windows = vectorizes and not index.supports_exact_results

    # ------------------------------------------------------------------ queries --

    def execute(self, request: QueryRequest) -> QueryResult:
        """Execute one :class:`~repro.analytics.ops.QueryRequest`.

        The one entry point: every operation kind — ``point``, ``window``,
        ``knn`` and the push-down ``aggregate`` operators — flows through
        here and returns a :class:`~repro.analytics.ops.QueryResult` with
        per-op values in request order plus one unified
        :class:`~repro.storage.stats.AccessSummary`.
        """
        if request.kind == "point":
            return self._run_points(request.points)
        if request.kind == "window":
            return self._run_windows(request.windows)
        if request.kind == "knn":
            return self._run_knn(request.points, request.k)
        return self._run_aggregates(request.aggregates)

    def _run_points(self, points: np.ndarray) -> QueryResult:
        """Membership of every row of ``points``; results are booleans in input order."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        stats = self._reset_stats()
        if self._rsmi is not None and points.shape[0] > 0:
            found, latency = _timed_batch(self._point_batch_vectorized, points)
        else:
            contains = self.index.contains

            def one(row) -> bool:
                return bool(contains(float(row[0]), float(row[1])))

            found, latency = self._run_fallback(one, list(points), points)
        return self._result("point", found, stats, latency)

    def _run_windows(self, windows) -> QueryResult:
        """Window queries; each result is an ``(m, 2)`` point array in input order."""
        windows = list(windows)
        stats = self._reset_stats()
        if self._vectorizes_windows and windows:
            results, latency = _timed_batch(self._window_batch_vectorized, windows)
        else:
            results, latency = self._run_fallback(
                self.index.window_query, windows, _centers(windows)
            )
        return self._result("window", results, stats, latency)

    def _run_knn(self, queries: np.ndarray, k: int) -> QueryResult:
        """kNN queries; each result is a ``(k, 2)`` point array in input order.

        The RSMI's Algorithm 3 adapts its search region per query (the region
        depends on the distances found so far), so no level-synchronous
        formulation exists; every index answers kNN batches through the
        per-query path.
        """
        queries = np.asarray(queries, dtype=float).reshape(-1, 2)
        stats = self._reset_stats()
        knn_query = self.index.knn_query

        def one(row) -> np.ndarray:
            return knn_query(float(row[0]), float(row[1]), k)

        results, latency = self._run_fallback(one, list(queries), queries)
        return self._result("knn", results, stats, latency)

    # ----------------------------------------------------------------- aggregates --

    def _run_aggregates(self, specs) -> QueryResult:
        """Aggregate operators; each result is an ``AggregateOutcome``."""
        specs = list(specs)
        result = self.aggregate_partials(specs)
        result.values = [spec.finalize(partial) for spec, partial in zip(specs, result.values)]
        return result

    def aggregate_partials(self, specs) -> QueryResult:
        """Per-spec **unfinalised** partials, for upstream merging.

        The push-down surface: the sharded engine (and through it the
        serving workers) calls this instead of ``execute`` so one partial
        per spec — not a point set — crosses the shard/process boundary;
        the caller merges partials in shard-id order and finalises once.
        ``values`` holds the partial objects; accounting matches a window
        batch over the same windows.
        """
        specs = list(specs)
        stats = self._reset_stats()
        if self._vectorizes_windows and specs:
            partials, latency = _timed_batch(self._aggregate_batch_vectorized, specs)
        else:
            # the window scan is whatever the index answers a window query
            # with (exact traversal for RSMIa, node-based traversal for the
            # baselines); only the folded partial survives
            def one(spec):
                return spec.fold(spec.new_partial(), self.index.window_query(spec.window))

            partials, latency = self._run_fallback(
                one, specs, _centers([spec.window for spec in specs])
            )
        return self._result("aggregate", partials, stats, latency)

    def _aggregate_batch_vectorized(self, specs) -> list:
        """Block-level push-down over the RSMI store.

        Routes every spec's window exactly like the vectorised window batch
        (same corner routing, same block ranges, blocks read once per
        batch), but folds each touched block's in-window points straight
        into the spec's partial — no per-window point set is built.
        """
        cache: dict[int, tuple[np.ndarray, set]] = {}
        windows = [spec.window for spec in specs]
        partials = []
        for spec, (begin, end) in zip(specs, self._window_block_ranges(windows, cache)):
            partial = spec.new_partial()
            for position in range(begin, end + 1):
                points = self._position_points(position, cache)
                if points.shape[0] == 0:
                    continue
                inside = points[spec.window.contains_points(points)]
                if inside.shape[0]:
                    spec.fold(partial, inside)
            partials.append(partial)
        return partials

    # ------------------------------------------------------------ vectorised paths --

    def _point_batch_vectorized(self, points: np.ndarray) -> list[bool]:
        """Level-synchronous point-query batch over the RSMI.

        Equivalent to running Algorithm 1 per query: each query's error-bound
        block range is examined, but every touched block chain is read once
        per batch and turned into a hashed point set, so membership checks
        are O(1) instead of re-scanning blocks per query.
        """
        rsmi = self._rsmi
        found = [False] * points.shape[0]
        cache: dict[int, tuple[np.ndarray, set]] = {}
        for batch in route_batch(rsmi, points):
            begins, ends = batch.leaf.scan_ranges(points[batch.indices])
            for qi, begin, end in zip(batch.indices.tolist(), begins.tolist(), ends.tolist()):
                key = (points[qi, 0], points[qi, 1])
                for position in range(begin, end + 1):
                    if key in self._position_members(position, cache):
                        found[qi] = True
                        break
        return found

    def _window_batch_vectorized(self, windows: list[Rect]) -> list[np.ndarray]:
        """Level-synchronous approximate window-query batch (Algorithm 2).

        All corner points of all windows route through the hierarchy as one
        batch; each window's block range is then derived exactly as in the
        sequential :func:`~repro.core.window.window_block_range` (located
        corners pin the range, unlocated corners widen it by the leaf error
        bounds), and the union of touched blocks is scanned once.
        """
        cache: dict[int, tuple[np.ndarray, set]] = {}
        results: list[np.ndarray] = []
        for window, (begin, end) in zip(windows, self._window_block_ranges(windows, cache)):
            chunks = [
                self._position_points(position, cache) for position in range(begin, end + 1)
            ]
            candidates = np.vstack(chunks) if chunks else _EMPTY
            if candidates.shape[0] == 0:
                results.append(_EMPTY.copy())
                continue
            results.append(candidates[window.contains_points(candidates)])
        return results

    def _window_block_ranges(
        self, windows: list[Rect], cache: dict
    ) -> list[tuple[int, int]]:
        """Each window's inclusive block-position range (vectorised routing).

        Shared by the window batch (which materialises the filtered points)
        and the aggregate batch (which folds each block into a partial
        instead) so both touch the identical block set.
        """
        rsmi = self._rsmi
        corner_lists = [window_corner_points(window, rsmi.config.curve) for window in windows]
        corner_counts = [len(corners) for corners in corner_lists]
        corners = np.asarray(
            [corner for corners in corner_lists for corner in corners], dtype=float
        ).reshape(-1, 2)

        lower = np.empty(corners.shape[0], dtype=np.int64)
        upper = np.empty(corners.shape[0], dtype=np.int64)
        for batch in route_batch(rsmi, corners):
            leaf = batch.leaf
            predicted = leaf.predict_positions(corners[batch.indices])
            begins = np.maximum(leaf.first_position, predicted - leaf.err_below)
            ends = np.minimum(leaf.last_position, predicted + leaf.err_above)
            for qi, pred, begin, end in zip(
                batch.indices.tolist(), predicted.tolist(), begins.tolist(), ends.tolist()
            ):
                key = (corners[qi, 0], corners[qi, 1])
                located = None
                for position in _outward_positions(pred, begin, end):
                    if key in self._position_members(position, cache):
                        located = position
                        break
                if located is not None:
                    lower[qi] = upper[qi] = located
                else:
                    lower[qi] = begin
                    upper[qi] = end

        ranges: list[tuple[int, int]] = []
        offset = 0
        for count in corner_counts:
            begin = rsmi.store.clamp_position(int(lower[offset : offset + count].min()))
            end = rsmi.store.clamp_position(int(upper[offset : offset + count].max()))
            offset += count
            if begin > end:
                begin, end = end, begin
            ranges.append((begin, end))
        return ranges

    # ----------------------------------------------------------- block-batch cache --

    def _load_position(
        self, position: int, cache: dict[int, tuple[np.ndarray, set]]
    ) -> tuple[np.ndarray, set]:
        """Read one base block chain (once per batch) into array + hashed forms.

        The array keeps the points in chain order (base block then overflow
        blocks, live points in slot order), matching what the sequential scan
        would concatenate, so batched window results preserve the sequential
        result order exactly.
        """
        entry = cache.get(position)
        if entry is None:
            chunks = [block.points() for block in self._rsmi.store.iter_chain(position)]
            points = np.vstack(chunks) if chunks else _EMPTY
            entry = (points, set(map(tuple, points)))
            cache[position] = entry
        return entry

    def _position_points(self, position: int, cache) -> np.ndarray:
        return self._load_position(position, cache)[0]

    def _position_members(self, position: int, cache) -> set:
        return self._load_position(position, cache)[1]

    # -------------------------------------------------------------- fallback path --

    def _run_fallback(self, fn, items: list, keys: np.ndarray) -> tuple[list, object]:
        """Answer ``items`` one query at a time; results in input order plus
        the batch's per-query latency summary.

        With ``reorder`` on, the queries run in Hilbert-key order of
        ``keys`` (one row per item) and their results scatter back.
        """
        order = self._batch_order(keys)
        if order is not None:
            items = [items[i] for i in order.tolist()]
        results: list = []
        durations: list[float] = []
        for item in items:
            started = time.perf_counter()
            results.append(fn(item))
            durations.append(time.perf_counter() - started)
        if order is not None:
            results = _scatter(results, order)
        return results, latency_from_durations(durations)

    # ------------------------------------------------------------------- plumbing --

    def _batch_order(self, keys: np.ndarray) -> np.ndarray | None:
        """Hilbert-key permutation grouping a fallback batch by predicted
        block neighbourhood; None when reordering is off or pointless."""
        if not self.reorder or keys.shape[0] < 2:
            return None
        return hilbert_sort_order(keys)

    def _reset_stats(self):
        stats = self.index.stats
        stats.reset()
        return stats

    @staticmethod
    def _result(kind: str, values: list, stats, latency) -> QueryResult:
        """The request's values plus the reads counted since ``stats`` was reset."""
        access = AccessSummary(
            logical_reads=stats.total_reads, physical_reads=stats.physical_reads
        )
        return QueryResult(kind=kind, values=values, access=access, latency=latency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "vectorized" if self._rsmi is not None else "fallback"
        return (
            f"BatchQueryEngine(index={type(self.index).__name__}, "
            f"mode={self.mode!r}, backing={backing})"
        )
