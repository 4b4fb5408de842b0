"""The batched query execution engine.

:class:`BatchQueryEngine` accepts whole arrays of point / window / kNN
queries and executes them with as little per-query Python overhead as the
underlying index allows:

* **RSMI** point and (approximate) window queries run *level-synchronously*:
  the batch is pushed through the model hierarchy with one vectorised NumPy
  call per touched internal node (:mod:`repro.engine.routing`), leaf models
  predict whole query groups at once, and every touched block chain is read
  **once per batch** instead of once per query.  A membership probe first
  checks the position's block MBR (``LeafModel.may_hold``): a chain whose
  MBR excludes the point is still read, but not compared against.  Probes
  that pass compare against the chain's coordinate array; a chain one batch
  probes many times is hashed into a point set once (see
  :data:`HASH_AFTER_PROBES`).
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

The engine answers and counts block reads; it never reads the clock.
Callers that want latency time ``execute`` themselves.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.ops import QueryRequest, QueryResult
from repro.core.rsmi import RSMI, _outward_positions
from repro.core.window import window_corner_points
from repro.engine.routing import route_batch
from repro.geometry import Rect
from repro.storage import make_page_cache
from repro.storage.stats import AccessSummary

__all__ = ["BatchQueryEngine", "ENGINE_MODES", "HASH_AFTER_PROBES"]

#: recognised execution modes
ENGINE_MODES = ("auto", "sequential")

#: membership probes one request makes against a chain's coordinate array
#: before it hashes the chain into a point set instead.  Only probes that
#: pass the chain's block-MBR gate count.  Hashing a 50-point chain costs
#: about three array compares; on a 20,000-point RSMI (B=50) thresholds of
#: 3 to 8 tied on 1-, 16- and 128-row point batches, while a 2000-row
#: all-miss batch cost 12 us/op when always hashing, 17 at 4, 21 at 8 and
#: 54 when never hashing.  Those figures were taken before the MBR gate,
#: which skips most compares on misses, so they overstate what hashing
#: saves now.  No perfbench workload reaches the hashed side yet: its
#: one-op requests probe a chain at most 4 times and its 128-row batches
#: tie across thresholds 3 to 8.
HASH_AFTER_PROBES = 4

_EMPTY = np.empty((0, 2), dtype=float)


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
    ):
        if mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {mode!r}; available: {ENGINE_MODES}")
        self.index = index
        self.mode = mode
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
            found = self._point_batch_vectorized(points)
        else:
            contains = self.index.contains
            found = [bool(contains(x, y)) for x, y in points.tolist()]
        return self._result("point", found, stats)

    def _run_windows(self, windows) -> QueryResult:
        """Window queries; each result is an ``(m, 2)`` point array in input order."""
        windows = list(windows)
        stats = self._reset_stats()
        if self._vectorizes_windows and windows:
            results = self._window_batch_vectorized(windows)
        else:
            results = [self.index.window_query(window) for window in windows]
        return self._result("window", results, stats)

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
        results = [knn_query(x, y, k) for x, y in queries.tolist()]
        return self._result("knn", results, stats)

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
            partials = self._aggregate_batch_vectorized(specs)
        else:
            # the window scan is whatever the index answers a window query
            # with (exact traversal for RSMIa, node-based traversal for the
            # baselines); only the folded partial survives
            partials = [
                spec.fold(spec.new_partial(), self.index.window_query(spec.window))
                for spec in specs
            ]
        return self._result("aggregate", partials, stats)

    def _aggregate_batch_vectorized(self, specs) -> list:
        """Block-level push-down over the RSMI store.

        Routes every spec's window exactly like the vectorised window batch
        (same corner routing, same block ranges, blocks read once per
        batch), but folds each touched block's in-window points straight
        into the spec's partial — no per-window point set is built.
        """
        cache: dict[int, np.ndarray] = {}
        windows = [spec.window for spec in specs]
        partials = []
        for spec, (begin, end) in zip(specs, self._window_block_ranges(windows, cache)):
            partial = spec.new_partial()
            for position in range(begin, end + 1):
                points = self._load_position(position, cache)
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
        per batch, and each probe that passes the chain's block-MBR gate is
        one array compare against the chain's coordinates (a hashed lookup
        once the batch has probed the chain more than
        :data:`HASH_AFTER_PROBES` times).
        """
        rsmi = self._rsmi
        found = [False] * points.shape[0]
        rows = points.tolist()
        cache: dict[int, np.ndarray] = {}
        probes: dict[int, int] = {}
        hashed: dict[int, set] = {}
        for batch in route_batch(rsmi, points):
            leaf = batch.leaf
            begins, ends = leaf.scan_ranges(points[batch.indices])
            for qi, begin, end in zip(batch.indices.tolist(), begins.tolist(), ends.tolist()):
                x, y = rows[qi]
                for position in range(begin, end + 1):
                    if self._chain_holds(leaf, position, x, y, cache, probes, hashed):
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
        cache: dict[int, np.ndarray] = {}
        results: list[np.ndarray] = []
        for window, (begin, end) in zip(windows, self._window_block_ranges(windows, cache)):
            chunks = [
                self._load_position(position, cache) for position in range(begin, end + 1)
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
        rows = corners.tolist()
        probes: dict[int, int] = {}
        hashed: dict[int, set] = {}

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
                x, y = rows[qi]
                located = None
                for position in _outward_positions(pred, begin, end):
                    if self._chain_holds(leaf, position, x, y, cache, probes, hashed):
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

    def _load_position(self, position: int, cache: dict[int, np.ndarray]) -> np.ndarray:
        """Read one base block chain (once per batch) as an ``(m, 2)`` array.

        The array keeps the points in chain order (base block then overflow
        blocks, live points in slot order), matching what the sequential scan
        would concatenate, so batched window results preserve the sequential
        result order exactly.
        """
        points = cache.get(position)
        if points is None:
            points = cache[position] = self._rsmi.store.read_chain(position)
        return points

    def _chain_holds(
        self, leaf, position: int, x: float, y: float, cache: dict, probes: dict, hashed: dict
    ) -> bool:
        """True when ``(x, y)`` is a live point of ``leaf``'s chain at ``position``.

        The chain is always read (once per batch), so the batch's reads do
        not depend on the gate.  When the position's block MBR excludes the
        point the answer is False without a compare; otherwise it compares
        with ``==`` against the chain's coordinate array, and
        ``probes[position]`` counts this batch's compares.  Past
        :data:`HASH_AFTER_PROBES` the chain is hashed into a point set,
        ``hashed[position]``, and later probes are set lookups with the
        same answers.
        """
        points = self._load_position(position, cache)
        if not leaf.may_hold(position, x, y):
            return False
        members = hashed.get(position)
        if members is not None:
            return (x, y) in members
        seen = probes.get(position, 0)
        if seen < HASH_AFTER_PROBES:
            probes[position] = seen + 1
            # nearly every probe misses on x alone
            xs = points[:, 0] == x
            return bool(xs.any()) and bool((xs & (points[:, 1] == y)).any())
        members = hashed[position] = set(map(tuple, points.tolist()))
        return (x, y) in members

    # ------------------------------------------------------------------- plumbing --

    def _reset_stats(self):
        stats = self.index.stats
        stats.reset()
        return stats

    @staticmethod
    def _result(kind: str, values: list, stats) -> QueryResult:
        """The request's values plus the reads counted since ``stats`` was reset."""
        access = AccessSummary(
            logical_reads=stats.total_reads, physical_reads=stats.physical_reads
        )
        return QueryResult(kind=kind, values=values, access=access)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "vectorized" if self._rsmi is not None else "fallback"
        return (
            f"BatchQueryEngine(index={type(self.index).__name__}, "
            f"mode={self.mode!r}, backing={backing})"
        )
