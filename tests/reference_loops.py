"""Sequential reference loops the engines are checked against.

The query algorithms of the paper are defined per query.  These helpers run
a whole workload one query at a time against one
:class:`~repro.baselines.interface.SpatialIndex` and collect the results and
the batch's block-access total, which is what the batched engines' answers
and reads are compared with.  Passing an :class:`~repro.core.rsmi.RSMIa`
selects the exact window/kNN algorithms.

Older code paths live here as references too:

* :func:`per_block_aggregate_partials` folds an aggregate batch block by
  block over the vectorised window ranges, where the engine now folds each
  spec's window answer once;
* the ``encoded_*`` helpers route through a curve-range policy by encoding
  cells per request (``HilbertCurve.encode_many`` or Morton bit spreading),
  where the policy now looks cells up in the table it builds once;
* :class:`EagerChainEngine` turns every chain a request reads into one
  array at the read, where the engine keeps the chain's blocks and builds
  the array only when a compare, a hash or a window scan needs it;
* :func:`per_candidate_sharded_knn` merges a sharded kNN query's shard
  answers with one scalar ``np.hypot`` per candidate, where the index
  computes each shard answer's distances in one call;
* the ``searchsorted_pmf_*`` helpers evaluate a
  :class:`~repro.core.pmf.PiecewiseMappingFunction` over NumPy arrays with
  ``np.searchsorted``, where the PMF now bisects Python lists;
* :func:`per_point_knn_query` runs Algorithm 3's per-point rule over every
  block as it walks each chain, where the index examines a round's chains
  with one distance pass first;
* :func:`iter_chain_point_query` walks every chain of Algorithm 1 with
  ``iter_chain``, where the index reads a chain the block-MBR gate rules
  out whole with ``touch_chain``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analytics import QueryResult
from repro.core.knn import initial_search_region
from repro.core.results import KNNQueryResult, PointQueryResult
from repro.core.rsmi import _outward_positions
from repro.core.window import window_block_range, window_corner_points
from repro.engine import BatchQueryEngine
from repro.geometry import Rect, mindist_point_rect
from repro.storage.stats import AccessSummary

__all__ = [
    "BatchResult",
    "EagerChainEngine",
    "batch_point_queries",
    "batch_window_queries",
    "batch_knn_queries",
    "encoded_mindist",
    "encoded_shard_extent",
    "encoded_shard_of",
    "encoded_shard_of_many",
    "encoded_shards_for_window",
    "iter_chain_point_query",
    "per_block_aggregate_partials",
    "per_candidate_sharded_knn",
    "per_point_knn_query",
    "searchsorted_pmf_evaluate",
    "searchsorted_pmf_skew_parameter",
    "ungated_point_query",
    "ungated_window_block_range",
]


@dataclass
class BatchResult:
    """Results of one sequential reference batch (the helpers below)."""

    #: one entry per query, in input order
    results: list = field(default_factory=list)
    #: total logical block/node reads accumulated while serving the batch
    total_block_accesses: int | None = None

    @property
    def n_queries(self) -> int:
        return len(self.results)

    @property
    def avg_block_accesses(self) -> float | None:
        if self.total_block_accesses is None or not self.results:
            return None
        return self.total_block_accesses / len(self.results)


def batch_point_queries(index, points: np.ndarray) -> BatchResult:
    """Run a point query for every row of ``points``; results are booleans."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    index.stats.reset()
    found = [bool(index.contains(float(x), float(y))) for x, y in points]
    return BatchResult(results=found, total_block_accesses=index.stats.total_reads)


def batch_window_queries(index, windows: Sequence[Rect]) -> BatchResult:
    """Run every window query; each result is an ``(m, 2)`` array of points."""
    index.stats.reset()
    results = [index.window_query(window) for window in windows]
    return BatchResult(results=results, total_block_accesses=index.stats.total_reads)


def batch_knn_queries(index, queries: np.ndarray, k: int) -> BatchResult:
    """Run a kNN query for every row of ``queries``; each result is a point array."""
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    index.stats.reset()
    results = [index.knn_query(float(x), float(y), k) for x, y in queries]
    return BatchResult(results=results, total_block_accesses=index.stats.total_reads)


def ungated_point_query(index, x: float, y: float) -> PointQueryResult:
    """Algorithm 1 on an RSMI, comparing ``(x, y)`` against every block of
    every chain it reads until the point is found."""
    leaf, depth, _ = index.route_to_leaf(x, y)
    predicted = leaf.predict_position(x, y)
    begin = max(leaf.first_position, predicted - leaf.err_below)
    end = min(leaf.last_position, predicted + leaf.err_above)
    blocks_scanned = 0
    for position in _outward_positions(predicted, begin, end):
        for block in index.store.iter_chain(position):
            blocks_scanned += 1
            if block.contains(x, y):
                return PointQueryResult(
                    found=True,
                    block_id=block.block_id,
                    position=position,
                    predicted_position=predicted,
                    depth=depth,
                    blocks_scanned=blocks_scanned,
                    scan_begin=begin,
                    scan_end=end,
                )
    return PointQueryResult(
        found=False,
        predicted_position=predicted,
        depth=depth,
        blocks_scanned=blocks_scanned,
        scan_begin=begin,
        scan_end=end,
    )


def iter_chain_point_query(index, x: float, y: float) -> PointQueryResult:
    """Algorithm 1 on an RSMI, walking every chain with ``iter_chain`` and
    comparing only where the block-MBR gate lets the point through."""
    leaf, depth, _ = index.route_to_leaf(x, y)
    predicted = leaf.predict_position(x, y)
    begin, end = leaf.scan_range(predicted)
    blocks_scanned = 0
    for position in _outward_positions(predicted, begin, end):
        may_hold = leaf.may_hold(position, x, y)
        for block in index.store.iter_chain(position):
            blocks_scanned += 1
            if may_hold and block.contains(x, y):
                return PointQueryResult(
                    found=True,
                    block_id=block.block_id,
                    position=position,
                    predicted_position=predicted,
                    depth=depth,
                    blocks_scanned=blocks_scanned,
                    scan_begin=begin,
                    scan_end=end,
                )
    return PointQueryResult(
        found=False,
        predicted_position=predicted,
        depth=depth,
        blocks_scanned=blocks_scanned,
        scan_begin=begin,
        scan_end=end,
    )


def ungated_window_block_range(index, window: Rect) -> tuple[int, int]:
    """The corner-bounded block range of Algorithm 2, each corner located
    by :func:`ungated_point_query`."""
    lower, upper = [], []
    for cx, cy in window_corner_points(window, index.config.curve):
        result = ungated_point_query(index, cx, cy)
        if result.found:
            lower.append(result.position)
            upper.append(result.position)
        else:
            lower.append(result.scan_begin)
            upper.append(result.scan_end)
    begin = index.store.clamp_position(min(lower))
    end = index.store.clamp_position(max(upper))
    return (end, begin) if begin > end else (begin, end)


# -- aggregates: one fold per touched block ------------------------------------------


def per_block_aggregate_partials(engine, specs) -> QueryResult:
    """``engine.aggregate_partials(specs)`` folding block by block.

    On an approximate RSMI every spec walks its block range from the
    engine's vectorised corner routing, and each touched block's in-window
    points fold into the spec's partial separately; elsewhere each spec
    folds its window answer.  Same signature and result shape as
    :meth:`~repro.engine.BatchQueryEngine.aggregate_partials`, so a test
    can patch it in to run a sharded engine through this loop.
    """
    specs = list(specs)
    stats = engine.index.stats
    stats.reset()
    if engine._vectorizes_windows and specs:
        cache: dict = {}
        windows = [spec.window for spec in specs]
        partials = []
        for spec, (begin, end) in zip(specs, engine._window_block_ranges(windows, cache)):
            partial = spec.new_partial()
            for position in range(begin, end + 1):
                points = engine._load_position(position, cache).points()
                if points.shape[0] == 0:
                    continue
                inside = points[spec.window.contains_points(points)]
                if inside.shape[0]:
                    spec.fold(partial, inside)
            partials.append(partial)
    else:
        partials = [
            spec.fold(spec.new_partial(), engine.index.window_query(spec.window))
            for spec in specs
        ]
    access = AccessSummary(logical_reads=stats.total_reads, physical_reads=stats.physical_reads)
    return QueryResult(kind="aggregate", values=partials, access=access)


# -- Algorithm 3 point by point ---------------------------------------------------------


def per_point_knn_query(index, x: float, y: float, k: int) -> KNNQueryResult:
    """Algorithm 3 on an RSMI, applying the per-point rule to every block
    of every chain as ``iter_chain`` yields it."""
    index._require_built()
    if k < 1:
        raise ValueError("k must be >= 1")

    width, height = initial_search_region(index, x, y, k)
    width = max(width, 1e-9)
    height = max(height, 1e-9)

    space = index.data_space()

    best: list[tuple[float, float, float]] = []
    kth = math.inf
    visited_positions: set[int] = set()
    blocks_scanned = 0
    expansions = 0
    hypot = math.hypot

    while True:
        expansions += 1
        region = Rect.from_center(x, y, width, height)
        if region.contains_rect(space):
            begin, end = 0, index.store.n_base_blocks - 1
        else:
            begin, end = window_block_range(index, region)

        for position in range(begin, end + 1):
            if position in visited_positions:
                continue
            visited_positions.add(position)
            for block in index.store.iter_chain(position):
                blocks_scanned += 1
                if kth < math.inf:
                    block_mbr = block.mbr()
                    if block_mbr is None or mindist_point_rect(x, y, block_mbr) >= kth:
                        continue
                for px, py in block.iter_points():
                    distance = hypot(x - px, y - py)
                    if distance < kth:
                        bisect.insort(best, (distance, px, py))
                        if len(best) >= k:
                            del best[k:]
                            kth = best[-1][0]

        if len(best) < k:
            if begin == 0 and end == index.store.n_base_blocks - 1:
                break
            width *= 2.0
            height *= 2.0
        elif kth > math.hypot(width, height) / 2.0:
            width = 2.0 * kth
            height = 2.0 * kth
        else:
            break

        if expansions >= index.config.knn_max_expansions:
            break

    points = np.asarray([(px, py) for _, px, py in best], dtype=float).reshape(-1, 2)
    distances = np.asarray([d for d, _, _ in best], dtype=float)
    return KNNQueryResult(
        points=points,
        distances=distances,
        blocks_scanned=blocks_scanned,
        expansions=expansions,
        exact=False,
    )


# -- the engine's chains: one array per chain, built at the read ------------------------


class _EagerChain:
    """A chain read into one array at once."""

    def __init__(self, points: np.ndarray):
        self._points = points

    def points(self) -> np.ndarray:
        return self._points


class EagerChainEngine(BatchQueryEngine):
    """:class:`~repro.engine.BatchQueryEngine` reading every chain into one
    array at the read: the chain walked with ``iter_chain`` to its end and
    its blocks' points concatenated, whether or not a probe compares
    against them.  Same constructor; a test patches it in for the engine a
    sharded engine builds per shard."""

    def _load_position(self, position: int, cache: dict) -> _EagerChain:
        chain = cache.get(position)
        if chain is None:
            blocks = list(self._rsmi.store.iter_chain(position))
            points = np.vstack([block.points() for block in blocks])
            chain = cache[position] = _EagerChain(points)
        return chain


def per_candidate_sharded_knn(index, x: float, y: float, k: int) -> np.ndarray:
    """``ShardedSpatialIndex.knn_query`` with one ``float(np.hypot(...))``
    per candidate point."""
    x, y = float(x), float(y)
    best: list[tuple[float, float, float]] = []
    for bound, shard_id in index.router.knn_shard_order(x, y):
        if len(best) >= k and bound > best[k - 1][0]:
            break
        shard = index.shards[shard_id]
        if shard.is_empty:
            continue
        for px, py in shard.knn_query(x, y, k):
            best.append((float(np.hypot(px - x, py - y)), float(px), float(py)))
        best.sort()
        del best[k:]
    return np.asarray([(px, py) for _, px, py in best], dtype=float).reshape(-1, 2)


# -- the kNN skew parameter over NumPy arrays --------------------------------------------


def searchsorted_pmf_evaluate(pmf, value: float) -> float:
    """``pmf.evaluate(value)`` with ``np.searchsorted`` over arrays."""
    boundaries = np.asarray(pmf.boundaries, dtype=float)
    cumulative = np.asarray(pmf.cumulative, dtype=float)
    if value <= boundaries[0]:
        return 0.0
    if value >= boundaries[-1]:
        return 1.0
    idx = int(np.searchsorted(boundaries, value, side="right")) - 1
    idx = min(idx, len(boundaries) - 2)
    lo, hi = boundaries[idx], boundaries[idx + 1]
    clo, chi = cumulative[idx], cumulative[idx + 1]
    if hi == lo:
        return float(chi)
    fraction = (value - lo) / (hi - lo)
    return float(clo + fraction * (chi - clo))


def searchsorted_pmf_skew_parameter(pmf, value: float, delta: float = 0.01) -> float:
    """``pmf.skew_parameter(value, delta)`` over :func:`searchsorted_pmf_evaluate`."""
    rise = searchsorted_pmf_evaluate(pmf, value + delta) - searchsorted_pmf_evaluate(pmf, value)
    boundaries = np.asarray(pmf.boundaries, dtype=float)
    span = float(boundaries[-1] - boundaries[0])
    max_alpha = max(span, 1.0) / max(delta, 1e-12)
    if rise <= 0:
        return max_alpha
    return float(min(delta / rise, max_alpha))


# -- curve-range routing: encode cells per request -------------------------------------


def _interleave_many(values: np.ndarray) -> np.ndarray:
    """Vectorised bit-spreading (even positions) over a uint64 array."""
    v = values.astype(np.uint64)
    v &= np.uint64(0x00000000FFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _encoded_shards(policy, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Owning shard of every cell ``(cx, cy)``, by curve code and the
    policy's range boundaries."""
    if policy.name == "hilbert":
        codes = policy._curve.encode_many(cx, cy)
    else:
        codes = (
            _interleave_many(cx.astype(np.uint64))
            | (_interleave_many(cy.astype(np.uint64)) << np.uint64(1))
        ).astype(np.int64)
    return np.searchsorted(policy.boundaries, codes, side="right") - 1


def _encoded_cell_of(policy, x: float, y: float) -> tuple[int, int]:
    space, side = policy.data_space, policy.side
    cx = int((x - space.xlo) / space.width * side) if space.width > 0 else 0
    cy = int((y - space.ylo) / space.height * side) if space.height > 0 else 0
    return min(max(cx, 0), side - 1), min(max(cy, 0), side - 1)


def encoded_shard_of(policy, x: float, y: float) -> int:
    cx, cy = _encoded_cell_of(policy, float(x), float(y))
    return int(_encoded_shards(policy, np.array([cx]), np.array([cy]))[0])


def encoded_shard_of_many(policy, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    space, side = policy.data_space, policy.side
    cx = np.floor((points[:, 0] - space.xlo) / space.width * side).astype(np.int64)
    cy = np.floor((points[:, 1] - space.ylo) / space.height * side).astype(np.int64)
    np.clip(cx, 0, side - 1, out=cx)
    np.clip(cy, 0, side - 1, out=cy)
    return _encoded_shards(policy, cx, cy)


def encoded_shards_for_window(policy, window: Rect) -> list[int]:
    cx0, cy0 = _encoded_cell_of(policy, window.xlo, window.ylo)
    cx1, cy1 = _encoded_cell_of(policy, window.xhi, window.yhi)
    cxs, cys = np.meshgrid(
        np.arange(cx0, cx1 + 1, dtype=np.int64), np.arange(cy0, cy1 + 1, dtype=np.int64)
    )
    return sorted(int(s) for s in np.unique(_encoded_shards(policy, cxs.ravel(), cys.ravel())))


def _encoded_cells(policy, shard_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of every cell ``shard_id`` owns."""
    side, space = policy.side, policy.data_space
    cx, cy = (axis.ravel() for axis in np.meshgrid(np.arange(side), np.arange(side)))
    mine = _encoded_shards(policy, cx, cy) == shard_id
    cell_w, cell_h = space.width / side, space.height / side
    lo = np.column_stack((space.xlo + cx[mine] * cell_w, space.ylo + cy[mine] * cell_h))
    return lo, lo + np.array([cell_w, cell_h])


def encoded_mindist(policy, x: float, y: float, shard_id: int) -> float:
    lo, hi = _encoded_cells(policy, shard_id)
    dx = np.maximum(np.maximum(lo[:, 0] - x, x - hi[:, 0]), 0.0)
    dy = np.maximum(np.maximum(lo[:, 1] - y, y - hi[:, 1]), 0.0)
    return float(np.min(np.hypot(dx, dy)))


def encoded_shard_extent(policy, shard_id: int) -> Rect:
    lo, hi = _encoded_cells(policy, shard_id)
    return Rect(
        float(lo[:, 0].min()), float(lo[:, 1].min()), float(hi[:, 0].max()), float(hi[:, 1].max())
    )
