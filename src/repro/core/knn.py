"""Approximate kNN queries on the RSMI (Algorithm 3 of the paper).

The algorithm expands a rectangular search region centred on the query point
until it provably covers the k nearest neighbours found so far.  The initial
region size assumes ``k/n`` of the space is needed under a uniform
distribution and corrects for skew with the parameters ``αx`` and ``αy``
estimated from piecewise CDF approximations (Equation 6).

Each round reads every chain its region newly covers, exactly as the paper
does, then examines them in one pass: one ``np.hypot`` over the chains'
points gives the round's threshold, the k-th smallest of those distances and
the ones already kept.  The per-point rule (MINDIST block prune, a
``math.hypot`` per point, insert only below the current k-th distance) runs
only over the blocks holding a point within that threshold.  No point the
rule keeps lies in a skipped block, so answers, distances and reads are
those of the per-point loop over every block.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from repro.core.results import KNNQueryResult
from repro.core.window import window_block_range
from repro.geometry import Rect, mindist_point_rect

__all__ = ["initial_search_region", "knn_query"]

#: relative slack on a round's threshold, far above the last-bit difference
#: between ``np.hypot`` and ``math.hypot``
_HYPOT_MARGIN = 1e-9


def initial_search_region(index, x: float, y: float, k: int) -> tuple[float, float]:
    """Width and height of the initial search region (paper Section 4.3)."""
    n = max(index.n_points, 1)
    base = math.sqrt(k / n)
    delta = index.config.knn_delta
    alpha_x = index.pmf_x.skew_parameter(x, delta) if index.pmf_x is not None else 1.0
    alpha_y = index.pmf_y.skew_parameter(y, delta) if index.pmf_y is not None else 1.0
    return alpha_x * base, alpha_y * base


def knn_query(index, x: float, y: float, k: int) -> KNNQueryResult:
    """Algorithm 3: expanding-window approximate kNN search."""
    index._require_built()
    if k < 1:
        raise ValueError("k must be >= 1")

    width, height = initial_search_region(index, x, y, k)
    width = max(width, 1e-9)
    height = max(height, 1e-9)

    space = index.data_space()

    # sorted list of the k best (distance, px, py) so far; once it holds k
    # entries its last distance, ``kth``, bounds the search
    best: list[tuple[float, float, float]] = []
    kth = math.inf
    visited_positions: set[int] = set()
    blocks_scanned = 0
    expansions = 0
    store = index.store

    while True:
        expansions += 1
        region = Rect.from_center(x, y, width, height)
        if region.contains_rect(space):
            # every stored point lies in the region, so every block does;
            # the corner-bounded range may not reach them all
            begin, end = 0, index.store.n_base_blocks - 1
        else:
            begin, end = window_block_range(index, region)

        blocks = []
        for position in range(begin, end + 1):
            if position not in visited_positions:
                visited_positions.add(position)
                blocks += store.touch_chain(position)
        blocks_scanned += len(blocks)
        kth = _examine(blocks, x, y, k, best, kth)

        if len(best) < k:
            if begin == 0 and end == index.store.n_base_blocks - 1:
                break  # every block was scanned: fewer than k live points exist
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


def _examine(blocks: list, x: float, y: float, k: int, best: list, kth: float) -> float:
    """Add the points of ``blocks`` that rank among the k nearest to ``best``.

    ``best`` is the sorted ``(distance, px, py)`` list and ``kth`` its k-th
    distance (infinite below k entries); returns the new ``kth``.  The rule
    is applied block by block in read order, but only to blocks holding a
    point within the round's threshold ``T``: the k-th smallest of the kept
    distances and the blocks' distances.  The rule's k-th distance never
    drops below ``T``, so it keeps every point nearer than ``T``, and ``T``
    ties only while fewer than k such points are kept; a farther point it
    inserts is truncated again by the end of the round and leaves the k-th
    distance above ``T`` while it stays.  Skipped blocks therefore change no
    kept point.
    """
    if not blocks:
        return kth
    arrays = [block.points() for block in blocks]
    sizes = [array.shape[0] for array in arrays]
    if len(best) + sum(sizes) >= k:
        coords = np.concatenate(arrays)
        distances = np.hypot(coords[:, 0] - x, coords[:, 1] - y)
        candidates = np.concatenate(([entry[0] for entry in best], distances))
        threshold = np.partition(candidates, k - 1)[k - 1]
        near = np.flatnonzero(distances <= threshold * (1.0 + _HYPOT_MARGIN)).tolist()
        ends = list(itertools.accumulate(sizes))
        blocks = [blocks[i] for i in sorted({bisect.bisect_right(ends, j) for j in near})]
    hypot = math.hypot
    for block in blocks:
        # a block can only be pruned against a finite k-th distance
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
    return kth
