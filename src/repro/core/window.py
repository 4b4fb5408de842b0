"""Approximate window queries on the RSMI (Algorithm 2 of the paper).

The algorithm locates the data-block positions of (a superset of) the points
falling into the query window by running point queries for selected corner
points of the window:

* with a **Z-curve** ordering, the bottom-left and top-right corners bound the
  curve values covered by the window, so two point queries suffice;
* with a **Hilbert-curve** ordering the extreme curve values lie somewhere on
  the window boundary; the paper heuristically uses all four corners.

The block range spanned by the corner predictions (widened by the leaf error
bounds) is then scanned and filtered against the window.  The answer may miss
points (bounded recall) but never contains false positives.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import WindowQueryResult
from repro.geometry import Rect

__all__ = ["window_corner_points", "window_block_range", "window_query"]


def window_corner_points(window: Rect, curve_name: str) -> list[tuple[float, float]]:
    """The corner points whose predicted positions bound the scan range."""
    normalized = curve_name.lower()
    if normalized in ("z", "zcurve", "z-curve", "morton"):
        return [(window.xlo, window.ylo), (window.xhi, window.yhi)]
    return window.corners


def window_block_range(index, window: Rect) -> tuple[int, int]:
    """Base-block position range ``[begin, end]`` to scan for ``window``.

    Each corner point runs one point query (one descent): a corner that is
    an indexed point pins the range to the position where it was found;
    otherwise the error range the point query searched around the leaf's
    prediction (``scan_begin``/``scan_end``) bounds it.
    """
    corners = window_corner_points(window, index.config.curve)
    lower_bounds: list[int] = []
    upper_bounds: list[int] = []
    for cx, cy in corners:
        result = index.point_query(cx, cy)
        if result.found:
            lower_bounds.append(result.position)
            upper_bounds.append(result.position)
        else:
            lower_bounds.append(result.scan_begin)
            upper_bounds.append(result.scan_end)
    begin = index.store.clamp_position(min(lower_bounds))
    end = index.store.clamp_position(max(upper_bounds))
    if begin > end:
        begin, end = end, begin
    return begin, end


def window_query(index, window: Rect) -> WindowQueryResult:
    """Algorithm 2: scan the corner-bounded block range and filter by ``window``."""
    index._require_built()
    begin, end = window_block_range(index, window)
    collected: list[np.ndarray] = []
    blocks_scanned = 0
    for block in index.store.scan_positions(begin, end):
        blocks_scanned += 1
        points = block.points()
        if points.shape[0] == 0:
            continue
        mask = window.contains_points(points)
        if mask.any():
            collected.append(points[mask])
    points = np.vstack(collected) if collected else np.empty((0, 2), dtype=float)
    return WindowQueryResult(
        points=points,
        blocks_scanned=blocks_scanned,
        scan_begin=begin,
        scan_end=end,
        exact=False,
    )
