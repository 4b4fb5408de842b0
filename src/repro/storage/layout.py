"""Curve-aware physical layout: window run decomposition.

The paper's cost metric is blocks touched per query, and for a linear block
layout that number is decided by how well the ordering clusters co-accessed
points.  :func:`window_key_runs` gives the contiguous key intervals a window
decomposes into.  A rectangular window touches the curve in several disjoint
segments; scanning per segment instead of the whole ``[min, max]`` key span
is what makes a Hilbert layout pay off (the Hilbert curve's span over a
window is *wider* than Z-order's, but it decomposes into ~40% fewer
contiguous runs — measured by ``bench_block_cache.py``).

Run decomposition works at a configurable **coarse order**: because both
shipped curves are recursively self-similar, the fine keys inside one coarse
cell ``c`` of order ``L`` occupy exactly the interval
``[c * 4^(order-L), (c+1) * 4^(order-L))``.  Enumerating window cells at the
coarse order (at most ``2^L × 2^L`` of them) therefore yields *exact*
covering runs on the fine key grid without enumerating billions of fine
cells.
"""

from __future__ import annotations

import numpy as np

from repro.curves import SpaceFillingCurve, curve_by_name
from repro.geometry import Rect

__all__ = [
    "DEFAULT_RUN_ORDER",
    "curve_cells",
    "window_key_runs",
    "count_key_runs",
]

#: coarse order of :func:`window_key_runs`: a 128x128 coarse grid keeps the
#: enumeration cheap (<= 16384 cells for a full-space window) while splitting
#: windows finely enough that runs track the window shape
DEFAULT_RUN_ORDER = 7


def curve_cells(points: np.ndarray, data_space: Rect, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped integer cell coordinates of ``points`` on a ``side × side`` grid."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    width = data_space.width or 1.0
    height = data_space.height or 1.0
    cx = np.floor((points[:, 0] - data_space.xlo) / width * side).astype(np.int64)
    cy = np.floor((points[:, 1] - data_space.ylo) / height * side).astype(np.int64)
    np.clip(cx, 0, side - 1, out=cx)
    np.clip(cy, 0, side - 1, out=cy)
    return cx, cy


def window_key_runs(
    curve: SpaceFillingCurve,
    window: Rect,
    data_space: Rect,
    coarse_order: int = DEFAULT_RUN_ORDER,
) -> list[tuple[int, int]]:
    """Contiguous inclusive key intervals of ``curve`` covering ``window``.

    The returned runs partition-cover every fine cell whose area intersects
    the window: any point inside the window has a curve key inside exactly
    one run.  Runs are ascending and disjoint, merged maximally at the
    coarse granularity.
    """
    coarse_order = max(1, min(coarse_order, curve.order))
    coarse = curve_by_name(curve.name, coarse_order)
    side = coarse.side
    corners = np.array(
        [[window.xlo, window.ylo], [window.xhi, window.yhi]], dtype=float
    )
    cx, cy = curve_cells(corners, data_space, side)
    cx0, cx1 = int(cx[0]), int(cx[1])
    cy0, cy1 = int(cy[0]), int(cy[1])
    cxs, cys = np.meshgrid(
        np.arange(cx0, cx1 + 1, dtype=np.int64),
        np.arange(cy0, cy1 + 1, dtype=np.int64),
    )
    codes = np.sort(coarse.encode_many(cxs.ravel(), cys.ravel()))
    breaks = np.nonzero(np.diff(codes) > 1)[0]
    starts = codes[np.concatenate(([0], breaks + 1))]
    ends = codes[np.concatenate((breaks, [codes.size - 1]))]
    # self-similarity: coarse cell c holds exactly the fine keys
    # [c << shift, (c + 1) << shift) — scale the coarse runs up
    shift = 2 * (curve.order - coarse_order)
    lo = starts << shift
    hi = ((ends + 1) << shift) - 1
    return list(zip(lo.tolist(), hi.tolist()))


def count_key_runs(sorted_keys: np.ndarray) -> int:
    """Number of maximal consecutive-integer runs in ascending ``sorted_keys``."""
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    if sorted_keys.size == 0:
        return 0
    return 1 + int(np.sum(np.diff(sorted_keys) > 1))
