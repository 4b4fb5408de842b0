"""Sharding policies: how the data space is partitioned across shards.

A :class:`ShardingPolicy` is a *total* function from coordinates to shard
ids — every point of the plane maps to exactly one shard, including points
exactly on partition boundaries (cells are half-open except at the data
space's far edges) and points outside the configured data space (they clamp
to the nearest boundary cell).  Totality is what makes shard routing
deterministic under churn: an insert and the later point query / delete for
the same key always land on the same shard.

Four policies ship:

* :class:`RegularGridPolicy` — an ``nx × ny`` grid of equal-sized cells;
  the simplest layout, best for uniform data.
* :class:`ZOrderRangePolicy` — cells of a fine ``2^order × 2^order`` grid
  are linearised along the Z-curve (:mod:`repro.curves.zcurve`) and split
  into ``n_shards`` contiguous Z-ranges, mirroring how distributed spatial
  stores range-partition Morton keys.  Shard regions are unions of cells,
  not rectangles.
* :class:`HilbertRangePolicy` — the same contiguous-range construction
  over the Hilbert curve (:mod:`repro.curves.hilbert`).  The Hilbert
  curve's better clustering (no Z-curve "jumps" across the space) keeps
  each shard's cells contiguous in the plane, so a spanning window
  intersects fewer shards than under Z-order ranges — the fan-out win the
  cache benchmarks gate.
* :class:`SampleBalancedPolicy` — recursive median splits (k-d style) over
  a sample of the data, producing rectangular regions with near-equal point
  counts; best for skewed data where a regular grid would leave most shards
  empty.

Every policy also answers the two routing questions the
:class:`~repro.sharding.router.ShardRouter` needs for query planning:
*which shards can contain an answer for this window* (data skipping — a
shard whose extent cannot intersect the window is never touched) and *how
close can this shard's region possibly be to a query point* (a MINDIST
lower bound used for best-first kNN shard expansion).
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from repro.curves.hilbert import HilbertCurve
from repro.curves.zcurve import interleave_bits
from repro.geometry import Rect, mindist_point_rect

__all__ = [
    "ShardingPolicy",
    "RegularGridPolicy",
    "CurveRangePolicy",
    "ZOrderRangePolicy",
    "HilbertRangePolicy",
    "SampleBalancedPolicy",
    "SHARDING_POLICY_NAMES",
    "make_policy",
]

#: names accepted by :func:`make_policy` (and the CLI's ``--sharding-policy``)
SHARDING_POLICY_NAMES = ("grid", "zorder", "hilbert", "balanced")


class ShardingPolicy(abc.ABC):
    """Partition of the data space into ``n_shards`` disjoint regions."""

    #: short name used in reports ("grid", "zorder", "balanced")
    name: str = "abstract"

    def __init__(self, n_shards: int, data_space: Optional[Rect] = None):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.data_space = data_space if data_space is not None else Rect.unit()

    # -- routing primitives -------------------------------------------------

    @abc.abstractmethod
    def shard_of(self, x: float, y: float) -> int:
        """The shard id owning ``(x, y)``; total over the whole plane."""

    def shard_of_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of` over an ``(n, 2)`` array."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.fromiter(
            (self.shard_of(float(x), float(y)) for x, y in points),
            dtype=np.int64,
            count=points.shape[0],
        )

    @abc.abstractmethod
    def shards_for_window(self, window: Rect) -> list[int]:
        """Ids of every shard whose region intersects ``window``.

        Must be complete (no shard holding an in-window point may be
        missing) and should be minimal (shards whose region cannot
        intersect are skipped — the data-skipping property).
        """

    @abc.abstractmethod
    def mindist(self, x: float, y: float, shard_id: int) -> float:
        """Lower bound on the distance from ``(x, y)`` to any point stored
        in ``shard_id``'s region (0 when the point lies inside it)."""

    def mindists(self, x: float, y: float) -> np.ndarray:
        """:meth:`mindist` of every shard, indexed by shard id."""
        return np.array([self.mindist(x, y, s) for s in range(self.n_shards)], dtype=float)

    @abc.abstractmethod
    def shard_extent(self, shard_id: int) -> Rect:
        """The MBR of the shard's region (for reports and diagnostics)."""

    def describe(self) -> str:
        return f"{self.name}({self.n_shards})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_shards={self.n_shards})"


class RegularGridPolicy(ShardingPolicy):
    """An ``nx × ny`` grid of equal-sized rectangular shard regions.

    ``nx * ny == n_shards``; when the factors are not given, the most
    square-ish factorisation of ``n_shards`` is chosen.  Cells are half-open
    in both axes except along the data space's top/right edges, so boundary
    points route to exactly one shard.
    """

    name = "grid"

    def __init__(
        self,
        n_shards: int,
        data_space: Optional[Rect] = None,
        nx: Optional[int] = None,
        ny: Optional[int] = None,
    ):
        super().__init__(n_shards, data_space)
        if nx is None or ny is None:
            nx, ny = _squarish_factors(n_shards)
        if nx * ny != n_shards:
            raise ValueError(f"nx * ny must equal n_shards ({nx}*{ny} != {n_shards})")
        self.nx = nx
        self.ny = ny

    def shard_of(self, x: float, y: float) -> int:
        ix, iy = _grid_cell(self.data_space, float(x), float(y), self.nx, self.ny)
        return iy * self.nx + ix

    def shard_of_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        ix, iy = _grid_cells(self.data_space, points, self.nx, self.ny)
        return iy * self.nx + ix

    def shards_for_window(self, window: Rect) -> list[int]:
        ix0, iy0 = _grid_cell(self.data_space, window.xlo, window.ylo, self.nx, self.ny)
        ix1, iy1 = _grid_cell(self.data_space, window.xhi, window.yhi, self.nx, self.ny)
        return [
            iy * self.nx + ix
            for iy in range(iy0, iy1 + 1)
            for ix in range(ix0, ix1 + 1)
        ]

    def mindist(self, x: float, y: float, shard_id: int) -> float:
        return mindist_point_rect(float(x), float(y), self.shard_extent(shard_id))

    def shard_extent(self, shard_id: int) -> Rect:
        ix, iy = shard_id % self.nx, shard_id // self.nx
        space = self.data_space
        cell_w = space.width / self.nx
        cell_h = space.height / self.ny
        return Rect(
            space.xlo + ix * cell_w,
            space.ylo + iy * cell_h,
            space.xlo + (ix + 1) * cell_w,
            space.ylo + (iy + 1) * cell_h,
        )

    def describe(self) -> str:
        return f"grid({self.nx}x{self.ny})"


class CurveRangePolicy(ShardingPolicy):
    """Contiguous space-filling-curve ranges over a fine cell grid.

    The data space is diced into ``2^order × 2^order`` cells; each cell's
    curve code linearises it, and the code range ``[0, 4^order)`` is split
    into ``n_shards`` contiguous ranges holding a near-equal number of
    cells.  A shard's region is the union of its cells, so window routing
    and kNN MINDIST work cell-wise (tight, not via the shard MBR, which can
    overlap heavily between ranges).  Subclasses supply the cell -> code
    mapping (:meth:`_cell_code`); it runs once per cell, at construction,
    which tabulates every cell's shard, every shard's cells and extent, so
    routing a request encodes nothing.
    """

    def __init__(self, n_shards: int, data_space: Optional[Rect] = None, order: int = 4):
        super().__init__(n_shards, data_space)
        if order < 1:
            raise ValueError("order must be >= 1")
        side = 1 << order
        if n_shards > side * side:
            raise ValueError(
                f"n_shards={n_shards} exceeds the {side}x{side} cell grid; raise `order`"
            )
        self.order = order
        self.side = side
        n_cells = side * side
        #: shard s owns curve codes in [boundaries[s], boundaries[s + 1])
        self.boundaries = np.array(
            [round(s * n_cells / n_shards) for s in range(n_shards + 1)], dtype=np.int64
        )
        codes = [[self._cell_code(cx, cy) for cy in range(side)] for cx in range(side)]
        #: ``_shard_table[cx, cy]`` is the shard owning grid cell (cx, cy)
        self._shard_table = np.searchsorted(self.boundaries, codes, side="right") - 1
        #: the same table as nested lists, for routing a point without NumPy
        self._shard_rows = self._shard_table.tolist()
        # every cell's rectangle, grouped by shard (cells of shard s are rows
        # _starts[s]:_starts[s + 1]), for one-pass MINDIST
        by_shard = np.argsort(self._shard_table, axis=None, kind="stable")
        cx, cy = np.divmod(by_shard, side)
        space = self.data_space
        cell_w = space.width / side
        cell_h = space.height / side
        self._cells_lo = np.column_stack((space.xlo + cx * cell_w, space.ylo + cy * cell_h))
        self._cells_hi = self._cells_lo + np.array([cell_w, cell_h])
        self._starts = np.searchsorted(self._shard_table.ravel()[by_shard], np.arange(n_shards))
        lows = np.minimum.reduceat(self._cells_lo, self._starts).tolist()
        highs = np.maximum.reduceat(self._cells_hi, self._starts).tolist()
        self._extents = [Rect(*low, *high) for low, high in zip(lows, highs)]

    @abc.abstractmethod
    def _cell_code(self, cx: int, cy: int) -> int:
        """Curve code of grid cell ``(cx, cy)``."""

    # -- routing -------------------------------------------------------------

    def shard_of(self, x: float, y: float) -> int:
        cx, cy = _grid_cell(self.data_space, float(x), float(y), self.side, self.side)
        return self._shard_rows[cx][cy]

    def shard_of_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        return self._shard_table[_grid_cells(self.data_space, points, self.side, self.side)]

    def shards_for_window(self, window: Rect) -> list[int]:
        space, side = self.data_space, self.side
        cx0, cy0 = _grid_cell(space, window.xlo, window.ylo, side, side)
        cx1, cy1 = _grid_cell(space, window.xhi, window.yhi, side, side)
        return sorted(set(self._shard_table[cx0 : cx1 + 1, cy0 : cy1 + 1].ravel().tolist()))

    def mindists(self, x: float, y: float) -> np.ndarray:
        lo, hi = self._cells_lo, self._cells_hi
        dx = np.maximum(np.maximum(lo[:, 0] - x, x - hi[:, 0]), 0.0)
        dy = np.maximum(np.maximum(lo[:, 1] - y, y - hi[:, 1]), 0.0)
        return np.minimum.reduceat(np.hypot(dx, dy), self._starts)

    def mindist(self, x: float, y: float, shard_id: int) -> float:
        return float(self.mindists(x, y)[shard_id])

    def shard_extent(self, shard_id: int) -> Rect:
        return self._extents[shard_id]

    def describe(self) -> str:
        return f"{self.name}(order={self.order})"

    # -- persistence: the tables are rebuilt, never pickled ----------------------

    def __getstate__(self) -> dict:
        """Only what the tables are built from: checkpoints and copies carry
        ``n_shards``, the data space and ``order``."""
        return {"n_shards": self.n_shards, "data_space": self.data_space, "order": self.order}

    def __setstate__(self, state: dict) -> None:
        # states pickled with the tables carry these three keys as well
        type(self).__init__(self, state["n_shards"], state["data_space"], state["order"])


class ZOrderRangePolicy(CurveRangePolicy):
    """Contiguous Z-order (Morton) ranges over a fine cell grid, mirroring
    how distributed spatial stores range-partition Morton keys."""

    name = "zorder"

    def _cell_code(self, cx: int, cy: int) -> int:
        return interleave_bits(cx, cy)


class HilbertRangePolicy(CurveRangePolicy):
    """Contiguous Hilbert ranges over a fine cell grid.

    Because consecutive Hilbert codes are always plane-adjacent cells, each
    shard's region is one connected blob (Z-ranges can straddle the curve's
    quadrant jumps), which is what cuts spanning-window shard fan-out.
    """

    name = "hilbert"

    def __init__(self, n_shards: int, data_space: Optional[Rect] = None, order: int = 4):
        self._curve = HilbertCurve(max(order, 1))
        super().__init__(n_shards, data_space, order)

    def _cell_code(self, cx: int, cy: int) -> int:
        return self._curve.encode(cx, cy)


class SampleBalancedPolicy(ShardingPolicy):
    """Recursive median splits over a data sample (k-d style regions).

    The region holding the most sample points is split at the sample median
    along its wider axis until ``n_shards`` regions exist, yielding
    rectangular shard regions with near-equal point populations even under
    heavy skew.  Splits send points with a coordinate strictly below the
    threshold left, so the regions tile the space half-open and boundary
    points route deterministically to the region starting at the threshold.
    """

    name = "balanced"

    def __init__(
        self,
        n_shards: int,
        data_space: Optional[Rect] = None,
        sample: Optional[np.ndarray] = None,
    ):
        super().__init__(n_shards, data_space)
        if sample is None:
            raise ValueError("SampleBalancedPolicy requires a data sample")
        sample = np.asarray(sample, dtype=float).reshape(-1, 2)
        if sample.shape[0] == 0:
            raise ValueError("SampleBalancedPolicy requires a non-empty sample")
        # leaves: (rect, sample subset); split the most populated leaf until
        # n_shards regions exist
        leaves: list[tuple[Rect, np.ndarray]] = [(self.data_space, sample)]
        # split tree nodes: (axis, threshold, left, right); leaves are shard ids
        while len(leaves) < n_shards:
            victim = max(range(len(leaves)), key=lambda i: leaves[i][1].shape[0])
            rect, pts = leaves.pop(victim)
            axis = 0 if rect.width >= rect.height else 1
            threshold = _split_threshold(rect, pts, axis)
            if axis == 0:
                left_rect = Rect(rect.xlo, rect.ylo, threshold, rect.yhi)
                right_rect = Rect(threshold, rect.ylo, rect.xhi, rect.yhi)
            else:
                left_rect = Rect(rect.xlo, rect.ylo, rect.xhi, threshold)
                right_rect = Rect(rect.xlo, threshold, rect.xhi, rect.yhi)
            mask = pts[:, axis] < threshold
            leaves.insert(victim, (right_rect, pts[~mask]))
            leaves.insert(victim, (left_rect, pts[mask]))
        self._rects = [rect for rect, _ in leaves]

    def shard_of(self, x: float, y: float) -> int:
        x, y = float(x), float(y)
        # regions tile the space half-open, so the first (and only) matching
        # region owns the point
        for shard_id, rect in enumerate(self._rects):
            if (rect.xlo <= x < rect.xhi or (x == rect.xhi == self.data_space.xhi)) and (
                rect.ylo <= y < rect.yhi or (y == rect.yhi == self.data_space.yhi)
            ):
                return shard_id
        # clamped fallback for points outside every region (outside the data
        # space): nearest region by MINDIST
        return min(
            range(len(self._rects)),
            key=lambda shard_id: mindist_point_rect(x, y, self._rects[shard_id]),
        )

    def shard_of_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        owners = np.full(points.shape[0], -1, dtype=np.int64)
        xs, ys = points[:, 0], points[:, 1]
        space = self.data_space
        for shard_id, rect in enumerate(self._rects):
            in_x = (xs >= rect.xlo) & (
                (xs < rect.xhi) | ((xs == rect.xhi) & (rect.xhi == space.xhi))
            )
            in_y = (ys >= rect.ylo) & (
                (ys < rect.yhi) | ((ys == rect.yhi) & (rect.yhi == space.yhi))
            )
            owners[(owners == -1) & in_x & in_y] = shard_id
        # points outside every region (outside the data space) take the
        # scalar nearest-region fallback; normally none exist
        for position in np.nonzero(owners == -1)[0]:
            owners[position] = self.shard_of(float(xs[position]), float(ys[position]))
        return owners

    def shards_for_window(self, window: Rect) -> list[int]:
        return [
            shard_id
            for shard_id, rect in enumerate(self._rects)
            if rect.intersects(window)
        ]

    def mindist(self, x: float, y: float, shard_id: int) -> float:
        return mindist_point_rect(float(x), float(y), self._rects[shard_id])

    def shard_extent(self, shard_id: int) -> Rect:
        return self._rects[shard_id]

    def describe(self) -> str:
        return f"balanced({self.n_shards})"


def _squarish_factors(n: int) -> tuple[int, int]:
    """The factor pair ``(nx, ny)`` of ``n`` closest to a square."""
    nx = int(math.isqrt(n))
    while nx > 1 and n % nx != 0:
        nx -= 1
    return max(nx, 1), n // max(nx, 1)


def _split_threshold(rect: Rect, pts: np.ndarray, axis: int) -> float:
    """A median-ish split coordinate strictly inside ``rect`` along ``axis``."""
    lo = rect.xlo if axis == 0 else rect.ylo
    hi = rect.xhi if axis == 0 else rect.yhi
    if pts.shape[0] > 0:
        threshold = float(np.median(pts[:, axis]))
    else:
        threshold = (lo + hi) / 2.0
    if not lo < threshold < hi:
        threshold = (lo + hi) / 2.0
    return threshold


def _spans(space: Rect) -> tuple[float, float]:
    """The space's width and height for cell arithmetic, a zero span read
    as infinite: every coordinate then falls in that axis's first cell,
    and nothing divides by zero."""
    return (space.xhi - space.xlo) or math.inf, (space.yhi - space.ylo) or math.inf


def _grid_cell(space: Rect, x: float, y: float, nx: int, ny: int) -> tuple[int, int]:
    """The ``(ix, iy)`` cell of ``(x, y)`` on an ``nx × ny`` grid over ``space``.

    Cells are half-open except along the space's far edges; points outside
    the space clamp to the nearest boundary cell (before the cast, so
    far-outside coordinates stay in range).  :func:`_grid_cells` is the same
    arithmetic over arrays, so scalar, array and window routing agree.
    """
    width, height = _spans(space)
    ix = (x - space.xlo) / width * nx
    iy = (y - space.ylo) / height * ny
    # min(max(v, 0.0), n - 1) spelt as comparisons: the same cells, without
    # two builtin calls per axis (a NaN still fails the int cast)
    return (
        0 if ix <= 0.0 else nx - 1 if ix >= nx - 1 else int(ix),
        0 if iy <= 0.0 else ny - 1 if iy >= ny - 1 else int(iy),
    )


def _grid_cells(
    space: Rect, points: np.ndarray, nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_grid_cell` of every row of an ``(n, 2)`` array, as int64 arrays."""
    cells = (points - (space.xlo, space.ylo)) / _spans(space) * (nx, ny)
    np.maximum(cells, 0.0, out=cells)
    np.minimum(cells, (nx - 1, ny - 1), out=cells)
    cells = cells.astype(np.int64)
    return cells[:, 0], cells[:, 1]


def make_policy(
    name: str,
    n_shards: int,
    data_space: Optional[Rect] = None,
    sample: Optional[np.ndarray] = None,
    **kwargs,
) -> ShardingPolicy:
    """Build a sharding policy by name (``grid``, ``zorder``, ``hilbert``
    or ``balanced``).

    ``sample`` is required by (and only used for) the ``balanced`` policy;
    pass the build points or a subsample of them.
    """
    normalized = name.strip().lower()
    if normalized == "grid":
        return RegularGridPolicy(n_shards, data_space, **kwargs)
    if normalized == "zorder":
        return ZOrderRangePolicy(n_shards, data_space, **kwargs)
    if normalized == "hilbert":
        return HilbertRangePolicy(n_shards, data_space, **kwargs)
    if normalized == "balanced":
        return SampleBalancedPolicy(n_shards, data_space, sample=sample, **kwargs)
    raise ValueError(
        f"unknown sharding policy {name!r}; available: {SHARDING_POLICY_NAMES}"
    )
