"""Learned grid partitioning for the internal levels of RSMI (paper Section 3.2).

A partition with more than ``N`` points is split through a non-regular
``g x g`` grid with ``g = 2^floor(log4(N/B))``:

1. the points are cut into ``g`` columns of (almost) equal cardinality by
   x-coordinate,
2. each column is cut into ``g`` cells of (almost) equal cardinality by
   y-coordinate,
3. a space-filling curve of order ``log2(g)`` assigns each cell a curve value,
4. an MLP is trained to map a point's coordinates to the curve value of its
   cell, and
5. the points are grouped **by the trained model's predictions** (not the true
   cells), so that query-time routing follows exactly the same function that
   decided where each point went.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import RSMIConfig
from repro.curves import curve_by_name
from repro.nn import MinMaxScaler, MLPRegressor, train_regressor

__all__ = ["LearnedPartitioning", "grid_side_for", "compute_grid_cells", "build_partitioning"]


def grid_side_for(partition_threshold: int, block_capacity: int) -> int:
    """``g = 2^floor(log4(N/B))``, at least 2 so a split always happens."""
    ratio = max(partition_threshold // block_capacity, 1)
    exponent = int(math.floor(math.log(ratio, 4))) if ratio > 1 else 0
    return max(2, 2**exponent)


def compute_grid_cells(points: np.ndarray, grid_side: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and row indices of each point in the non-regular ``g x g`` grid.

    Columns contain (almost) equal numbers of points; within each column the
    rows contain (almost) equal numbers of points, so the grid adapts to the
    data distribution (paper Section 3.2).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot partition an empty point set")
    if grid_side < 1:
        raise ValueError("grid_side must be >= 1")

    # rank by x (ties broken by y) -> column index
    order_x = np.lexsort((points[:, 1], points[:, 0]))
    rank_x = np.empty(n, dtype=np.int64)
    rank_x[order_x] = np.arange(n)
    columns = (rank_x * grid_side) // n

    rows = np.zeros(n, dtype=np.int64)
    for column in range(grid_side):
        members = np.nonzero(columns == column)[0]
        size = members.size
        if size == 0:
            continue
        order_y = members[np.lexsort((points[members, 0], points[members, 1]))]
        rank_in_column = np.arange(size)
        rows[order_y] = (rank_in_column * grid_side) // size
    return columns, rows


class LearnedPartitioning:
    """A trained internal-level partitioning function."""

    def __init__(
        self,
        model: MLPRegressor,
        scaler: MinMaxScaler,
        grid_side: int,
        curve_name: str,
    ):
        self.model = model
        self.scaler = scaler
        self.grid_side = int(grid_side)
        self.n_cells = self.grid_side * self.grid_side
        self.curve_name = curve_name

    def predict_cell(self, x: float, y: float) -> int:
        """Predicted cell curve value for a point, in ``[0, n_cells)`` (no
        NumPy work)."""
        raw = self.model.predict_one(self.scaler.transform_one((x, y)))
        return self._cell(raw * max(self.n_cells - 1, 1))

    def _cell(self, raw: float) -> int:
        # clamp, then round half to even like np.rint in predict_cells
        return round(min(max(raw, 0.0), self.n_cells - 1))

    def predict_cells(
        self, points: np.ndarray | list, ys: np.ndarray | None = None
    ) -> np.ndarray | list:
        """Vectorised cell prediction.

        Accepts an ``(n, 2)`` point array (used by the build path), two 1-D
        coordinate arrays ``predict_cells(xs, ys)`` (used by the batched
        query engine's level-synchronous routing), or a list of ``(x, y)``
        rows, which gives a list of ints without NumPy work (the engine's
        small requests).  One model invocation serves the whole batch
        either way, and every form predicts what :meth:`predict_cell` does.
        """
        denominator = max(self.n_cells - 1, 1)
        if isinstance(points, list):
            raw = self.model.predict(self.scaler.transform(points))
            return [self._cell(value * denominator) for value in raw]
        if ys is not None:
            xs = np.asarray(points, dtype=float).ravel()
            ys = np.asarray(ys, dtype=float).ravel()
            if xs.shape != ys.shape:
                raise ValueError("xs and ys must have the same length")
            points = np.column_stack((xs, ys))
        points = np.asarray(points, dtype=float)
        features = self.scaler.transform(points)
        raw = self.model.predict_chunked(features) * denominator
        return np.clip(np.rint(raw), 0, self.n_cells - 1).astype(np.int64)

    def size_bytes(self) -> int:
        return self.model.size_bytes() + 64


def build_partitioning(
    points: np.ndarray,
    config: RSMIConfig,
    rng: np.random.Generator,
) -> tuple[LearnedPartitioning, dict[int, np.ndarray]]:
    """Train a partitioning model and group ``points`` by its predictions.

    Returns the trained :class:`LearnedPartitioning` and a mapping from
    predicted cell value to the indices (into ``points``) of the points in
    that group.  Only non-empty groups are returned.
    """
    points = np.asarray(points, dtype=float)
    grid_side = grid_side_for(config.partition_threshold, config.block_capacity)
    columns, rows = compute_grid_cells(points, grid_side)

    curve_order = max(1, int(round(math.log2(grid_side))))
    curve = curve_by_name(config.curve, curve_order)
    cell_values = curve.encode_many(columns, rows)

    n_cells = grid_side * grid_side
    denominator = max(n_cells - 1, 1)
    targets = cell_values / denominator

    scaler = MinMaxScaler().fit(points)
    features = scaler.transform(points)
    hidden = config.hidden_width_for(n_cells)
    model = MLPRegressor(2, (hidden,), activation="sigmoid", rng=rng)
    train_regressor(model, features, targets, config.training)

    partitioning = LearnedPartitioning(model, scaler, grid_side, config.curve)
    predicted = partitioning.predict_cells(points)

    groups: dict[int, np.ndarray] = {}
    for cell in np.unique(predicted):
        groups[int(cell)] = np.nonzero(predicted == cell)[0]
    return partitioning, groups
