"""The shadow oracle: a brute-force list-backed spatial "index".

:class:`OracleIndex` answers every query exactly by scanning its point list,
and supports the same insert/delete surface as the real indices.  Replaying a
scenario stream through it yields the ground-truth answer for every single
operation, which is what the model-based differential fuzz harness (and the
:class:`~repro.workloads.runner.ScenarioRunner`'s agreement checking) compare
the real indices against.

It is a :class:`~repro.baselines.interface.SpatialIndex` like every real
index kind, so it can also stand in as an index under test — useful for
testing the runner itself.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.attributes import attribute_values
from repro.analytics.ops import AggregateOutcome, AggregateSpec, exact_aggregate
from repro.baselines.interface import SpatialIndex
from repro.geometry import Rect, euclidean_many
from repro.workloads.pointset import LivePointSet

__all__ = ["OracleIndex"]

_EMPTY = np.empty((0, 2), dtype=float)


class OracleIndex(SpatialIndex):
    """Exact brute-force index over an in-memory point list."""

    name = "Oracle"

    def __init__(self):
        super().__init__()
        self._points = LivePointSet()

    def build(self, points: np.ndarray) -> "OracleIndex":
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        for x, y in points:
            self.insert(float(x), float(y))
        return self

    # -- contents -------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self._points)

    def points(self) -> np.ndarray:
        """The live points as an ``(n, 2)`` array (cached between mutations)."""
        return self._points.as_array()

    # -- queries --------------------------------------------------------------

    def contains(self, x: float, y: float) -> bool:
        return (float(x), float(y)) in self._points

    def window_query(self, window: Rect) -> np.ndarray:
        points = self.points()
        if points.shape[0] == 0:
            return _EMPTY.copy()
        return points[window.contains_points(points)]

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("k must be >= 1")
        points = self.points()
        if points.shape[0] == 0:
            return _EMPTY.copy()
        distances = euclidean_many((float(x), float(y)), points)
        k = min(k, points.shape[0])
        idx = np.argpartition(distances, k - 1)[:k]
        idx = idx[np.argsort(distances[idx], kind="stable")]
        return points[idx]

    def knn_distances(self, x: float, y: float, k: int) -> np.ndarray:
        """Sorted distances of the exact k nearest neighbours."""
        neighbours = self.knn_query(x, y, k)
        if neighbours.shape[0] == 0:
            return np.empty(0, dtype=float)
        return np.sort(euclidean_many((float(x), float(y)), neighbours))

    def aggregate(self, spec: AggregateSpec) -> AggregateOutcome:
        """Ground-truth aggregate over the live points (brute force)."""
        return exact_aggregate(spec, self.points())

    def window_attribute_values(self, spec: AggregateSpec) -> np.ndarray:
        """The sorted attribute column of the live points inside the window.

        The rank-error check of approximate quantiles needs the full sorted
        column, not just one true quantile value.
        """
        inside = self.window_query(spec.window)
        if inside.shape[0] == 0:
            return np.empty(0, dtype=float)
        return np.sort(attribute_values(inside, seed=spec.attribute_seed))

    # -- updates --------------------------------------------------------------

    def _insert(self, x: float, y: float) -> None:
        try:
            self._points.add((float(x), float(y)))
        except ValueError:
            raise ValueError(f"oracle already stores ({x}, {y})") from None

    def _delete(self, x: float, y: float) -> bool:
        return self._points.discard((float(x), float(y)))

    # -- metadata -------------------------------------------------------------

    def size_bytes(self) -> int:
        return 16 * self.n_points

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OracleIndex({self.n_points} points)"
