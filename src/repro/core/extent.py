"""Indexing spatial objects with non-zero extent (rectangles).

The paper indexes point data and notes (Section 7) that the learned indices
"may be applied to spatial objects with non-zero extent using query
expansion", citing the point-representation technique of Stefanakis et
al. [44] and Zhang et al. [48].  This module implements that extension:

* every rectangle is represented by its **centre point**, which is indexed in
  a regular RSMI;
* the index remembers the largest half-width and half-height seen, so a
  window (intersection) query can be answered by **expanding** the query
  window by those maxima, retrieving the candidate centres, and filtering the
  candidates' actual rectangles against the original window;
* point (stabbing) queries are windows of zero extent.

The expansion preserves the paper's "no false positives" property because the
final filter uses the true geometry; recall is inherited from the underlying
RSMI window query (use ``exact=True`` for the MBR-based exact traversal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import RSMIConfig
from repro.core.rsmi import RSMI
from repro.geometry import Rect
from repro.storage import AccessStats

__all__ = ["ExtendedObjectIndex", "rects_to_arrays"]


def rects_to_arrays(rects: list[Rect] | np.ndarray) -> np.ndarray:
    """Normalise a list of rectangles (or an ``(n, 4)`` array) to an ``(n, 4)`` array."""
    if isinstance(rects, np.ndarray):
        array = np.asarray(rects, dtype=float)
        if array.ndim != 2 or array.shape[1] != 4:
            raise ValueError("rectangle array must have shape (n, 4): xlo, ylo, xhi, yhi")
        if np.any(array[:, 0] > array[:, 2]) or np.any(array[:, 1] > array[:, 3]):
            raise ValueError("degenerate rectangles: lows must not exceed highs")
        return array
    return np.asarray([rect.as_tuple() for rect in rects], dtype=float).reshape(-1, 4)


@dataclass
class _StoredObject:
    """A rectangle plus its centre (the key under which it is indexed)."""

    rect: Rect
    center: tuple[float, float]
    deleted: bool = False


class ExtendedObjectIndex:
    """A learned index over rectangles built on top of RSMI via query expansion."""

    def __init__(self, config: Optional[RSMIConfig] = None, stats: Optional[AccessStats] = None):
        self.config = config if config is not None else RSMIConfig()
        self.stats = stats if stats is not None else AccessStats()
        self._point_index = RSMI(self.config, stats=self.stats)
        #: centre (rounded) -> stored objects with that centre
        self._objects: dict[tuple[float, float], list[_StoredObject]] = {}
        self.max_half_width = 0.0
        self.max_half_height = 0.0
        self._n_objects = 0

    # -- construction -------------------------------------------------------------

    def build(self, rects: list[Rect] | np.ndarray) -> "ExtendedObjectIndex":
        """Bulk-build the index over a collection of rectangles."""
        array = rects_to_arrays(rects)
        if array.shape[0] == 0:
            raise ValueError("cannot build an index over an empty object set")
        centers = np.column_stack(
            [(array[:, 0] + array[:, 2]) / 2.0, (array[:, 1] + array[:, 3]) / 2.0]
        )
        self._objects = {}
        self._n_objects = 0
        self.max_half_width = 0.0
        self.max_half_height = 0.0
        for row, (cx, cy) in zip(array, centers):
            self._register(Rect(*row), (float(cx), float(cy)))
        # duplicate centres are legal for objects: the point index only needs the
        # distinct centres (the object table holds the rest)
        distinct_centers = np.unique(np.round(centers, 12), axis=0)
        self._point_index.build(distinct_centers)
        return self

    def _register(self, rect: Rect, center: tuple[float, float]) -> None:
        key = self._key(center)
        self._objects.setdefault(key, []).append(_StoredObject(rect=rect, center=center))
        self.max_half_width = max(self.max_half_width, rect.width / 2.0)
        self.max_half_height = max(self.max_half_height, rect.height / 2.0)
        self._n_objects += 1

    @staticmethod
    def _key(center: tuple[float, float]) -> tuple[float, float]:
        return (round(center[0], 12), round(center[1], 12))

    # -- queries -------------------------------------------------------------------

    def window_query(self, window: Rect, exact: bool = False) -> list[Rect]:
        """All stored rectangles intersecting ``window``.

        The query window is expanded by the largest half-extents before being
        run against the centre-point index; the candidates are then filtered
        with an exact geometric intersection test, so the answer never
        contains false positives.
        """
        expanded = Rect(
            window.xlo - self.max_half_width,
            window.ylo - self.max_half_height,
            window.xhi + self.max_half_width,
            window.yhi + self.max_half_height,
        )
        if exact:
            candidates = self._point_index.window_query_exact(expanded).points
        else:
            candidates = self._point_index.window_query(expanded)
        results: list[Rect] = []
        for cx, cy in np.asarray(candidates).reshape(-1, 2):
            for stored in self._objects.get(self._key((float(cx), float(cy))), []):
                if not stored.deleted and window.intersects(stored.rect):
                    results.append(stored.rect)
        return results

    def stabbing_query(self, x: float, y: float, exact: bool = False) -> list[Rect]:
        """All stored rectangles containing the point ``(x, y)``."""
        return self.window_query(Rect(x, y, x, y), exact=exact)

    def knn_query(self, x: float, y: float, k: int, exact: bool = False) -> list[Rect]:
        """The ``k`` rectangles whose centres are nearest to ``(x, y)``.

        Centre distance is the standard point-representation approximation for
        extended objects; an application needing true object distance can
        re-rank the (small) result set.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if exact:
            nearest = self._point_index.knn_query_exact(x, y, k).points
        else:
            nearest = self._point_index.knn_query(x, y, k)
        rects: list[Rect] = []
        for cx, cy in nearest:
            for stored in self._objects.get(self._key((float(cx), float(cy))), []):
                if not stored.deleted:
                    rects.append(stored.rect)
        return rects[:k]

    # -- updates --------------------------------------------------------------------

    def insert(self, rect: Rect) -> None:
        """Insert one rectangle (its centre is inserted into the point index)."""
        center = rect.center
        key = self._key(center)
        is_new_center = key not in self._objects or all(
            stored.deleted for stored in self._objects[key]
        )
        self._register(rect, center)
        if is_new_center:
            self._point_index.insert(*center)

    def delete(self, rect: Rect) -> bool:
        """Delete one stored rectangle equal to ``rect``; returns True on success."""
        key = self._key(rect.center)
        for stored in self._objects.get(key, []):
            if not stored.deleted and stored.rect == rect:
                stored.deleted = True
                self._n_objects -= 1
                if all(other.deleted for other in self._objects[key]):
                    self._point_index.delete(*rect.center)
                return True
        return False

    # -- accounting -------------------------------------------------------------------

    @property
    def n_objects(self) -> int:
        """Number of live rectangles stored."""
        return self._n_objects

    def size_bytes(self) -> int:
        """Underlying point index plus the object table (4 floats + flags per object)."""
        table = sum(len(objects) for objects in self._objects.values()) * 40
        return self._point_index.size_bytes() + table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExtendedObjectIndex(objects={self.n_objects}, "
            f"max_extent=({self.max_half_width:.4f}, {self.max_half_height:.4f}))"
        )
