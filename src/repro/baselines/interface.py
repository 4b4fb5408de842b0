"""The one protocol every index kind implements.

RSMI, RSMIa and the baselines (Grid, KDB, HRR, RR*, ZM) all subclass
:class:`SpatialIndex`, so the engines, the experiment runner and the sweeps
drive every kind with identical code and plain NumPy return values.  What
differs between kinds is declared, not probed: ``supports_exact_results``
says whether window/kNN answers are exact, and :meth:`extra_metrics` carries
the kind's own build metadata.

``insert`` and ``delete`` are the write entry point of every kind: they
enforce the write-input contract (finite coordinates) once, then call the
kind's ``_insert``/``_delete``.

Every tree baseline routes its storage accesses through one
:class:`~repro.storage.paged.NodePager` (created here), so the shared
:class:`~repro.storage.stats.AccessStats` counters and the optional
:class:`~repro.storage.page_cache.PageCache` sit on a single seam instead of
being bumped inline all over the query code.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.geometry import Rect, require_finite_point
from repro.storage import AccessStats, NodePager, PageCache

__all__ = ["SpatialIndex"]


class SpatialIndex(abc.ABC):
    """Abstract base class of every index kind."""

    #: short display name used in experiment tables ("Grid", "KDB", ...)
    name: str = "abstract"

    #: True when window/kNN answers are exact (full recall, no false
    #: positives); learned indices with approximate traversal override this
    supports_exact_results: bool = True

    #: True when the index reports concrete stored points (so the derived
    #: attribute column — and with it sum/mean/quantile/top-k aggregates —
    #: can be computed from its answers)
    supports_attributes: bool = True

    def __init__(
        self, stats: Optional[AccessStats] = None, cache: Optional[PageCache] = None
    ):
        self.stats = stats if stats is not None else AccessStats()
        #: the paged-access façade every read/write goes through
        self.pager = NodePager(self.stats, cache)

    @property
    def cache(self) -> Optional[PageCache]:
        """The attached page cache, or None when reads are uncached."""
        return self.pager.cache

    def attach_cache(self, cache: Optional[PageCache]) -> None:
        """Route all subsequent reads through ``cache`` (None detaches)."""
        self.pager.attach_cache(cache)

    # -- lifecycle ----------------------------------------------------------------

    @abc.abstractmethod
    def build(self, points: np.ndarray) -> "SpatialIndex":
        """Bulk-build the index over an ``(n, 2)`` point array; returns ``self``."""

    # -- queries ------------------------------------------------------------------

    @abc.abstractmethod
    def contains(self, x: float, y: float) -> bool:
        """True when a point with exactly these coordinates is stored."""

    @abc.abstractmethod
    def window_query(self, window: Rect) -> np.ndarray:
        """All stored points inside ``window`` as an ``(m, 2)`` array."""

    @abc.abstractmethod
    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """The ``k`` stored points nearest to ``(x, y)``, ordered by distance."""

    # -- updates ------------------------------------------------------------------

    def insert(self, x: float, y: float) -> None:
        """Insert a new point; non-finite coordinates raise ``ValueError``."""
        require_finite_point(x, y)
        self._insert(x, y)

    def delete(self, x: float, y: float) -> bool:
        """Delete a stored point; returns True when a point was removed.

        Non-finite coordinates raise ``ValueError``.
        """
        require_finite_point(x, y)
        return self._delete(x, y)

    @abc.abstractmethod
    def _insert(self, x: float, y: float) -> None:
        """Insert a new point (coordinates already checked)."""

    @abc.abstractmethod
    def _delete(self, x: float, y: float) -> bool:
        """Delete a stored point (coordinates already checked)."""

    # -- accounting ----------------------------------------------------------------

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Approximate index size in bytes (structure plus stored data)."""

    @property
    @abc.abstractmethod
    def n_points(self) -> int:
        """Number of live points currently stored."""

    def extra_metrics(self) -> dict:
        """Kind-specific build metadata (height, model count, error bounds)."""
        return {}

    # -- helpers shared by implementations -------------------------------------------

    @staticmethod
    def _validate_points(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if points.shape[0] == 0:
            raise ValueError("cannot build an index over an empty point set")
        return points

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(points={self.n_points})"
