"""Geometric primitives shared by all spatial indices.

The paper works in 2-dimensional Euclidean space with point data inside the
unit square (coordinates are normalised before indexing, cf. Section 6.1 of
the paper).  This package provides:

* :class:`~repro.geometry.rect.Rect` — axis-aligned rectangles used both as
  query windows and as minimum bounding rectangles (MBRs),
* distance helpers (:func:`~repro.geometry.distance.euclidean`,
  :func:`~repro.geometry.distance.mindist`) used by the kNN algorithms,
* small vectorised utilities for containment tests over NumPy point arrays.
"""

from repro.geometry.rect import Rect, mbr_of_points, require_finite_point, union_rects
from repro.geometry.distance import euclidean, euclidean_many, mindist_point_rect

__all__ = [
    "Rect",
    "mbr_of_points",
    "require_finite_point",
    "union_rects",
    "euclidean",
    "euclidean_many",
    "mindist_point_rect",
]
