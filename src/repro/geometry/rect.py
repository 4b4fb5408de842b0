"""Axis-aligned rectangles (query windows and MBRs)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["Rect", "mbr_of_points", "require_finite_point", "union_rects"]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]``.

    Rectangles are closed on all sides, matching the usual convention for
    both window queries and minimum bounding rectangles: a point lying
    exactly on the border is considered covered.
    """

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise ValueError(
                f"degenerate rectangle: ({self.xlo}, {self.ylo}, {self.xhi}, {self.yhi})"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "Rect":
        """Build a rectangle from its center point and side lengths."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return cls(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    @classmethod
    def unit(cls) -> "Rect":
        """The unit square ``[0, 1] x [0, 1]`` used as the default data space."""
        return cls(0.0, 0.0, 1.0, 1.0)

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    @property
    def corners(self) -> list[tuple[float, float]]:
        """The four corners: bottom-left, bottom-right, top-left, top-right."""
        return [
            (self.xlo, self.ylo),
            (self.xhi, self.ylo),
            (self.xlo, self.yhi),
            (self.xhi, self.yhi),
        ]

    # -- predicates --------------------------------------------------------

    def contains_point(self, x: float, y: float) -> bool:
        return self.xlo <= x <= self.xhi and self.ylo <= y <= self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and self.xhi >= other.xhi
            and self.yhi >= other.yhi
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xlo > self.xhi
            or other.xhi < self.xlo
            or other.ylo > self.yhi
            or other.yhi < self.ylo
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.xlo, other.xlo),
            max(self.ylo, other.ylo),
            min(self.xhi, other.xhi),
            min(self.yhi, other.yhi),
        )

    # -- combination -------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    def expand_to_point(self, x: float, y: float) -> "Rect":
        return Rect(
            min(self.xlo, x), min(self.ylo, y), max(self.xhi, x), max(self.yhi, y)
        )

    def clip_to(self, other: "Rect") -> "Rect":
        """Clip this rectangle so it lies inside ``other`` (must overlap)."""
        clipped = self.intersection(other)
        if clipped is None:
            raise ValueError("cannot clip: rectangles are disjoint")
        return clipped

    # -- vectorised helpers -------------------------------------------------

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows of ``points`` (shape ``(n, 2)``) inside the rect."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        return (
            (points[:, 0] >= self.xlo)
            & (points[:, 0] <= self.xhi)
            & (points[:, 1] >= self.ylo)
            & (points[:, 1] <= self.yhi)
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xlo, self.ylo, self.xhi, self.yhi)


def mbr_of_points(points: np.ndarray) -> Rect:
    """The minimum bounding rectangle of a non-empty ``(n, 2)`` point array."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ValueError("cannot compute the MBR of an empty point set")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    return Rect(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def union_rects(rects: Iterable[Rect] | Sequence[Rect]) -> Rect:
    """The MBR covering every rectangle in ``rects`` (must be non-empty)."""
    rects = list(rects)
    if not rects:
        raise ValueError("cannot union an empty collection of rectangles")
    result = rects[0]
    for rect in rects[1:]:
        result = result.union(rect)
    return result


def require_finite_point(x: float, y: float) -> None:
    """Raise ``ValueError`` naming ``(x, y)`` unless both coordinates are finite.

    The write-input contract: every index's ``insert``/``delete`` (and the
    sharded and durable wrappers, before they route or log) rejects NaN and
    infinite coordinates here, so a bad point never reaches a block or a WAL.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
