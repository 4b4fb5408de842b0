"""Result records returned by the RSMI query algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PointQueryResult", "WindowQueryResult", "KNNQueryResult"]


@dataclass
class PointQueryResult:
    """Outcome of a point query (Algorithm 1).

    Attributes
    ----------
    found:
        True when a stored point with the query coordinates exists.
    block_id:
        Id of the block holding the point (``None`` when not found).
    position:
        Curve-order position of the base block whose chain holds the point.
    predicted_position:
        The leaf model's (clamped) predicted base-block position.
    depth:
        Number of sub-models invoked to reach the leaf (the paper's "depth").
    blocks_scanned:
        Number of data blocks examined while searching the error range.
    scan_begin / scan_end:
        The inclusive base-block position range the query searched: the
        leaf's error range around the prediction,
        ``leaf.scan_range(x, y)``.  Set whether or not the point was found,
        so the window query can bound an unlocated corner without a second
        descent.
    """

    found: bool
    block_id: int | None = None
    position: int | None = None
    predicted_position: int | None = None
    depth: int = 0
    blocks_scanned: int = 0
    scan_begin: int | None = None
    scan_end: int | None = None


@dataclass
class WindowQueryResult:
    """Outcome of a window query (Algorithm 2 or the exact RSMIa traversal).

    ``scan_begin``/``scan_end`` are the inclusive base-block position range
    Algorithm 2 scanned (``None`` for the exact traversal).
    """

    points: np.ndarray
    blocks_scanned: int = 0
    scan_begin: int | None = None
    scan_end: int | None = None
    exact: bool = False

    @property
    def count(self) -> int:
        return int(self.points.shape[0])


@dataclass
class KNNQueryResult:
    """Outcome of a kNN query (Algorithm 3 or the exact best-first traversal)."""

    points: np.ndarray
    distances: np.ndarray
    blocks_scanned: int = 0
    expansions: int = 0
    exact: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return int(self.points.shape[0])
