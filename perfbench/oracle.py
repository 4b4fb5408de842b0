"""Brute-force NumPy oracle the benchmark checks every answer against.

The oracle holds the live point set as a plain array and answers by full
scans, sharing no code with the library under test.  It also carries its
own copy of the aggregate attribute column: the library documents the
attribute as a SplitMix64 mix of the two float64 bit patterns, quantised to
20 fractional bits, and this module recomputes it independently.

:meth:`Oracle.check` compares one operation's answer with the oracle and returns
``(failed, recall)``: ``failed`` is True for an exact-promise mismatch (a
point lookup or delete outcome) or a soundness violation (a returned point
the oracle does not hold, or an aggregate that claims more than exists);
``recall`` is the share of the true answer returned, for windows and kNN
(None for other kinds).
"""

from __future__ import annotations

import numpy as np

from inputs import AGGREGATE_OPS, KNN_K, TOP_K, LivePoints

__all__ = ["Oracle", "attribute_values"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_FRACTION_BITS = 20


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def attribute_values(points: np.ndarray, seed: int = 0) -> np.ndarray:
    """The aggregate attribute of every row of ``points``."""
    pts = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    bits_x = np.ascontiguousarray(pts[:, 0]).view(np.uint64)
    bits_y = np.ascontiguousarray(pts[:, 1]).view(np.uint64)
    with np.errstate(over="ignore"):
        key = np.uint64(np.uint64(seed) * _GOLDEN)
        mixed = _splitmix(_splitmix(bits_x ^ key) ^ bits_y)
    return (mixed >> np.uint64(64 - _FRACTION_BITS)).astype(np.float64) / float(
        1 << _FRACTION_BITS
    )


def _inside(points: np.ndarray, row: np.ndarray) -> np.ndarray:
    xlo, ylo, xhi, yhi = row[:4]
    return (
        (points[:, 0] >= xlo) & (points[:, 0] <= xhi)
        & (points[:, 1] >= ylo) & (points[:, 1] <= yhi)
    )


class Oracle:
    """The live point set, answered by full scans."""

    def __init__(self, points: np.ndarray):
        self._live = LivePoints(points)

    def live(self) -> np.ndarray:
        return self._live.array()

    def holds(self, x: float, y: float) -> bool:
        return (x, y) in self._live

    def apply(self, kind: str, row: np.ndarray) -> bool:
        """Apply a write; returns whether a delete removed a point."""
        key = (float(row[0]), float(row[1]))
        if kind == "insert":
            self._live.add(key)
            return True
        return kind == "delete" and self._live.remove(key)

    # -- checks --------------------------------------------------------------

    def _all_held(self, points: np.ndarray) -> bool:
        return all((x, y) in self._live for x, y in np.asarray(points).tolist())

    def check(self, kind: str, row: np.ndarray, answer) -> tuple[bool, float | None]:
        """Check one op's answer and apply it when it is a write."""
        x, y = float(row[0]), float(row[1])
        if kind == "point":
            return bool(answer) != self.holds(x, y), None
        if kind == "insert":
            self.apply(kind, row)
            return False, None
        if kind == "delete":
            return bool(answer) != self.apply(kind, row), None
        if kind == "window":
            return self._check_window(row, answer)
        if kind == "knn":
            return self._check_knn(x, y, answer)
        return self._check_aggregate(row, answer), None

    def _check_window(self, row, answer):
        got = np.asarray(answer, dtype=float).reshape(-1, 2)
        live = self.live()
        truth = live[_inside(live, row)]
        if got.shape[0] and (not _inside(got, row).all() or not self._all_held(got)):
            return True, None
        got_keys = set(map(tuple, got.tolist()))
        if len(got_keys) != got.shape[0]:
            return True, None
        if truth.shape[0] == 0:
            return False, 1.0
        return False, len(got_keys) / truth.shape[0]

    def _check_knn(self, x, y, answer):
        got = np.asarray(answer, dtype=float).reshape(-1, 2)
        if got.shape[0] > KNN_K or not self._all_held(got):
            return True, None
        if len(set(map(tuple, got.tolist()))) != got.shape[0]:
            return True, None
        live = self.live()
        want = min(KNN_K, live.shape[0])
        if want == 0:
            return False, 1.0
        distances = np.hypot(live[:, 0] - x, live[:, 1] - y)
        kth = np.partition(distances, want - 1)[want - 1]
        got_distances = np.hypot(got[:, 0] - x, got[:, 1] - y)
        return False, int(np.count_nonzero(got_distances <= kth)) / want

    def _check_aggregate(self, row, outcome) -> bool:
        """Soundness of an approximate-index aggregate: it may miss points,
        never invent them."""
        op = AGGREGATE_OPS[int(row[4])]
        live = self.live()
        inside = live[_inside(live, row)]
        values = attribute_values(inside)
        count = int(outcome.count)
        if count > inside.shape[0]:
            return True
        if op == "count":
            return outcome.value != float(count)
        if op == "sum":
            return not 0.0 <= outcome.value <= float(values.sum())
        if op == "mean":
            return not 0.0 <= outcome.value < 1.0
        if op == "quantile":
            if count == 0:
                return outcome.value is not None
            return outcome.value not in set(values.tolist())
        if len(outcome.items) != min(TOP_K, count):
            return True
        for value, px, py in outcome.items:
            if not self.holds(px, py) or not _inside(np.asarray([[px, py]]), row)[0]:
                return True
            if attribute_values(np.asarray([[px, py]]))[0] != value:
                return True
        return False
