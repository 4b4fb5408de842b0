"""Mergeable partial-aggregate state.

Push-down aggregation never ships point sets upward: each index folds the
rows its window answer holds into a small **partial** — one fold per spec
per index, so a sharded aggregate folds once per spec per shard — and
partials merge pairwise on the way up: shard → router → process boundary.
Three shapes cover the five operators:

* :class:`CountSumPartial` — ``count``/``sum``/``mean``.  ``count`` folds
  row counts only (no attribute column is computed for it).  Attributes
  are exact multiples of 2^-20 (:mod:`repro.analytics.attributes`), so
  sums are exact in float64 and **merge order cannot change the answer** —
  the differential tests demand bit-exact agreement with the brute-force
  oracle across every merge topology.
* :class:`QuantileSummary` — a deterministic mergeable quantile sketch:
  sorted values with one power-of-two weight, halved (keep every other
  element, alternating parity) whenever the summary outgrows its capacity.
  Unlike :class:`repro.workloads.latency.PercentileSketch` (reservoir
  sampling, not mergeable) it merges associatively and **tracks its own
  worst-case rank error** (``max_rank_error``): every compaction of a
  weight-``w`` summary perturbs any rank by at most ``w``, and the bound
  accumulates additively across merges.  The quantile contract: over at
  most ``capacity`` folded values it is exact (``max_rank_error`` 0);
  above that the answer depends on the fold/merge schedule (one fold per
  shard, merged in shard-id order) but stays within ``max_rank_error``
  ranks of the exact quantile.
* :class:`TopKPartial` — the ``k`` largest attribute values, with the
  deterministic tie-break ``(-value, x, y)`` so every merge order and the
  oracle produce the identical item list.

All three are plain picklable objects — :class:`ParallelShardEngine` ships
them across the process boundary instead of result point sets.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_QUANTILE_CAPACITY",
    "CountSumPartial",
    "QuantileSummary",
    "TopKPartial",
    "make_partial",
]

#: retained-value budget of a QuantileSummary (exact below this many points)
DEFAULT_QUANTILE_CAPACITY = 512


class CountSumPartial:
    """Count and exact attribute sum of the points folded so far."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def fold(self, points, values=None) -> "CountSumPartial":
        """Count the rows of ``points`` and add their attribute ``values``
        to the total; ``count`` passes no values and leaves the total."""
        self.count += len(points)
        if values is not None and values.size:
            # attributes are multiples of 2^-20, so this sum is exact in
            # float64 for any realistic count — order independent by design
            self.total += float(values.sum())
        return self

    def merge(self, other: "CountSumPartial") -> "CountSumPartial":
        self.count += other.count
        self.total += other.total
        return self

    def __getstate__(self):
        return (self.count, self.total)

    def __setstate__(self, state):
        self.count, self.total = state


class QuantileSummary:
    """Deterministic mergeable quantile sketch with a tracked rank bound."""

    __slots__ = ("capacity", "values", "weight", "count", "error_bound", "_parity")

    def __init__(self, capacity: int = DEFAULT_QUANTILE_CAPACITY) -> None:
        if capacity < 8:
            raise ValueError("quantile summary capacity must be >= 8")
        self.capacity = int(capacity)
        self.values = np.empty(0, dtype=np.float64)
        #: every retained value stands for ``weight`` stream values
        self.weight = 1
        #: exact number of stream values folded in (never approximated)
        self.count = 0
        #: cumulative worst-case rank error from compactions
        self.error_bound = 0
        self._parity = 0

    # -- construction ----------------------------------------------------
    def fold(self, points, values) -> "QuantileSummary":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return self
        fresh = QuantileSummary(self.capacity)
        fresh.values = np.sort(values)
        fresh.count = int(values.size)
        while fresh.values.size > fresh.capacity:
            fresh._compact()
        return self.merge(fresh)

    def _compact(self) -> None:
        """Halve the summary: keep every other value, double the weight.

        Dropping alternate elements of a sorted run of weight-``w`` values
        shifts any estimated rank by at most ``w`` — that is the increment
        added to :attr:`error_bound`.  The surviving parity alternates so
        repeated compactions do not systematically bias one tail.
        """
        self.error_bound += self.weight
        if self.values.size > 1:
            self.values = self.values[self._parity :: 2]
            self._parity ^= 1
        self.weight *= 2

    def merge(self, other: "QuantileSummary") -> "QuantileSummary":
        if other.count == 0:
            return self
        if self.count == 0:
            self.values = other.values.copy()
            self.weight = other.weight
            self.count = other.count
            self.error_bound = other.error_bound
            self._parity = other._parity
            return self
        while self.weight < other.weight:
            self._compact()
        # align the (logically copied) other summary up to our weight
        values, weight, error, parity = (
            other.values,
            other.weight,
            other.error_bound,
            other._parity,
        )
        while weight < self.weight:
            error += weight
            if values.size > 1:
                values = values[parity::2]
                parity ^= 1
            weight *= 2
        self.values = np.sort(np.concatenate([self.values, values]))
        self.count += other.count
        self.error_bound += error
        while self.values.size > self.capacity:
            self._compact()
        return self

    # -- answers ---------------------------------------------------------
    @property
    def max_rank_error(self) -> int:
        """Worst-case |true rank − target rank| of :meth:`quantile`'s answer.

        ``error_bound`` covers every compaction; ``weight - 1`` covers the
        final index rounding (each retained value spans ``weight``
        consecutive stream ranks, so an uncompacted weight-1 summary is
        exact and reports 0).
        """
        return self.error_bound + self.weight - 1

    def quantile(self, q: float) -> float | None:
        """The value whose rank is closest to ``q * (count - 1)``."""
        if self.count == 0 or self.values.size == 0:
            return None
        target = float(q) * (self.count - 1)
        index = int(round((target - (self.weight - 1) / 2.0) / self.weight))
        index = min(max(index, 0), self.values.size - 1)
        return float(self.values[index])

    def __getstate__(self):
        return (
            self.capacity,
            self.values,
            self.weight,
            self.count,
            self.error_bound,
            self._parity,
        )

    def __setstate__(self, state):
        (
            self.capacity,
            self.values,
            self.weight,
            self.count,
            self.error_bound,
            self._parity,
        ) = state


class TopKPartial:
    """The ``k`` largest attribute values seen so far, with their points.

    Items order (and survive truncation) by ``(-value, x, y)`` — a total
    order over distinct points — so any merge schedule yields the same
    list the brute-force oracle computes.
    """

    __slots__ = ("k", "items", "count")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("top-k needs k >= 1")
        self.k = int(k)
        self.items: list[tuple[float, float, float]] = []
        #: exact number of folded stream values (not just the retained k)
        self.count = 0

    def fold(self, points, values) -> "TopKPartial":
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return self
        self.count += int(values.size)
        # the fold's own k best under the oracle's order, before any tuple
        best = np.lexsort((pts[:, 1], pts[:, 0], -values))[: self.k]
        self.items.extend(
            zip((-values[best]).tolist(), pts[best, 0].tolist(), pts[best, 1].tolist())
        )
        self.items.sort()
        del self.items[self.k :]
        return self

    def merge(self, other: "TopKPartial") -> "TopKPartial":
        self.count += other.count
        self.items.extend(other.items)
        self.items.sort()
        del self.items[self.k :]
        return self

    def top_items(self) -> np.ndarray:
        """``(m, 3)`` array of ``[value, x, y]`` rows, best first (m <= k)."""
        if not self.items:
            return np.empty((0, 3), dtype=np.float64)
        return np.array([(-nv, x, y) for nv, x, y in self.items], dtype=np.float64)

    def __getstate__(self):
        return (self.k, self.items, self.count)

    def __setstate__(self, state):
        self.k, self.items, self.count = state


def make_partial(op: str, *, k: int = 1, capacity: int = DEFAULT_QUANTILE_CAPACITY):
    """A fresh, empty partial for aggregate operator ``op``."""
    if op in ("count", "sum", "mean"):
        return CountSumPartial()
    if op == "quantile":
        return QuantileSummary(capacity)
    if op == "top-k":
        return TopKPartial(k)
    raise ValueError(f"unknown aggregate operator: {op!r}")
