"""Piecewise mapping function (PMF) approximation of a one-dimensional CDF.

The approximate kNN algorithm (paper Section 4.3) sizes its initial search
region with skew parameters ``αx`` and ``αy`` derived from the slope of the
per-dimension cumulative distribution functions at the query point.  Because
evaluating the exact CDF is expensive, the paper approximates it with a
piecewise linear mapping function built from ``γ`` equal-count partitions
(``γ = 100`` in the experiments).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = ["PiecewiseMappingFunction"]


class PiecewiseMappingFunction:
    """Piecewise-linear approximation of the CDF of a 1-D sample."""

    def __init__(self, values: np.ndarray, n_partitions: int = 100):
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("cannot build a PMF from an empty sample")
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.n_partitions = int(min(n_partitions, values.size))
        self.n_values = int(values.size)
        sorted_values = np.sort(values)
        # boundary i sits at the (i / n_partitions)-quantile of the sample;
        # the first boundary is the minimum and the last is the maximum.
        # Both tables are Python float lists: a kNN query evaluates the PMF
        # a few times, and NumPy's per-call overhead would dominate a lookup.
        quantile_idx = np.linspace(0, values.size - 1, self.n_partitions + 1).astype(int)
        #: ``n_partitions + 1`` sample quantiles, ascending
        self.boundaries: list[float] = sorted_values[quantile_idx].tolist()
        #: the CDF value at each boundary
        self.cumulative: list[float] = (
            quantile_idx.astype(float) / max(values.size - 1, 1)
        ).tolist()

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, value: float) -> float:
        """Approximate CDF value, clamped to ``[0, 1]``."""
        boundaries = self.boundaries
        if value <= boundaries[0]:
            return 0.0
        if value >= boundaries[-1]:
            return 1.0
        idx = min(bisect_right(boundaries, value) - 1, len(boundaries) - 2)
        lo, hi = boundaries[idx], boundaries[idx + 1]
        clo, chi = self.cumulative[idx], self.cumulative[idx + 1]
        if hi == lo:
            return float(chi)
        fraction = (value - lo) / (hi - lo)
        return float(clo + fraction * (chi - clo))

    def slope(self, value: float, delta: float = 0.01) -> float:
        """Estimated CDF slope (density) over ``[value, value + delta]``."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        rise = self.evaluate(value + delta) - self.evaluate(value)
        return rise / delta

    def skew_parameter(self, value: float, delta: float = 0.01) -> float:
        """The paper's α estimate at ``value`` (Equation 6).

        ``α = Δ / (CDF(value + Δ) − CDF(value))``.  A flat region (no data in
        ``[value, value + Δ]``) yields an unbounded α; it is clamped to the
        span of the sample so the initial kNN search region stays finite.
        """
        rise = self.evaluate(value + delta) - self.evaluate(value)
        span = self.boundaries[-1] - self.boundaries[0]
        max_alpha = max(span, 1.0) / max(delta, 1e-12)
        if rise <= 0:
            return max_alpha
        return float(min(delta / rise, max_alpha))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseMappingFunction(partitions={self.n_partitions}, "
            f"values={self.n_values})"
        )
