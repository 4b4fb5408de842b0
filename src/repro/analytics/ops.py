"""The unified query-operation protocol: ``QueryRequest`` → ``QueryResult``.

Point, window and kNN queries grew up as three parallel method families on
the engines, and the aggregate operators would have made it four.  Instead,
every operation now flows through one protocol:

* :class:`QueryRequest` — kind (``point``/``window``/``knn``/``aggregate``)
  plus its payload (query points, windows, ``k``, or
  :class:`AggregateSpec` list),
* ``engine.execute(request)`` — implemented by :class:`BatchQueryEngine`,
  :class:`ShardedBatchEngine` and :class:`ParallelShardEngine`,
* :class:`QueryResult` — per-op values in input order plus one
  :class:`~repro.storage.stats.AccessSummary` and the per-op latency
  attribution the engines already computed.

The constructors are the input contract: coordinates must be finite and
``k >= 1``, so engines never see a NaN query or a non-positive ``k``.

:class:`AggregateSpec` also owns the push-down mechanics for its operator:
``new_partial()`` / ``fold(partial, points)`` / ``finalize(partial)``, so
blocks, shards and serving workers all aggregate through the exact same
code.  :func:`exact_aggregate` is the independent brute-force reference the
oracle and the differential tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analytics.attributes import attribute_values
from repro.analytics.partials import (
    DEFAULT_QUANTILE_CAPACITY,
    make_partial,
)
from repro.geometry import Rect
from repro.storage.stats import AccessSummary

__all__ = [
    "AGGREGATE_OPS",
    "OPERATOR_KINDS",
    "AggregateSpec",
    "AggregateOutcome",
    "QueryRequest",
    "QueryResult",
    "exact_aggregate",
    "quantile_rank_distance",
]

#: the aggregate operators the engines push down to blocks
AGGREGATE_OPS = ("count", "sum", "mean", "quantile", "top-k")

#: every operation kind that flows through ``engine.execute``
OPERATOR_KINDS = ("point", "window", "knn", "aggregate")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate operation: an operator applied over a window."""

    op: str
    window: Rect
    #: quantile fraction in [0, 1] (``quantile`` only)
    q: float = 0.5
    #: result size (``top-k`` only)
    k: int = 1
    #: keys the derived attribute column (see :mod:`repro.analytics.attributes`)
    attribute_seed: int = 0
    #: retained-value budget of the quantile sketch
    quantile_capacity: int = DEFAULT_QUANTILE_CAPACITY

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise ValueError(
                f"unknown aggregate op {self.op!r}; expected one of {AGGREGATE_OPS}"
            )
        if not isinstance(self.window, Rect):
            raise TypeError("aggregate window must be a Rect")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("quantile fraction q must be in [0, 1]")
        if self.k < 1:
            raise ValueError("top-k needs k >= 1")

    # -- push-down mechanics --------------------------------------------
    def new_partial(self):
        """A fresh empty partial for this operator."""
        return make_partial(self.op, k=self.k, capacity=self.quantile_capacity)

    def fold(self, partial, points):
        """Fold the window-filtered ``points`` (n, 2) into ``partial``."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if pts.shape[0] == 0:
            return partial
        return partial.fold(pts, attribute_values(pts, self.attribute_seed))

    def finalize(self, partial) -> "AggregateOutcome":
        """Turn a fully merged partial into this operator's outcome."""
        if self.op == "count":
            return AggregateOutcome(self.op, partial.count, float(partial.count))
        if self.op == "sum":
            return AggregateOutcome(self.op, partial.count, partial.total)
        if self.op == "mean":
            value = partial.total / partial.count if partial.count else 0.0
            return AggregateOutcome(self.op, partial.count, value)
        if self.op == "quantile":
            return AggregateOutcome(
                self.op,
                partial.count,
                partial.quantile(self.q),
                max_rank_error=partial.max_rank_error,
            )
        items = tuple(tuple(row) for row in partial.top_items())
        return AggregateOutcome(self.op, partial.count, None, items=items)


@dataclass(frozen=True)
class AggregateOutcome:
    """The O(1)-sized answer of one aggregate operation."""

    op: str
    #: number of points the operator saw inside the window
    count: int
    #: scalar answer (count/sum/mean/quantile); None for top-k and for a
    #: quantile over an empty window
    value: float | None
    #: ``top-k`` rows ``(value, x, y)`` best-first; None for scalar ops
    items: tuple[tuple[float, float, float], ...] | None = None
    #: self-reported worst-case rank error (quantile only, 0 = exact)
    max_rank_error: int = 0


class QueryRequest:
    """One batched operation: a kind plus its payload.

    Build with the classmethods — they normalise payloads (point arrays to
    float64 ``(n, 2)``, window/spec sequences to tuples) and reject
    non-finite coordinates, so engines can consume them without
    re-validation.
    """

    __slots__ = ("kind", "points", "windows", "k", "aggregates")

    def __init__(self, kind, points=None, windows=None, k=1, aggregates=None):
        if kind not in OPERATOR_KINDS:
            raise ValueError(
                f"unknown operation kind {kind!r}; expected one of {OPERATOR_KINDS}"
            )
        self.kind = kind
        self.points = points
        self.windows = windows
        self.k = k
        self.aggregates = aggregates

    @classmethod
    def for_points(cls, points) -> "QueryRequest":
        return cls("point", points=_finite_points("point", points))

    @classmethod
    def for_windows(cls, windows: Sequence[Rect]) -> "QueryRequest":
        windows = tuple(windows)
        _require_finite_windows("window", windows)
        return cls("window", windows=windows)

    @classmethod
    def for_knn(cls, points, k: int) -> "QueryRequest":
        if k < 1:
            raise ValueError("k must be >= 1")
        return cls("knn", points=_finite_points("knn", points), k=int(k))

    @classmethod
    def for_aggregates(cls, specs: Sequence[AggregateSpec]) -> "QueryRequest":
        specs = tuple(specs)
        for spec in specs:
            if not isinstance(spec, AggregateSpec):
                raise TypeError("aggregate payload must be AggregateSpec instances")
        _require_finite_windows("aggregate", [spec.window for spec in specs])
        return cls("aggregate", aggregates=specs)

    @property
    def n_ops(self) -> int:
        if self.kind in ("point", "knn"):
            return int(self.points.shape[0])
        if self.kind == "window":
            return len(self.windows)
        return len(self.aggregates)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QueryRequest(kind={self.kind!r}, n_ops={self.n_ops})"


def _finite_points(kind: str, points) -> np.ndarray:
    """``points`` as float64 ``(n, 2)``; ValueError naming the first
    ``kind`` op with a NaN or infinite coordinate."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        op = int(bad[0])
        raise ValueError(
            f"{kind} op {op} has a non-finite coordinate: ({pts[op, 0]}, {pts[op, 1]})"
        )
    return pts


def _require_finite_windows(kind: str, windows: Sequence[Rect]) -> None:
    """ValueError naming the first ``kind`` op whose window has a NaN or
    infinite bound."""
    for op, window in enumerate(windows):
        bounds = (window.xlo, window.ylo, window.xhi, window.yhi)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"{kind} op {op} has a non-finite window: {window}")


@dataclass
class QueryResult:
    """Per-op answers plus unified accounting for one executed request."""

    kind: str
    #: one entry per op, in request order (bool / point array / outcome)
    values: list = field(default_factory=list)
    #: unified read accounting (None when the index exposes no stats)
    access: AccessSummary | None = None
    #: per-op latency percentiles for the batch
    latency: object | None = None
    #: latency attributed per shard id (sharded engines, point/window only)
    per_shard_latency: dict | None = None

    @property
    def n_ops(self) -> int:
        return len(self.values)

    #: alias: point/window/knn requests call their ops "queries"
    n_queries = n_ops

    @property
    def avg_block_accesses(self) -> float | None:
        """Logical reads per op (None without stats or on an empty batch)."""
        if self.access is None or self.access.logical_reads is None or not self.values:
            return None
        return self.access.logical_reads / len(self.values)


def exact_aggregate(spec: AggregateSpec, points) -> AggregateOutcome:
    """Brute-force reference answer of ``spec`` over the full point set.

    Scans every row of ``points``, filters by the spec's window and
    computes the operator directly (true nearest-rank quantile, full
    lexicographic top-k) — deliberately *not* through the partial-merge
    machinery, so differential tests compare two independent
    implementations.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0]:
        pts = pts[spec.window.contains_points(pts)]
    values = attribute_values(pts, spec.attribute_seed)
    count = int(values.size)
    if spec.op == "count":
        return AggregateOutcome(spec.op, count, float(count))
    if spec.op == "sum":
        return AggregateOutcome(spec.op, count, float(values.sum()) if count else 0.0)
    if spec.op == "mean":
        mean = float(values.sum()) / count if count else 0.0
        return AggregateOutcome(spec.op, count, mean)
    if spec.op == "quantile":
        if count == 0:
            return AggregateOutcome(spec.op, 0, None)
        rank = int(round(spec.q * (count - 1)))
        value = float(np.sort(values)[rank])
        return AggregateOutcome(spec.op, count, value)
    order = np.lexsort((pts[:, 1], pts[:, 0], -values))[: spec.k]
    items = tuple(
        (float(values[i]), float(pts[i, 0]), float(pts[i, 1])) for i in order
    )
    return AggregateOutcome(spec.op, count, None, items=items)


def quantile_rank_distance(value: float, sorted_values: np.ndarray, q: float) -> int:
    """How many ranks ``value`` sits from the true ``q``-quantile position.

    ``sorted_values`` is the *true* sorted attribute column of the window.
    Returns 0 when the target rank falls inside ``value``'s run of equal
    values; the distance to the nearest end of that run otherwise.  Used by
    the differential tests to check a sketch answer against its
    self-reported ``max_rank_error``.
    """
    n = int(len(sorted_values))
    if n == 0:
        return 0
    target = int(round(q * (n - 1)))
    left = int(np.searchsorted(sorted_values, value, side="left"))
    right = int(np.searchsorted(sorted_values, value, side="right")) - 1
    if right < left:
        # value absent from the true column (only possible for unsound
        # inputs): distance from the insertion point
        return abs(left - target)
    if left <= target <= right:
        return 0
    return min(abs(left - target), abs(right - target))
