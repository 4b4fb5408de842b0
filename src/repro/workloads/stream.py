"""Seeded operation-stream generation from a :class:`ScenarioSpec`.

The generator turns a declarative spec into a concrete, fully deterministic
list of :class:`Operation` records.  It maintains a *mirror* of the live
point set while generating (insertions add to it, deletions pick victims
from it), so deletion targets are real stored points and the same stream is
meaningful for every index that replays it — the property the differential
fuzz harness relies on: one stream, many indices, one oracle.

The mirror also means stream generation never consults an index; two indices
replaying the same stream therefore receive byte-identical operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analytics.ops import AggregateSpec, QueryRequest
from repro.geometry import Rect
from repro.workloads.pointset import LivePointSet
from repro.workloads.spec import OPERATION_KINDS, ScenarioSpec

__all__ = ["Operation", "generate_operations", "generate_arrival_schedule", "read_requests"]


@dataclass(frozen=True)
class Operation:
    """One operation of a scenario stream.

    ``x``/``y`` carry the key for point/knn/insert/delete operations (and the
    window centre for window operations); ``window`` is set for window
    queries only and ``k`` for kNN queries only.  ``arrival_time`` is the
    operation's virtual arrival instant in seconds (the open-loop schedule;
    0.0 under closed-loop, where arrivals are completion-driven), and
    ``tenant`` identifies the originating stream of a multi-tenant merge.
    """

    kind: str
    x: float
    y: float
    window: Optional[Rect] = None
    k: int = 0
    arrival_time: float = 0.0
    tenant: int = 0
    #: the full aggregate operation (``aggregate`` kind only)
    agg: Optional[AggregateSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in OPERATION_KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "aggregate" and self.agg is None:
            raise ValueError("aggregate operations must carry an AggregateSpec")


class _StreamState:
    """Mutable generation state: RNG, live mirror, hot region and burst run.

    The mirror (a :class:`LivePointSet`) models the stored point set while
    generating: insertions add to it, deletion victims come from it.
    """

    def __init__(self, spec: ScenarioSpec, initial_points: np.ndarray):
        self.spec = spec
        # keyed seed sequence: decorrelates the stream from a data set that
        # was generated with default_rng(spec.seed) — with a bare seed the
        # two generators emit the *same* float stream, so every "fresh" key
        # drawn would collide with a stored point and saturate the retry loop
        self.rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x5CE9A)))
        self.mirror = LivePointSet(initial_points)
        self.space = spec.data_space
        self.probabilities = np.asarray(spec.mix.probabilities())
        # a zero aggregate weight keeps the historical five-kind draw — the
        # RNG consumes exactly the same variates, so pre-analytics streams
        # (and the committed benchmark baselines built on them) are
        # byte-identical
        self._n_kinds = 5 if spec.mix.aggregate == 0 else len(OPERATION_KINDS)
        self.hot_region: Optional[Rect] = None
        if spec.distribution in ("hotspot", "bulk-churn"):
            self.hot_region = self._place_hot_region()
        self._burst_kind: Optional[str] = None
        self._burst_remaining = 0

    # -- hot-region handling --------------------------------------------------

    def _place_hot_region(self, center: Optional[tuple[float, float]] = None) -> Rect:
        space = self.space
        if center is None:
            center = (
                space.xlo + float(self.rng.random()) * space.width,
                space.ylo + float(self.rng.random()) * space.height,
            )
        width = self.spec.hotspot_extent * space.width
        height = self.spec.hotspot_extent * space.height
        return Rect.from_center(center[0], center[1], width, height).clip_to(space)

    def region_for_op(self, op_index: int) -> Optional[Rect]:
        """The hot region in effect for operation ``op_index`` (or None)."""
        distribution = self.spec.distribution
        if distribution == "hotspot":
            return self.hot_region
        if distribution == "drifting":
            # the hot-region centre orbits the data space as the stream advances
            theta = 2.0 * math.pi * self.spec.drift_cycles * op_index / self.spec.n_ops
            cx, cy = self.space.center
            radius_x = 0.35 * self.space.width
            radius_y = 0.35 * self.space.height
            return self._place_hot_region(
                (cx + radius_x * math.cos(theta), cy + radius_y * math.sin(theta))
            )
        if distribution == "bulk-churn":
            if op_index > 0 and op_index % self.spec.churn_period == 0:
                self.hot_region = self._place_hot_region()
            return self.hot_region
        return None

    # -- arrival pattern ------------------------------------------------------

    def _draw_kind(self) -> str:
        n = self._n_kinds
        return OPERATION_KINDS[int(self.rng.choice(n, p=self.probabilities[:n]))]

    def next_kind(self) -> str:
        if self.spec.arrival == "steady":
            return self._draw_kind()
        if self._burst_remaining <= 0:
            self._burst_kind = self._draw_kind()
            self._burst_remaining = int(self.rng.geometric(1.0 / self.spec.burst_length))
        self._burst_remaining -= 1
        return self._burst_kind

    # -- key sampling ---------------------------------------------------------

    def fresh_location(self, region: Optional[Rect]) -> tuple[float, float]:
        """A new coordinate pair in the hot region (with the configured
        probability) or anywhere in the data space."""
        target = self.space
        if region is not None and float(self.rng.random()) < self.spec.hotspot_fraction:
            target = region
        return (
            target.xlo + float(self.rng.random()) * target.width,
            target.ylo + float(self.rng.random()) * target.height,
        )

    def live_key(self, region: Optional[Rect]) -> tuple[float, float]:
        """A stored key, biased toward the hot region / zipf-popular slots."""
        if self.spec.distribution == "zipfian":
            draw = int(self.rng.zipf(self.spec.zipf_exponent))
            return self.mirror.at(draw - 1)
        if region is not None and float(self.rng.random()) < self.spec.hotspot_fraction:
            return self.mirror.sample_in(region, self.rng)
        return self.mirror.sample(self.rng)

    def unique_fresh_key(self, region: Optional[Rect]) -> tuple[float, float]:
        for _ in range(128):
            key = self.fresh_location(region)
            if key not in self.mirror:
                return key
        raise RuntimeError("could not draw a fresh key; data space saturated")


def generate_arrival_schedule(spec: ScenarioSpec, n_ops: int) -> np.ndarray:
    """Virtual arrival instants (seconds) for ``n_ops`` operations of ``spec``.

    Under ``closed-loop`` the schedule is all zeros — arrivals are
    completion-driven and computed while replaying.  Under ``open-loop`` it
    is a Poisson process at ``spec.arrival_rate``; with ``arrival="bursty"``
    arrivals instead come in geometric bursts (mean ``spec.burst_length``)
    whose members share one instant, with exponential gaps scaled so the
    long-run rate still matches ``arrival_rate``.

    The schedule RNG is keyed independently of both the data set and the
    operation-content RNG, so the same spec + seed always yields identical
    per-op timestamps (and adding arrival times did not reshuffle any
    previously generated stream's contents).
    """
    if n_ops < 0:
        raise ValueError("n_ops must be >= 0")
    if spec.arrival_model == "closed-loop":
        return np.zeros(n_ops, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xA881)))
    if spec.arrival != "bursty":
        gaps = rng.exponential(1.0 / spec.arrival_rate, size=n_ops)
        return np.cumsum(gaps)
    times = np.empty(n_ops, dtype=float)
    now = 0.0
    filled = 0
    while filled < n_ops:
        burst = min(int(rng.geometric(1.0 / spec.burst_length)), n_ops - filled)
        now += float(rng.exponential(burst / spec.arrival_rate))
        times[filled : filled + burst] = now
        filled += burst
    return times


def generate_operations(spec: ScenarioSpec, initial_points: np.ndarray) -> list[Operation]:
    """The deterministic operation stream of ``spec`` over ``initial_points``.

    ``initial_points`` is the data set the index under test was built on; the
    stream's deletion victims and point-query hits are drawn from it (plus
    any points the stream itself inserted earlier).  Each operation carries
    its virtual arrival instant per :func:`generate_arrival_schedule`.
    """
    initial_points = np.asarray(initial_points, dtype=float).reshape(-1, 2)
    if initial_points.shape[0] == 0:
        raise ValueError("scenario streams require a non-empty initial data set")
    state = _StreamState(spec, initial_points)
    arrivals = generate_arrival_schedule(spec, spec.n_ops)
    spec_area = spec.window_area_fraction * spec.data_space.area
    window_height = math.sqrt(spec_area / spec.window_aspect_ratio)
    window_width = spec_area / window_height
    agg_fraction = (
        spec.aggregate_window_area_fraction
        if spec.aggregate_window_area_fraction is not None
        else spec.window_area_fraction
    )
    agg_area = agg_fraction * spec.data_space.area
    agg_height = math.sqrt(agg_area / spec.window_aspect_ratio)
    agg_width = agg_area / agg_height

    operations: list[Operation] = []
    for op_index in range(spec.n_ops):
        region = state.region_for_op(op_index)
        kind = state.next_kind()
        at = float(arrivals[op_index])

        if kind == "delete" and len(state.mirror) == 0:
            kind = "insert"  # nothing left to delete; keep the stream length

        if kind == "point":
            if float(state.rng.random()) < spec.point_miss_fraction or not len(state.mirror):
                x, y = state.unique_fresh_key(region)
            else:
                x, y = state.live_key(region)
            operations.append(Operation("point", x, y, arrival_time=at))
        elif kind == "window":
            cx, cy = state.fresh_location(region)
            window = Rect.from_center(cx, cy, window_width, window_height).clip_to(
                spec.data_space
            )
            operations.append(Operation("window", cx, cy, window=window, arrival_time=at))
        elif kind == "knn":
            x, y = state.fresh_location(region)
            operations.append(Operation("knn", x, y, k=spec.k, arrival_time=at))
        elif kind == "aggregate":
            cx, cy = state.fresh_location(region)
            window = Rect.from_center(cx, cy, agg_width, agg_height).clip_to(
                spec.data_space
            )
            op_name = spec.aggregate_ops[
                int(state.rng.integers(len(spec.aggregate_ops)))
            ]
            q = 0.5
            if op_name == "quantile":
                q = float(
                    spec.aggregate_quantiles[
                        int(state.rng.integers(len(spec.aggregate_quantiles)))
                    ]
                )
            agg = AggregateSpec(
                op=op_name, window=window, q=q, k=spec.k, attribute_seed=spec.seed
            )
            operations.append(
                Operation("aggregate", cx, cy, window=window, agg=agg, arrival_time=at)
            )
        elif kind == "insert":
            x, y = state.unique_fresh_key(region)
            state.mirror.add((x, y))
            operations.append(Operation("insert", x, y, arrival_time=at))
        else:  # delete
            if float(state.rng.random()) < spec.delete_miss_fraction:
                x, y = state.unique_fresh_key(region)
            else:
                x, y = state.live_key(region)
                state.mirror.discard((x, y))
            operations.append(Operation("delete", x, y, arrival_time=at))
    return operations


_READ_ORDER = ("point", "window", "knn", "aggregate")


def read_requests(ops: list[Operation]) -> list[tuple[list[int], QueryRequest]]:
    """One :class:`QueryRequest` per read kind present in ``ops``.

    Returns ``(positions, request)`` pairs in point, window, kNN, aggregate
    order; ``positions`` are the indices into ``ops`` the request's values
    answer, in stream order.  Writes are skipped.  kNN ops get one request
    per distinct ``k``, in order of first appearance (a generated stream
    gives every kNN op the spec's ``k``, so one request).
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for position, op in enumerate(ops):
        if op.kind in _READ_ORDER:
            key = (op.kind, op.k if op.kind == "knn" else 0)
            groups.setdefault(key, []).append(position)
    requests = []
    # stable sort: kNN groups keep their first-appearance order
    for (kind, k), positions in sorted(
        groups.items(), key=lambda item: _READ_ORDER.index(item[0][0])
    ):
        picked = [ops[p] for p in positions]
        if kind == "window":
            request = QueryRequest.for_windows([op.window for op in picked])
        elif kind == "aggregate":
            request = QueryRequest.for_aggregates([op.agg for op in picked])
        else:
            keys = np.asarray([(op.x, op.y) for op in picked], dtype=float)
            if kind == "point":
                request = QueryRequest.for_points(keys)
            else:
                request = QueryRequest.for_knn(keys, k)
        requests.append((positions, request))
    return requests
