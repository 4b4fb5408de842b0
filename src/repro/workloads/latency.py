"""Latency measurement: percentile sketches, virtual time, per-op recording.

The paper's cost metric — block accesses — is hardware independent but says
nothing about what a *served* workload feels like: latency under load, and
especially its tail.  This module provides the three pieces the serving
layers share:

* :class:`PercentileSketch` — a bounded-memory streaming reservoir over
  latency samples.  Up to its capacity it is exact; beyond it, Vitter's
  algorithm R keeps a uniform sample, so ``quantile(q)`` stays within a
  small rank error of ``numpy.percentile`` over the full stream (asserted
  against adversarial distributions in ``tests/test_latency.py``).  The
  reservoir RNG is seeded, so identical streams summarise identically.
* :class:`VirtualClock` — a single-server virtual-time queue.  Operations
  carry *virtual* arrival instants (seconds); their *service* times are
  measured in wall-clock seconds as they execute.  Feeding both through the
  clock yields each operation's **sojourn** time (queueing delay + service),
  which is how a single-threaded replay still measures open-loop latency:
  when the arrival schedule outpaces the measured service rate, the queue —
  and the sojourn tail — grows, exactly as it would for real users.
* :class:`LatencyRecorder` — per-kind and per-tenant sketch bundles the
  :class:`~repro.workloads.runner.ScenarioRunner` feeds one record per
  operation, summarised as :class:`LatencySummary` (p50/p95/p99) objects.

All public summaries report milliseconds; internal samples are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "PercentileSketch",
    "LatencySummary",
    "VirtualClock",
    "LatencyRecorder",
    "jains_fairness_index",
]

#: default reservoir capacity; 4096 samples bound the p99 rank error to ~0.2%
DEFAULT_SKETCH_CAPACITY = 4096


class PercentileSketch:
    """Streaming quantiles over a bounded uniform reservoir (algorithm R).

    Exact while the stream fits the reservoir; afterwards every seen value
    has had an equal probability of being retained, so empirical quantiles
    of the reservoir estimate the stream's.  ``count``/``total``/``minimum``/
    ``maximum`` are always exact.
    """

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY, seed: int = 0):
        if capacity < 1:
            raise ValueError("sketch capacity must be >= 1")
        self.capacity = capacity
        self._reservoir = np.empty(capacity, dtype=float)
        self._rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1A7E)))
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        """Fold one sample into the sketch."""
        value = float(value)
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if self.count < self.capacity:
            self._reservoir[self.count] = value
        else:
            slot = int(self._rng.integers(0, self.count + 1))
            if slot < self.capacity:
                self._reservoir[slot] = value
        self.count += 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (``q`` in [0, 1]) of the stream seen so far."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        sample = self._reservoir[: min(self.count, self.capacity)]
        return float(np.quantile(sample, q))

    def __len__(self) -> int:
        return min(self.count, self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PercentileSketch(count={self.count}, capacity={self.capacity})"


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 (and friends) of one latency population, in milliseconds."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_sketch(cls, sketch: PercentileSketch) -> Optional["LatencySummary"]:
        """Summarise a sketch of *seconds* samples; None for an empty sketch."""
        if sketch.count == 0:
            return None
        return cls(
            count=sketch.count,
            mean_ms=sketch.mean * 1e3,
            p50_ms=sketch.quantile(0.50) * 1e3,
            p95_ms=sketch.quantile(0.95) * 1e3,
            p99_ms=sketch.quantile(0.99) * 1e3,
            max_ms=sketch.maximum * 1e3,
        )

    def as_dict(self) -> dict:
        """Rounded machine-readable form (for BENCH_*.json payloads)."""
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 4),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "max_ms": round(self.max_ms, 4),
        }


class VirtualClock:
    """A single-server FIFO queue advancing in virtual seconds.

    ``serve(arrival, service)`` admits one operation: it starts when both
    the operation has arrived and the server is free, and occupies the
    server for its (measured) service time.  The return value is the
    operation's sojourn time — waiting plus service — which equals the
    service time exactly while the server keeps up and grows once an
    open-loop arrival schedule outpaces it.
    """

    def __init__(self):
        #: virtual instant at which the server finishes its current work
        self.server_free = 0.0
        #: virtual seconds the server has spent serving (busy time)
        self.busy_time = 0.0

    def serve(self, arrival: float, service: float) -> float:
        """Admit one operation; returns its sojourn (completion - arrival)."""
        if service < 0:
            raise ValueError("service time must be >= 0")
        start = max(float(arrival), self.server_free)
        completion = start + float(service)
        self.server_free = completion
        self.busy_time += float(service)
        return completion - float(arrival)

    def utilization(self) -> float:
        """Busy fraction of the virtual timeline so far."""
        return self.busy_time / self.server_free if self.server_free > 0 else 0.0


class LatencyRecorder:
    """Per-operation service/sojourn sketches, split by kind and tenant."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self.service = PercentileSketch(seed=seed)
        self.sojourn = PercentileSketch(seed=seed)
        self._by_kind: dict[str, PercentileSketch] = {}
        self._by_tenant: dict[int, PercentileSketch] = {}
        self._tenant_service_totals: dict[int, float] = {}

    def record(self, kind: str, tenant: int, service: float, sojourn: float) -> None:
        """Fold one operation's measured service + sojourn seconds in."""
        self.service.add(service)
        self.sojourn.add(sojourn)
        kind_sketch = self._by_kind.get(kind)
        if kind_sketch is None:
            kind_sketch = self._by_kind[kind] = PercentileSketch(seed=self._seed)
        kind_sketch.add(sojourn)
        tenant_sketch = self._by_tenant.get(tenant)
        if tenant_sketch is None:
            tenant_sketch = self._by_tenant[tenant] = PercentileSketch(seed=self._seed)
        tenant_sketch.add(sojourn)
        self._tenant_service_totals[tenant] = (
            self._tenant_service_totals.get(tenant, 0.0) + service
        )

    # -- summaries ------------------------------------------------------------

    def service_summary(self) -> Optional[LatencySummary]:
        return LatencySummary.from_sketch(self.service)

    def sojourn_summary(self) -> Optional[LatencySummary]:
        return LatencySummary.from_sketch(self.sojourn)

    def by_kind(self) -> dict[str, LatencySummary]:
        return {
            kind: LatencySummary.from_sketch(sketch)
            for kind, sketch in sorted(self._by_kind.items())
        }

    def by_tenant(self) -> dict[int, LatencySummary]:
        return {
            tenant: LatencySummary.from_sketch(sketch)
            for tenant, sketch in sorted(self._by_tenant.items())
        }

    def fairness(self) -> Optional[float]:
        """Jain's fairness index over the tenants' mean sojourn times.

        1.0 means every tenant experiences the same mean latency; it degrades
        toward ``1/n`` as one tenant monopolises the server.  None unless at
        least two tenants recorded operations.
        """
        if len(self._by_tenant) < 2:
            return None
        means = [sketch.mean for sketch in self._by_tenant.values()]
        return jains_fairness_index(means)


def jains_fairness_index(values) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``, in ``(0, 1]``."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("fairness index needs at least one value")
    squares = float(np.sum(values**2))
    if squares == 0.0:
        return 1.0
    return float(np.sum(values)) ** 2 / (values.size * squares)
