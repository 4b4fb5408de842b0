"""Multi-tenant interleaved streams: N scenarios, one index, per-tenant truth.

A production deployment rarely serves one workload: N tenants issue
independent streams against the same index.  This module derives N
independently-seeded :class:`~repro.workloads.spec.ScenarioSpec`\\ s from one
base spec, gives each tenant its own slice of the initial data set, generates
each tenant's operation stream over *its own* keyspace, and merges the
streams by virtual arrival time (the merge is stable, so every tenant's
internal operation order is preserved — asserted in
``tests/test_latency.py``).

Correctness under multi-tenancy is checked by :class:`MultiTenantOracle`:
one brute-force :class:`~repro.workloads.oracle.OracleIndex` shadow **per
tenant** (each replays only its tenant's writes, so per-tenant live counts
stay exact) whose union answers the shared-index queries — the
:class:`~repro.workloads.runner.ScenarioRunner` checks every merged
operation against it exactly as in the single-tenant case, routing writes to
the owning tenant's shadow.

Latency fairness across tenants is summarised by Jain's index over the
per-tenant mean sojourn times (see
:meth:`~repro.workloads.latency.LatencyRecorder.fairness`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analytics.attributes import attribute_values
from repro.analytics.ops import AggregateOutcome, AggregateSpec, exact_aggregate
from repro.geometry import Rect, euclidean_many
from repro.workloads.oracle import OracleIndex
from repro.workloads.spec import ScenarioSpec
from repro.workloads.stream import Operation, generate_operations

__all__ = [
    "split_tenant_points",
    "derive_tenant_specs",
    "generate_tenant_operations",
    "MultiTenantOracle",
]

_EMPTY = np.empty((0, 2), dtype=float)


def split_tenant_points(points: np.ndarray, n_tenants: int) -> list[np.ndarray]:
    """Partition the initial data set round-robin into per-tenant slices.

    Round-robin (rather than contiguous chunks) keeps every tenant's points
    spread over the whole space the way the full set is, so tenant streams
    exercise the same index regions the single-tenant stream would.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    if points.shape[0] < n_tenants:
        raise ValueError(
            f"cannot split {points.shape[0]} points across {n_tenants} tenants"
        )
    return [points[tenant::n_tenants] for tenant in range(n_tenants)]


def derive_tenant_specs(spec: ScenarioSpec, n_tenants: int) -> list[ScenarioSpec]:
    """N independently-seeded per-tenant specs from one base spec.

    The base operation budget and (open-loop) arrival rate are divided across
    tenants, so N tenants together offer the same load the base spec does.
    Multi-tenant merging needs a virtual arrival schedule, so the derived
    specs are always ``open-loop``.
    """
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    ops_each, ops_extra = divmod(spec.n_ops, n_tenants)
    specs = []
    for tenant in range(n_tenants):
        n_ops = ops_each + (1 if tenant < ops_extra else 0)
        if n_ops < 1:
            raise ValueError(
                f"n_ops={spec.n_ops} is too small to split across {n_tenants} tenants"
            )
        specs.append(
            replace(
                spec,
                name=f"{spec.name}#t{tenant}",
                seed=spec.seed + 1_000_003 * (tenant + 1),
                n_ops=n_ops,
                arrival_model="open-loop",
                arrival_rate=spec.arrival_rate / n_tenants,
            )
        )
    return specs


def generate_tenant_operations(
    spec: ScenarioSpec, initial_points: np.ndarray, n_tenants: int
) -> tuple[list[Operation], list[np.ndarray]]:
    """The merged multi-tenant stream of ``spec`` over ``initial_points``.

    Returns ``(operations, tenant_points)``: the operations of all tenants
    merged by arrival time (each stamped with its ``tenant`` id), and the
    per-tenant initial point slices (build the index over the full set, the
    per-tenant oracles over the slices).  The merge sort is stable with a
    ``(arrival_time, tenant)`` key, so simultaneous (bursty) arrivals keep
    their within-tenant order.

    The merge order is defined by the open-loop virtual schedule, so replay
    the result with an ``open-loop`` spec (``ScenarioRunner`` takes its
    arrival model from the spec it is given) — a closed-loop replay would
    ignore the very arrival times the interleaving came from.
    """
    tenant_points = split_tenant_points(initial_points, n_tenants)
    streams = []
    for tenant, tenant_spec in enumerate(derive_tenant_specs(spec, n_tenants)):
        streams.extend(
            replace(op, tenant=tenant)
            for op in generate_operations(tenant_spec, tenant_points[tenant])
        )
    streams.sort(key=lambda op: (op.arrival_time, op.tenant))
    return streams, tenant_points


class MultiTenantOracle:
    """Per-tenant brute-force shadows whose union answers shared queries.

    Mirrors the :class:`OracleIndex` surface the scenario runner checks
    against — reads (``contains``/``window_query``/``knn_query``) answer
    over the union of all tenants' live points, writes take a ``tenant=``
    argument and go to that tenant's shadow only.  ``tenant_aware`` is the
    attribute the runner sniffs to route ``Operation.tenant`` through.
    """

    name = "MultiTenantOracle"
    supports_exact_results = True
    supports_attributes = True
    tenant_aware = True

    def __init__(self, n_tenants: int):
        if n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        self.shadows = [OracleIndex() for _ in range(n_tenants)]

    def build(self, tenant_points: list[np.ndarray]) -> "MultiTenantOracle":
        if len(tenant_points) != len(self.shadows):
            raise ValueError(
                f"expected {len(self.shadows)} point slices, got {len(tenant_points)}"
            )
        for shadow, points in zip(self.shadows, tenant_points):
            shadow.build(points)
        return self

    # -- contents -------------------------------------------------------------

    @property
    def n_tenants(self) -> int:
        return len(self.shadows)

    @property
    def n_points(self) -> int:
        return sum(shadow.n_points for shadow in self.shadows)

    def per_tenant_points(self) -> list[int]:
        """Live point count per tenant (each tenant's own shadow)."""
        return [shadow.n_points for shadow in self.shadows]

    def points(self) -> np.ndarray:
        """The union of all tenants' live points."""
        chunks = [shadow.points() for shadow in self.shadows if shadow.n_points]
        return np.vstack(chunks) if chunks else _EMPTY.copy()

    # -- queries (union of tenants) -------------------------------------------

    def contains(self, x: float, y: float) -> bool:
        return any(shadow.contains(x, y) for shadow in self.shadows)

    def window_query(self, window: Rect) -> np.ndarray:
        chunks = [shadow.window_query(window) for shadow in self.shadows]
        chunks = [chunk for chunk in chunks if chunk.shape[0] > 0]
        return np.vstack(chunks) if chunks else _EMPTY.copy()

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("k must be >= 1")
        points = self.points()
        if points.shape[0] == 0:
            return _EMPTY.copy()
        distances = euclidean_many((float(x), float(y)), points)
        k = min(k, points.shape[0])
        idx = np.argpartition(distances, k - 1)[:k]
        idx = idx[np.argsort(distances[idx], kind="stable")]
        return points[idx]

    def aggregate(self, spec: AggregateSpec) -> AggregateOutcome:
        """Ground-truth aggregate over the union of all tenants' points."""
        return exact_aggregate(spec, self.points())

    def window_attribute_values(self, spec: AggregateSpec) -> np.ndarray:
        """Sorted attribute column of the union points inside the window."""
        inside = self.window_query(spec.window)
        if inside.shape[0] == 0:
            return np.empty(0, dtype=float)
        return np.sort(attribute_values(inside, seed=spec.attribute_seed))

    # -- updates (routed to the owning tenant) --------------------------------

    def insert(self, x: float, y: float, tenant: int = 0) -> None:
        self.shadows[tenant].insert(x, y)

    def delete(self, x: float, y: float, tenant: int = 0) -> bool:
        return self.shadows[tenant].delete(x, y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiTenantOracle({self.per_tenant_points()} points)"
