"""Scenario workloads: declarative mixed read/write streams plus fuzzing.

The paper evaluates on static query workloads and isolated insert/delete
sweeps; this package opens every scenario in between.  A
:class:`~repro.workloads.spec.ScenarioSpec` declares an operation mix
(point/window/kNN/insert/delete), an arrival pattern and a key distribution
(``hotspot``, ``drifting``, ``zipfian``, ``bulk-churn``, ...); the stream
generator turns it into a deterministic interleaved operation sequence; the
:class:`~repro.workloads.runner.ScenarioRunner` replays that sequence against
any index through the batched query engine, emitting periodic
:class:`~repro.workloads.runner.ScenarioSnapshot` metrics.

Attach a shadow :class:`~repro.workloads.oracle.OracleIndex` and the same
run becomes a model-based differential fuzz case: every answer is checked
against brute force, and any disagreement raises
:class:`~repro.workloads.runner.ScenarioMismatch`.  The experiment CLI's
``--scenario`` flag and ``tests/test_scenario_fuzz.py`` are both thin layers
over this package.

:func:`~repro.workloads.crash.run_crash_recovery` extends the same
differential idea across a process kill: replay a scenario prefix against a
:class:`~repro.storage.DurableIndex`, crash it (optionally tearing the WAL
tail), recover, and verify the surviving state against the oracle.
"""

from repro.workloads.crash import (
    CrashOutcome,
    CrashRecoveryMismatch,
    run_crash_recovery,
)
from repro.workloads.latency import (
    LatencyRecorder,
    LatencySummary,
    PercentileSketch,
    VirtualClock,
    jains_fairness_index,
)
from repro.workloads.oracle import OracleIndex
from repro.workloads.rebalance import (
    RebalanceFuzzOutcome,
    aggressive_config,
    run_rebalance_fuzz,
)
from repro.workloads.runner import (
    ScenarioMismatch,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSnapshot,
)
from repro.workloads.spec import (
    ARRIVAL_MODELS,
    ARRIVAL_PATTERNS,
    KEY_DISTRIBUTIONS,
    OPERATION_KINDS,
    SCENARIO_PRESETS,
    OperationMix,
    ScenarioSpec,
    scenario_by_name,
)
from repro.workloads.stream import (
    Operation,
    generate_arrival_schedule,
    generate_operations,
)
from repro.workloads.tenants import (
    MultiTenantOracle,
    derive_tenant_specs,
    generate_tenant_operations,
    split_tenant_points,
)

__all__ = [
    "OperationMix",
    "ScenarioSpec",
    "SCENARIO_PRESETS",
    "scenario_by_name",
    "KEY_DISTRIBUTIONS",
    "ARRIVAL_PATTERNS",
    "ARRIVAL_MODELS",
    "OPERATION_KINDS",
    "Operation",
    "generate_operations",
    "generate_arrival_schedule",
    "OracleIndex",
    "ScenarioRunner",
    "ScenarioResult",
    "ScenarioSnapshot",
    "ScenarioMismatch",
    "PercentileSketch",
    "LatencySummary",
    "LatencyRecorder",
    "VirtualClock",
    "jains_fairness_index",
    "MultiTenantOracle",
    "derive_tenant_specs",
    "generate_tenant_operations",
    "split_tenant_points",
    "CrashOutcome",
    "CrashRecoveryMismatch",
    "run_crash_recovery",
    "RebalanceFuzzOutcome",
    "aggressive_config",
    "run_rebalance_fuzz",
]
