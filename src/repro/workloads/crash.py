"""Crash-recovery fuzzing: kill a durable index mid-stream, recover, verify.

The harness replays a seeded :class:`~repro.workloads.spec.ScenarioSpec`
stream against an index wrapped in a
:class:`~repro.storage.DurableIndex`, simulates a process kill after a
chosen operation (optionally tearing the last WAL record, as a crash
mid-append would), recovers from checkpoint + WAL tail, and asserts exact
agreement with an :class:`~repro.workloads.oracle.OracleIndex` built over
the *surviving* prefix of the write stream:

* the recovery report's replay count must equal the writes logged since
  the last checkpoint (minus the torn record, when one was torn),
* every write key — survived or lost — must be present/absent exactly as
  in the oracle,
* window probes must agree exactly for exact index kinds and be sound
  (no phantom points) for the learned approximate ones,
* when the index is block-store-backed, the store's full point set must
  equal the oracle's.

Any disagreement raises :class:`CrashRecoveryMismatch` with enough context
to replay the case from its seed.  ``tests/test_crash_recovery.py`` runs
the kill-point × checkpoint-interval matrix over this harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Union

import numpy as np

from repro.storage import DurableIndex
from repro.workloads.oracle import OracleIndex
from repro.workloads.spec import ScenarioSpec
from repro.workloads.stream import Operation, generate_operations

__all__ = ["CrashOutcome", "CrashRecoveryMismatch", "run_crash_recovery"]

#: bytes chopped off the WAL to tear its final record (< one frame)
_TORN_CHOP_BYTES = 5


class CrashRecoveryMismatch(AssertionError):
    """Recovered state disagrees with the oracle over the surviving prefix."""


@dataclass
class CrashOutcome:
    """What one crash-recovery fuzz case did (all checks passed)."""

    kill_at: int
    writes_applied: int
    writes_survived: int
    replayed: int
    torn_tail: bool
    checkpoints: int
    n_points: int

    def describe(self) -> str:
        return (
            f"killed after op {self.kill_at}: {self.writes_survived}/"
            f"{self.writes_applied} writes survived ({self.replayed} replayed"
            + (", torn tail" if self.torn_tail else "")
            + f"), {self.n_points} points verified"
        )


def _as_point_set(points: np.ndarray) -> set[tuple[float, float]]:
    return {(float(p[0]), float(p[1])) for p in np.asarray(points).reshape(-1, 2)}


def run_crash_recovery(
    index_factory: Callable[[np.ndarray], Any],
    spec: ScenarioSpec,
    initial_points: np.ndarray,
    directory: Union[str, Path],
    *,
    kill_at: Union[int, float],
    checkpoint_every: int = 32,
    backend: str = "memory",
    exact: bool = True,
    torn_tail: bool = False,
    lost_checkpoint_rename: bool = False,
    fsync: bool = False,
    n_probe_windows: int = 6,
) -> CrashOutcome:
    """One seeded kill/recover/verify cycle; returns the passing outcome.

    Parameters
    ----------
    index_factory:
        ``factory(points) -> index`` building the index under test (any
        index kind or a sharded index — anything with the
        insert/delete/query surface).
    spec:
        The scenario whose deterministic stream is replayed.
    kill_at:
        Operation index after which the process "dies"; a float in
        ``[0, 1]`` is interpreted as a fraction of the stream.
    torn_tail:
        Additionally tear the last WAL record (crash mid-append): that
        write must be lost by recovery, everything before it kept.  Ignored
        when the kill lands exactly on a checkpoint (empty WAL).
    lost_checkpoint_rename:
        Kill *inside* a checkpoint, between ``os.replace`` and the parent
        directory fsync: the rename is rolled back (the old checkpoint
        resurfaces at the path) while the WAL — reset only after the
        directory sync — still holds every record since the previous
        checkpoint.  Recovery must replay old checkpoint + full WAL to the
        exact same state, losing nothing.
    exact:
        Whether window probes must match the oracle exactly (True for the
        exact kinds) or merely be sound — report no phantom points.
    """
    initial_points = np.asarray(initial_points, dtype=float).reshape(-1, 2)
    operations = generate_operations(spec, initial_points)
    if isinstance(kill_at, float) and 0.0 <= kill_at <= 1.0:
        kill_at = int(round(kill_at * len(operations)))
    kill_at = max(0, min(int(kill_at), len(operations)))

    directory = Path(directory)
    durable = DurableIndex(
        index_factory(initial_points),
        directory,
        checkpoint_every=checkpoint_every,
        backend=backend,
        fsync=fsync,
    )

    writes: list[Operation] = []
    for op in operations[:kill_at]:
        if op.kind == "insert":
            durable.insert(op.x, op.y)
            writes.append(op)
        elif op.kind == "delete":
            durable.delete(op.x, op.y)
            writes.append(op)
        elif op.kind == "point":
            durable.contains(op.x, op.y)
        elif op.kind == "window":
            durable.window_query(op.window)
        else:  # knn — reads run too, so a disk backend's read path is exercised
            durable.knn_query(op.x, op.y, op.k)

    checkpointed = durable.ops_checkpointed
    pending = durable.wal_records_pending
    checkpoints = durable.n_checkpoints
    wal_path = directory / "wal.log"
    if lost_checkpoint_rename:
        # crashed between os.replace and the directory fsync: the rename's
        # directory entry never reached disk, so the *old* checkpoint is
        # back at the path after the crash — and because the WAL reset runs
        # strictly after the directory sync, the WAL still holds every
        # record since the previous checkpoint.  Snapshot the pre-checkpoint
        # artefacts, let the checkpoint happen, then roll its rename back.
        old_checkpoint = durable.checkpoint_path.read_bytes()
        old_wal = wal_path.read_bytes() if wal_path.exists() else b""
        durable.checkpoint()  # the checkpoint whose rename the crash undoes
        durable.simulate_crash()
        durable.checkpoint_path.write_bytes(old_checkpoint)
        wal_path.write_bytes(old_wal)
    else:
        durable.simulate_crash()

    tore = torn_tail and pending > 0
    if tore:
        # a crash mid-append: the final frame is only partially on disk
        with open(wal_path, "r+b") as handle:
            handle.truncate(wal_path.stat().st_size - _TORN_CHOP_BYTES)
    survivors = checkpointed + pending - (1 if tore else 0)

    oracle = OracleIndex().build(initial_points)
    for op in writes[:survivors]:
        if op.kind == "insert":
            oracle.insert(op.x, op.y)
        else:
            oracle.delete(op.x, op.y)

    recovered, report = DurableIndex.recover(
        directory, checkpoint_every=checkpoint_every, backend=backend, fsync=fsync
    )
    try:
        if report.replayed != survivors - checkpointed:
            raise CrashRecoveryMismatch(
                f"recovery replayed {report.replayed} records, expected "
                f"{survivors - checkpointed} (checkpointed {checkpointed}, "
                f"applied {len(writes)}, torn={tore}) [seed={spec.seed}]"
            )
        if report.torn_tail != tore:
            raise CrashRecoveryMismatch(
                f"recovery reported torn_tail={report.torn_tail}, expected {tore} "
                f"[seed={spec.seed}]"
            )
        target = recovered.wrapped
        if int(target.n_points) != oracle.n_points:
            raise CrashRecoveryMismatch(
                f"recovered index holds {target.n_points} points, oracle holds "
                f"{oracle.n_points} [seed={spec.seed}, kill_at={kill_at}]"
            )
        _verify_points(recovered, oracle, writes, initial_points, spec)
        _verify_windows(recovered, oracle, operations, exact, spec, n_probe_windows)
        store = getattr(target, "store", None)
        if store is not None:
            stored = _as_point_set(store.all_points())
            expected = _as_point_set(oracle.points())
            if stored != expected:
                missing = len(expected - stored)
                phantom = len(stored - expected)
                raise CrashRecoveryMismatch(
                    f"recovered block store disagrees with oracle: {missing} "
                    f"missing, {phantom} phantom point(s) [seed={spec.seed}]"
                )
        n_points = int(target.n_points)
    finally:
        recovered.close()

    return CrashOutcome(
        kill_at=kill_at,
        writes_applied=len(writes),
        writes_survived=survivors,
        replayed=report.replayed,
        torn_tail=report.torn_tail,
        checkpoints=checkpoints,
        n_points=n_points,
    )


def _verify_points(
    recovered: Any,
    oracle: OracleIndex,
    writes: list[Operation],
    initial_points: np.ndarray,
    spec: ScenarioSpec,
) -> None:
    """Every write key (kept or lost) and a sample of the original data set
    must be present/absent exactly as the oracle says."""
    probes: list[tuple[float, float]] = [(op.x, op.y) for op in writes]
    stride = max(1, initial_points.shape[0] // 64)
    probes.extend((float(x), float(y)) for x, y in initial_points[::stride])
    for x, y in probes:
        expected = oracle.contains(x, y)
        got = bool(recovered.contains(x, y))
        if got != expected:
            raise CrashRecoveryMismatch(
                f"point ({x!r}, {y!r}): recovered says {got}, oracle says "
                f"{expected} [seed={spec.seed}]"
            )


def _verify_windows(
    recovered: Any,
    oracle: OracleIndex,
    operations: list[Operation],
    exact: bool,
    spec: ScenarioSpec,
    n_probe_windows: int,
) -> None:
    """Window probes drawn from the stream itself: exact equality for exact
    kinds, soundness (no phantoms) for the approximate learned ones."""
    windows = [op.window for op in operations if op.kind == "window"][:n_probe_windows]
    for window in windows:
        got = _as_point_set(recovered.window_query(window))
        expected = _as_point_set(oracle.window_query(window))
        if exact and got != expected:
            raise CrashRecoveryMismatch(
                f"window {window}: recovered reports {len(got)} points, oracle "
                f"{len(expected)} (exact kind) [seed={spec.seed}]"
            )
        if not got <= expected:
            raise CrashRecoveryMismatch(
                f"window {window}: recovered reports {len(got - expected)} "
                f"phantom point(s) [seed={spec.seed}]"
            )
