"""Durability manager: checkpoints + WAL + optional disk tier for any index.

:class:`DurableIndex` wraps a built index (RSMI, any baseline, or a
:class:`~repro.sharding.ShardedSpatialIndex`) and makes its update stream
survive a process kill:

* every ``insert``/``delete`` is appended to a
  :class:`~repro.storage.wal.WriteAheadLog` **before** it is applied
  (append-before-apply), so the log always covers at least the applied
  state;
* every ``checkpoint_every`` writes, the whole index is checkpointed
  through :func:`~repro.core.persistence.save_index` (atomic
  temp-file + ``fsync`` + ``os.replace``) and the WAL is reset;
* :meth:`DurableIndex.recover` loads the newest checkpoint, truncates any
  torn WAL tail, replays the surviving records through the index's own
  ``insert``/``delete`` (logical redo — deterministically recreating
  overflow allocations and model-side bookkeeping), and re-checkpoints.

With ``backend="disk"`` the wrapped index additionally serves block reads
from a :class:`~repro.storage.block_file.BlockFile` mirror: cache-missing
reads deserialise blocks from the file (per shard for sharded indices), so
physical reads are actual I/O.  Tree baselines, whose nodes live behind the
:class:`~repro.storage.paged.NodePager`, get checkpoint + WAL durability
without a block mirror.

Queries delegate transparently (``__getattr__``), and the wrapper exposes
``wrapped`` so the batched engines and the scenario runner serve reads from
the index it wraps — a durable index drops into the serving stack
unchanged.  Writes with non-finite coordinates are rejected before the WAL
append, so recovery never replays a record the index would refuse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.geometry import require_finite_point
from repro.storage.block_file import BlockFile
from repro.storage.wal import WriteAheadLog

__all__ = ["DurableIndex", "RecoveryReport", "STORAGE_BACKENDS", "storage_root"]

#: recognised ``--storage-backend`` values: pure in-memory simulation, or
#: the file-backed block tier
STORAGE_BACKENDS = ("memory", "disk")

_CHECKPOINT_NAME = "checkpoint.idx"
_WAL_NAME = "wal.log"
_BLOCKS_NAME = "blocks.dat"


def storage_root() -> Path:
    """Where durable-run scratch state lives.

    ``$REPRO_STORAGE_DIR`` when set, else ``storage/`` under the current
    working directory (gitignored), mirroring the results-dir convention.
    """
    override = os.environ.get("REPRO_STORAGE_DIR", "").strip()
    return Path(override) if override else Path.cwd() / "storage"


@dataclass
class RecoveryReport:
    """What :meth:`DurableIndex.recover` found and did."""

    #: WAL records replayed on top of the checkpoint
    replayed: int
    #: True when a torn WAL tail (crash mid-append) was truncated away
    torn_tail: bool
    checkpoint_path: Path
    wal_path: Path

    def describe(self) -> str:
        return (
            f"recovered from {self.checkpoint_path.name} + {self.replayed} WAL "
            f"record(s)" + (" (torn tail truncated)" if self.torn_tail else "")
        )


class DurableIndex:
    """Checkpoint/WAL durability (and optionally a disk tier) around an index.

    Parameters
    ----------
    index:
        A *built* index.  Its ``insert``/``delete`` surface is what the WAL
        replays, so anything the scenario runner can drive is supported.
    directory:
        Where the checkpoint, the WAL and any block files live.  One
        directory per durable index.
    checkpoint_every:
        Writes between automatic checkpoints (>= 1).
    backend:
        ``"memory"`` (checkpoint + WAL only) or ``"disk"`` (additionally
        mirror the block store(s) into block files and serve cache-missing
        reads from them).
    fsync:
        Fsync WAL appends.  Leave on for real durability; tests may turn
        it off for speed (same-process kill simulation does not need it —
        appends are unbuffered either way).
    wal_fsync_every:
        Group-commit width: fsync once per this many WAL appends instead
        of per record (checkpoints flush any pending group first).  A
        process kill still loses nothing; an OS crash loses at most the
        last unsynced group.
    """

    def __init__(
        self,
        index: Any,
        directory: str | Path,
        *,
        checkpoint_every: int = 256,
        backend: str = "memory",
        fsync: bool = True,
        wal_fsync_every: int = 1,
        _initial_checkpoint: bool = True,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if backend not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {backend!r}; available: {STORAGE_BACKENDS}"
            )
        self._index = index
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.backend = backend
        self.checkpoint_path = self.directory / _CHECKPOINT_NAME
        self.wal_path = self.directory / _WAL_NAME
        self._wal = WriteAheadLog(self.wal_path, fsync=fsync, fsync_every=wal_fsync_every)
        self._block_files: list[BlockFile] = []
        #: writes logged since this manager took over (cumulative)
        self.ops_logged = 0
        #: value of :attr:`ops_logged` folded into the newest checkpoint
        self.ops_checkpointed = 0
        self.n_checkpoints = 0
        if backend == "disk":
            self._attach_disk_backend()
        if _initial_checkpoint:
            self.checkpoint()

    # -- serving surface -------------------------------------------------------

    @property
    def wrapped(self) -> Any:
        """The wrapped index (the engines/runner unwrap through this)."""
        return self._index

    def insert(self, x: float, y: float) -> None:
        """WAL-append then apply one insertion (append-before-apply).

        Non-finite coordinates raise ``ValueError`` before the append, so a
        rejected write never becomes a record that recovery would replay.
        """
        require_finite_point(x, y)
        self._wal.append("insert", x, y)
        self._index.insert(x, y)
        self._after_write()

    def delete(self, x: float, y: float) -> bool:
        """WAL-append then apply one deletion; returns the index's outcome."""
        require_finite_point(x, y)
        self._wal.append("delete", x, y)
        removed = bool(self._index.delete(x, y))
        self._after_write()
        return removed

    def __getattr__(self, item):
        # queries, stats, caches, per_shard_* — all served by the wrapped index
        return getattr(self._index, item)

    # -- checkpointing ---------------------------------------------------------

    def _after_write(self) -> None:
        self.ops_logged += 1
        if self.ops_logged - self.ops_checkpointed >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> Path:
        """Atomically checkpoint the whole index and reset the WAL."""
        from repro.core.persistence import save_index

        self._wal.flush()  # group commit: pending appends durable pre-checkpoint
        path = save_index(self._index, self.checkpoint_path)
        self._wal.reset()
        self.ops_checkpointed = self.ops_logged
        self.n_checkpoints += 1
        return path

    @property
    def wal_records_pending(self) -> int:
        """Writes logged since the newest checkpoint."""
        return self.ops_logged - self.ops_checkpointed

    # -- disk tier -------------------------------------------------------------

    def _attach_disk_backend(self) -> None:
        """Mirror the wrapped index's block store(s) into block files."""
        target = self._index
        if hasattr(target, "attach_disk"):
            # sharded indices manage one block file per shard themselves
            target.attach_disk(self.directory)
            return
        store = getattr(target, "store", None)
        if store is None:
            return  # tree baselines: NodePager nodes, checkpoint+WAL only
        blocks_path = self.directory / _BLOCKS_NAME
        if blocks_path.exists():
            blocks_path.unlink()  # stale mirror from an earlier run
        store.attach_disk(BlockFile(blocks_path, store.capacity))
        self._block_files = [store.disk]

    def _detach_disk_backend(self) -> None:
        target = self._index
        store = getattr(target, "store", None)
        if store is not None and store.disk is not None:
            disk = store.disk
            store.attach_disk(None)
            disk.close()
        for block_file in self._block_files:
            block_file.close()
        self._block_files = []
        if target is not None and hasattr(target, "detach_disk"):
            target.detach_disk()

    # -- lifecycle -------------------------------------------------------------

    def close(self, checkpoint: bool = True) -> None:
        """Clean shutdown: optionally checkpoint, then release every handle."""
        if checkpoint:
            self.checkpoint()
        self._wal.close()
        self._detach_disk_backend()

    def simulate_crash(self) -> None:
        """Abandon the in-memory state as a killed process would.

        No checkpoint, no flush beyond what already reached the files (WAL
        appends and block writes are unbuffered, exactly so this models a
        SIGKILL); afterwards only :meth:`recover` brings the index back.
        """
        self._wal.close()
        self._detach_disk_backend()
        self._index = None

    # -- recovery --------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        checkpoint_every: int = 256,
        backend: str = "memory",
        fsync: bool = True,
        wal_fsync_every: int = 1,
        expected_type: Optional[type] = None,
    ) -> tuple["DurableIndex", RecoveryReport]:
        """Bring a killed durable index back from checkpoint + WAL tail.

        Loads the newest checkpoint, truncates any torn WAL tail, replays
        the surviving records through the index's own update surface, and
        returns a fresh manager (which immediately re-checkpoints, folding
        the replayed tail in) plus a :class:`RecoveryReport`.
        """
        from repro.core.persistence import load_index

        directory = Path(directory)
        checkpoint_path = directory / _CHECKPOINT_NAME
        wal_path = directory / _WAL_NAME
        index = load_index(checkpoint_path, expected_type=expected_type)
        records, torn = WriteAheadLog.recover(wal_path)
        for kind, x, y in records:
            if kind == "insert":
                index.insert(x, y)
            else:
                index.delete(x, y)
        durable = cls(
            index,
            directory,
            checkpoint_every=checkpoint_every,
            backend=backend,
            fsync=fsync,
            wal_fsync_every=wal_fsync_every,
        )
        report = RecoveryReport(
            replayed=len(records),
            torn_tail=torn,
            checkpoint_path=checkpoint_path,
            wal_path=wal_path,
        )
        return durable, report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableIndex({type(self._index).__name__}, backend={self.backend!r}, "
            f"dir={str(self.directory)!r}, checkpoints={self.n_checkpoints}, "
            f"pending={self.wal_records_pending})"
        )
