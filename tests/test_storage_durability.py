"""Tests of the durable tier: block files, the WAL, and DurableIndex.

Covers the on-disk formats in isolation (fixed-record serialisation, CRC
torn-record detection, WAL framing and torn-tail truncation), the
``BlockStore.attach_disk`` write-through/read-replacement contract (the
file must be load-bearing: cache-missing reads serve what the file holds),
and the checkpoint/recover lifecycle of :class:`~repro.storage.DurableIndex`.
"""

import pickle

import numpy as np
import pytest

from repro.baselines import ZMConfig, ZMIndex
from repro.nn import TrainingConfig
from repro.storage import (
    STORAGE_BACKENDS,
    Block,
    BlockFile,
    BlockFileError,
    BlockStore,
    DurableIndex,
    PageCache,
    WalError,
    WriteAheadLog,
)


def _zm(points, block_capacity=16):
    return ZMIndex(
        ZMConfig(block_capacity=block_capacity, training=TrainingConfig(epochs=6, seed=0))
    ).build(points)


class TestBlockFile:
    def test_roundtrip_preserves_everything(self, tmp_path):
        block = Block(3, 4, is_overflow=True)
        block.append(0.25, 0.75)
        block.append(0.5, 0.5)
        block.append(0.125, 0.875)
        block.delete(0.5, 0.5)
        block.prev_id = 1
        block.next_id = 7
        with BlockFile(tmp_path / "blocks.dat", 4) as bf:
            bf.write_block(block)
            back = bf.read_block(3)
        assert back.block_id == 3
        assert back.is_overflow
        assert back.prev_id == 1 and back.next_id == 7
        assert len(back) == len(block)
        np.testing.assert_array_equal(back.points(), block.points())

    def test_decoded_blocks_pickle_like_the_written_ones(self, tmp_path):
        """Decoding hands the record's slot arrays to the block (no zeroed
        arrays to replace); checkpoints of decoded blocks keep their bytes
        and the decoded arrays stay the block's own, writable slots."""
        full = Block(1, 3)
        for i in range(3):
            full.append(0.1 * i, -0.0)
        chained = Block(2, 3, is_overflow=True)
        chained.append(0.5, 0.25)
        chained.append(0.75, 0.125)
        chained.delete(0.5, 0.25)
        chained.prev_id, chained.next_id = 0, 9
        blocks = [Block(0, 3), full, chained]
        with BlockFile(tmp_path / "blocks.dat", 3) as bf:
            for block in blocks:
                bf.write_block(block)
            decoded = [bf.read_block(block.block_id) for block in blocks]
            with pytest.raises(BlockFileError, match="invalid block id"):
                bf.read_block(-1)
        for block, back in zip(blocks, decoded):
            assert pickle.dumps(back) == pickle.dumps(block)
        chained_back = decoded[2]
        chained_back.append(0.875, 0.5)
        np.testing.assert_array_equal(chained_back.points(), [[0.75, 0.125], [0.875, 0.5]])

    def test_none_links_roundtrip(self, tmp_path):
        block = Block(0, 2, is_overflow=False)
        block.append(0.1, 0.2)
        with BlockFile(tmp_path / "blocks.dat", 2) as bf:
            bf.write_block(block)
            back = bf.read_block(0)
        assert back.prev_id is None and back.next_id is None
        assert not back.is_overflow

    def test_open_existing_reads_capacity_from_header(self, tmp_path):
        path = tmp_path / "blocks.dat"
        with BlockFile(path, 8) as bf:
            bf.write_block(Block(0, 8))
        with BlockFile.open_existing(path) as bf:
            assert bf.capacity == 8
            assert bf.n_blocks == 1

    def test_capacity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "blocks.dat"
        BlockFile(path, 8).close()
        with pytest.raises(BlockFileError, match="capacity"):
            BlockFile(path, 16)

    def test_not_a_block_file_rejected(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_bytes(b"x" * 64)
        with pytest.raises(BlockFileError):
            BlockFile.open_existing(path)

    def test_torn_record_fails_checksum(self, tmp_path):
        path = tmp_path / "blocks.dat"
        block = Block(0, 4)
        block.append(0.3, 0.7)
        with BlockFile(path, 4) as bf:
            bf.write_block(block)
            offset = bf._offset(0)
        # flip bytes mid-record: a torn write leaves a half-old half-new record
        data = bytearray(path.read_bytes())
        data[offset + 10] ^= 0xFF
        path.write_bytes(bytes(data))
        with BlockFile.open_existing(path) as bf:
            with pytest.raises(BlockFileError, match="checksum"):
                bf.read_block(0)

    def test_record_past_eof_is_truncation_error(self, tmp_path):
        with BlockFile(tmp_path / "blocks.dat", 4) as bf:
            with pytest.raises(BlockFileError, match="truncated"):
                bf.read_block(5)


class TestWriteAheadLog:
    def test_append_scan_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append("insert", 0.25, 0.75)
            wal.append("delete", 0.5, 0.125)
        records, valid_bytes, torn = WriteAheadLog.scan(path)
        assert records == [("insert", 0.25, 0.75), ("delete", 0.5, 0.125)]
        assert valid_bytes == path.stat().st_size
        assert not torn

    def test_unknown_operation_rejected(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            with pytest.raises(WalError, match="unknown"):
                wal.append("upsert", 0.1, 0.2)

    @pytest.mark.parametrize("chop", (1, 5, 12, 24))
    def test_torn_tail_truncated_on_recovery(self, tmp_path, chop):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append("insert", 0.1, 0.1)
            wal.append("insert", 0.2, 0.2)
            wal.append("delete", 0.1, 0.1)
        whole = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(whole - chop)
        records, torn = WriteAheadLog.recover(path)
        assert torn
        assert records == [("insert", 0.1, 0.1), ("insert", 0.2, 0.2)]
        # the torn bytes are gone: a second scan is clean
        _, valid_bytes, torn_again = WriteAheadLog.scan(path)
        assert not torn_again and valid_bytes == path.stat().st_size

    def test_corrupt_frame_stops_replay_at_boundary(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append("insert", 0.1, 0.1)
            boundary = path.stat().st_size
            wal.append("insert", 0.2, 0.2)
        data = bytearray(path.read_bytes())
        data[boundary + 9] ^= 0xFF  # corrupt the second frame's payload
        path.write_bytes(bytes(data))
        records, valid_bytes, torn = WriteAheadLog.scan(path)
        assert torn and valid_bytes == boundary
        assert records == [("insert", 0.1, 0.1)]

    def test_reset_empties_the_log(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=False)
        wal.append("insert", 0.1, 0.1)
        wal.reset()
        assert wal.n_bytes == 0
        wal.append("delete", 0.2, 0.2)
        records, _, torn = WriteAheadLog.scan(path)
        assert records == [("delete", 0.2, 0.2)] and not torn
        wal.close()

    def test_missing_log_scans_empty(self, tmp_path):
        records, valid_bytes, torn = WriteAheadLog.scan(tmp_path / "absent.log")
        assert records == [] and valid_bytes == 0 and not torn


class TestGroupCommit:
    """``fsync_every=N``: appends stay unbuffered, fsync happens per group."""

    @staticmethod
    def _count_fsyncs(monkeypatch):
        import repro.storage.wal as walmod

        calls = []
        real = walmod.os.fsync
        monkeypatch.setattr(walmod.os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        return calls

    def test_one_fsync_per_group(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        with WriteAheadLog(tmp_path / "wal.log", fsync_every=8) as wal:
            for i in range(20):
                wal.append("insert", i / 100.0, 0.5)
            assert len(calls) == 2  # after appends 8 and 16
            wal.flush()
            assert len(calls) == 3  # the 4 pending appends
            wal.flush()
            assert len(calls) == 3  # no-op when clean
        assert len(calls) == 3  # close had nothing left to flush

    def test_default_is_fsync_per_append(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            for i in range(5):
                wal.append("insert", i / 10.0, 0.5)
        assert len(calls) == 5

    def test_fsync_off_never_syncs(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False, fsync_every=4) as wal:
            for i in range(10):
                wal.append("insert", i / 10.0, 0.5)
            wal.flush()
        assert calls == []

    def test_close_flushes_the_pending_group(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        wal = WriteAheadLog(tmp_path / "wal.log", fsync_every=100)
        wal.append("insert", 0.1, 0.2)
        assert calls == []
        wal.close()
        assert len(calls) == 1

    def test_reset_clears_the_unsynced_count(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        with WriteAheadLog(tmp_path / "wal.log", fsync_every=4) as wal:
            for i in range(3):
                wal.append("insert", i / 10.0, 0.5)
            wal.reset()
            assert len(calls) == 1  # reset syncs the truncation itself
            wal.flush()  # nothing pending: the reset discarded the group
            assert len(calls) == 1

    def test_unsynced_appends_still_hit_the_file(self, tmp_path):
        """Appends are unbuffered: a process kill (no OS crash) loses
        nothing even before the group's fsync."""
        wal = WriteAheadLog(tmp_path / "wal.log", fsync_every=64)
        for i in range(20):
            wal.append("insert", i / 100.0, 0.5)
        # scan the file *without* closing (no flush, no fsync)
        records, _, torn = WriteAheadLog.scan(tmp_path / "wal.log")
        assert len(records) == 20 and not torn
        wal.close()

    def test_validates_fsync_every(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", fsync_every=0)


class TestDurableGroupCommit:
    def test_checkpoint_flushes_the_pending_group(
        self, uniform_points, tmp_path, monkeypatch
    ):
        import repro.storage.wal as walmod

        calls = []
        real = walmod.os.fsync
        monkeypatch.setattr(walmod.os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        durable = DurableIndex(
            _zm(uniform_points), tmp_path, checkpoint_every=6, wal_fsync_every=4
        )
        rng = np.random.default_rng(5)
        for _ in range(6):
            durable.insert(float(rng.random()), float(rng.random()))
        # appends 1-4 synced as a group; 5-6 flushed by the checkpoint
        assert len(calls) >= 2
        assert durable._wal._unsynced == 0
        durable.close()

    def test_crash_recovery_with_group_commit_loses_nothing(
        self, uniform_points, tmp_path
    ):
        durable = DurableIndex(
            _zm(uniform_points), tmp_path, checkpoint_every=1024, wal_fsync_every=8
        )
        rng = np.random.default_rng(7)
        inserted = [(float(x), float(y)) for x, y in rng.random((40, 2))]
        for x, y in inserted:
            durable.insert(x, y)
        durable.simulate_crash()

        recovered, report = DurableIndex.recover(tmp_path, wal_fsync_every=8)
        assert report.replayed == 40
        assert not report.torn_tail
        for x, y in inserted:
            assert recovered.contains(x, y)
        recovered.close()


class TestBlockStoreDiskTier:
    def test_attach_dumps_current_blocks(self, tmp_path):
        store = BlockStore(capacity=4)
        store.pack_points(np.random.default_rng(0).random((10, 2)))
        store.attach_disk(BlockFile(tmp_path / "blocks.dat", 4))
        assert store.disk.n_blocks == store.n_blocks
        for block_id in range(store.n_blocks):
            np.testing.assert_array_equal(
                store.disk.read_block(block_id).points(),
                store.peek(block_id).points(),
            )

    def test_capacity_mismatch_rejected(self, tmp_path):
        store = BlockStore(capacity=4)
        with pytest.raises(ValueError, match="capacity"):
            store.attach_disk(BlockFile(tmp_path / "blocks.dat", 8))

    def test_cache_missing_read_serves_disk_state(self, tmp_path):
        """The file is load-bearing: mutate it behind the store's back and a
        cache-missing read must surface the disk version, not the stale
        in-memory object."""
        store = BlockStore(capacity=4, cache=PageCache(2, "lru"))
        store.pack_points(np.asarray([[0.1, 0.1], [0.2, 0.2]], dtype=float))
        store.attach_disk(BlockFile(tmp_path / "blocks.dat", 4))
        doctored = Block(0, 4)
        doctored.append(0.9, 0.9)
        store.disk.write_block(doctored)
        store.cache.invalidate(("b", 0))  # force the next read to miss
        back = store.read(0)
        np.testing.assert_array_equal(back.points(), [[0.9, 0.9]])

    def test_mutations_write_through(self, tmp_path):
        store = BlockStore(capacity=2)
        store.pack_points(np.asarray([[0.1, 0.1], [0.2, 0.2]], dtype=float))
        store.attach_disk(BlockFile(tmp_path / "blocks.dat", 2))
        overflow = store.allocate_overflow(store.base_block_id(0))
        overflow.append(0.3, 0.3)
        store.note_write(overflow.block_id)
        assert store.disk.read_block(store.base_block_id(0)).next_id == overflow.block_id
        np.testing.assert_array_equal(
            store.disk.read_block(overflow.block_id).points(), [[0.3, 0.3]]
        )

    def test_disk_handle_not_pickled(self, tmp_path):
        store = BlockStore(capacity=4)
        store.pack_points(np.random.default_rng(1).random((6, 2)))
        store.attach_disk(BlockFile(tmp_path / "blocks.dat", 4))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.disk is None
        assert clone.n_blocks == store.n_blocks

    def test_index_reads_hit_disk_under_eviction(self, uniform_points, tmp_path):
        """A whole index over a disk-backed store under a tiny cache: every
        answer must stay correct while reads actually re-deserialise."""
        index = _zm(uniform_points)
        index.attach_cache(PageCache(2, "lru"))  # constant eviction
        index.store.attach_disk(BlockFile(tmp_path / "blocks.dat", 16))
        for x, y in uniform_points[:80]:
            assert index.contains(float(x), float(y))
        assert index.stats.physical_reads > 0


class TestDurableIndex:
    def test_validates_arguments(self, uniform_points, tmp_path):
        index = _zm(uniform_points)
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurableIndex(index, tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError, match="backend"):
            DurableIndex(index, tmp_path, backend="tape")
        assert STORAGE_BACKENDS == ("memory", "disk")

    def test_checkpoint_cadence(self, uniform_points, tmp_path):
        durable = DurableIndex(
            _zm(uniform_points), tmp_path, checkpoint_every=4, fsync=False
        )
        assert durable.n_checkpoints == 1  # the initial checkpoint
        rng = np.random.default_rng(3)
        for _ in range(10):
            durable.insert(float(rng.random()), float(rng.random()))
        assert durable.n_checkpoints == 3  # after writes 4 and 8
        assert durable.wal_records_pending == 2
        durable.close()
        assert durable.wal_records_pending == 0  # close checkpoints

    def test_queries_delegate_to_wrapped_index(self, uniform_points, tmp_path):
        index = _zm(uniform_points)
        durable = DurableIndex(index, tmp_path, fsync=False)
        x, y = map(float, uniform_points[0])
        assert durable.contains(x, y)
        assert durable.wrapped is index
        assert durable.n_points == index.n_points
        durable.close()

    def test_recover_replays_wal_tail(self, uniform_points, tmp_path):
        durable = DurableIndex(
            _zm(uniform_points), tmp_path, checkpoint_every=64, fsync=False
        )
        inserted = [(0.111, 0.222), (0.333, 0.444), (0.555, 0.666)]
        for x, y in inserted:
            durable.insert(x, y)
        durable.delete(*map(float, uniform_points[0]))
        durable.simulate_crash()

        recovered, report = DurableIndex.recover(tmp_path, fsync=False)
        assert report.replayed == 4
        assert not report.torn_tail
        for x, y in inserted:
            assert recovered.contains(x, y)
        assert not recovered.contains(*map(float, uniform_points[0]))
        # recovery folded the tail into a fresh checkpoint
        assert recovered.wal_records_pending == 0
        recovered.close()

    def test_recover_disk_backend_reattaches_block_file(self, uniform_points, tmp_path):
        durable = DurableIndex(
            _zm(uniform_points), tmp_path, backend="disk", fsync=False
        )
        durable.insert(0.123, 0.456)
        durable.simulate_crash()
        recovered, report = DurableIndex.recover(tmp_path, backend="disk", fsync=False)
        assert report.replayed == 1
        store = recovered.wrapped.store
        assert store.disk is not None
        assert store.disk.n_blocks == store.n_blocks
        recovered.close()
        assert store.disk is None  # close released the handle

    def test_torn_wal_tail_loses_only_the_torn_record(self, uniform_points, tmp_path):
        durable = DurableIndex(
            _zm(uniform_points), tmp_path, checkpoint_every=64, fsync=False
        )
        durable.insert(0.101, 0.202)
        durable.insert(0.303, 0.404)
        durable.simulate_crash()
        wal_path = tmp_path / "wal.log"
        with open(wal_path, "r+b") as handle:
            handle.truncate(wal_path.stat().st_size - 3)

        recovered, report = DurableIndex.recover(tmp_path, fsync=False)
        assert report.torn_tail
        assert report.replayed == 1
        assert recovered.contains(0.101, 0.202)
        assert not recovered.contains(0.303, 0.404)
        recovered.close()

    def test_describe_mentions_torn_tail(self, uniform_points, tmp_path):
        durable = DurableIndex(_zm(uniform_points), tmp_path, fsync=False)
        durable.insert(0.1, 0.9)
        durable.simulate_crash()
        _, report = DurableIndex.recover(tmp_path, fsync=False)
        assert "1 WAL record" in report.describe()
        assert "torn" not in report.describe()
