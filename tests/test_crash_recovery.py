"""Crash-recovery fuzz matrix: kill-point × checkpoint-interval × backend.

Every case drives :func:`repro.workloads.run_crash_recovery`: replay a
seeded write-heavy scenario stream through a
:class:`~repro.storage.DurableIndex`, kill the "process" after a chosen
operation (optionally tearing the final WAL record), recover from
checkpoint + WAL tail, and verify exact agreement with an oracle over the
surviving prefix.  The harness raises
:class:`~repro.workloads.CrashRecoveryMismatch` on any disagreement, so
these tests simply assert the returned outcome's shape.

Tier-1 keeps the budgets small (400 points, 120 operations); the
``--runslow`` cases widen the kill-point grid and run the matrix over the
RSMI itself.
"""

import numpy as np
import pytest

from repro.baselines import GridFile, ZMConfig, ZMIndex
from repro.core import RSMI
from repro.nn import TrainingConfig
from repro.sharding import ShardedSpatialIndex, shard_index_factory
from repro.workloads import run_crash_recovery, scenario_by_name

_TRAINING = TrainingConfig(epochs=6, seed=0)


def _spec(n_ops=120, seed=29):
    return scenario_by_name("write-heavy").with_overrides(n_ops=n_ops, seed=seed)


def _zm_factory(points):
    return ZMIndex(ZMConfig(block_capacity=16, training=_TRAINING)).build(points)


def _grid_factory(points):
    return GridFile(block_capacity=16).build(points)


#: tier-1 index kinds: one learned (soundness-checked windows), one exact
_FACTORIES = {"ZM": (_zm_factory, False), "Grid": (_grid_factory, True)}


@pytest.fixture()
def crash_points(uniform_points):
    return uniform_points[:400]


class TestKillPointMatrix:
    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    @pytest.mark.parametrize("kill_at", (0.25, 0.75))
    @pytest.mark.parametrize("checkpoint_every", (16, 64))
    def test_kill_and_recover(self, crash_points, tmp_path, kind, kill_at, checkpoint_every):
        factory, exact = _FACTORIES[kind]
        outcome = run_crash_recovery(
            factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=kill_at,
            checkpoint_every=checkpoint_every,
            exact=exact,
        )
        assert outcome.writes_survived == outcome.writes_applied
        assert outcome.kill_at == int(round(kill_at * 120))
        # the WAL never accumulates a full interval: a checkpoint fires at it
        assert outcome.replayed < checkpoint_every
        assert outcome.checkpoints >= 1

    def test_kill_before_any_operation(self, crash_points, tmp_path):
        outcome = run_crash_recovery(
            _grid_factory, _spec(), crash_points, tmp_path, kill_at=0
        )
        assert outcome.writes_applied == 0
        assert outcome.replayed == 0
        assert outcome.n_points == crash_points.shape[0]

    def test_kill_after_the_whole_stream(self, crash_points, tmp_path):
        outcome = run_crash_recovery(
            _grid_factory, _spec(), crash_points, tmp_path, kill_at=1.0
        )
        assert outcome.kill_at == 120
        assert outcome.writes_survived == outcome.writes_applied > 0

    def test_checkpoint_every_write_leaves_empty_wal(self, crash_points, tmp_path):
        outcome = run_crash_recovery(
            _grid_factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=0.5,
            checkpoint_every=1,
        )
        assert outcome.replayed == 0  # every write was folded into a checkpoint
        assert outcome.checkpoints >= outcome.writes_applied


class TestTornTail:
    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    def test_torn_record_is_lost_everything_else_kept(self, crash_points, tmp_path, kind):
        factory, exact = _FACTORIES[kind]
        outcome = run_crash_recovery(
            factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=0.6,
            checkpoint_every=64,
            exact=exact,
            torn_tail=True,
        )
        assert outcome.torn_tail
        assert outcome.writes_survived == outcome.writes_applied - 1

    def test_torn_tail_ignored_on_checkpoint_boundary(self, crash_points, tmp_path):
        # checkpoint_every=1 keeps the WAL empty, so there is nothing to tear
        outcome = run_crash_recovery(
            _grid_factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=0.5,
            checkpoint_every=1,
            torn_tail=True,
        )
        assert not outcome.torn_tail
        assert outcome.writes_survived == outcome.writes_applied


class TestLostCheckpointRename:
    """Kill between ``os.replace`` and the directory fsync: the rename rolls
    back, the old checkpoint resurfaces, and the un-reset WAL must replay
    every record since it — losing nothing."""

    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    def test_rolled_back_rename_loses_nothing(self, crash_points, tmp_path, kind):
        factory, exact = _FACTORIES[kind]
        outcome = run_crash_recovery(
            factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=0.6,
            checkpoint_every=64,
            exact=exact,
            lost_checkpoint_rename=True,
        )
        assert outcome.writes_survived == outcome.writes_applied
        # the whole tail since the surviving (old) checkpoint replays
        assert outcome.replayed > 0

    def test_lost_rename_composes_with_torn_tail(self, crash_points, tmp_path):
        outcome = run_crash_recovery(
            _grid_factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=0.6,
            checkpoint_every=64,
            lost_checkpoint_rename=True,
            torn_tail=True,
        )
        assert outcome.torn_tail
        assert outcome.writes_survived == outcome.writes_applied - 1


class TestDiskBackend:
    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    def test_disk_backed_recovery(self, crash_points, tmp_path, kind):
        """With backend='disk' the block mirror is rebuilt on recovery and
        the store-vs-oracle sweep still holds exactly."""
        factory, exact = _FACTORIES[kind]
        outcome = run_crash_recovery(
            factory,
            _spec(),
            crash_points,
            tmp_path,
            kill_at=0.5,
            checkpoint_every=32,
            backend="disk",
            exact=exact,
        )
        assert outcome.writes_survived == outcome.writes_applied

    def test_disk_backed_torn_tail(self, crash_points, tmp_path):
        outcome = run_crash_recovery(
            _zm_factory,
            _spec(seed=31),
            crash_points,
            tmp_path,
            kill_at=0.7,
            checkpoint_every=64,
            backend="disk",
            exact=False,
            torn_tail=True,
        )
        assert outcome.torn_tail
        assert outcome.writes_survived == outcome.writes_applied - 1


class TestShardedIndex:
    @staticmethod
    def _factory(kind):
        def factory(points):
            sharded = ShardedSpatialIndex(
                shard_index_factory("ZM", block_capacity=16, training=_TRAINING)
                if kind == "ZM"
                else shard_index_factory(kind, block_capacity=16),
                n_shards=2,
                policy="grid",
            )
            return sharded.build(points)

        return factory

    def test_sharded_kill_and_recover(self, crash_points, tmp_path):
        outcome = run_crash_recovery(
            self._factory("Grid"),
            _spec(seed=37),
            crash_points,
            tmp_path,
            kill_at=0.5,
            checkpoint_every=24,
            exact=True,
        )
        assert outcome.writes_survived == outcome.writes_applied

    def test_sharded_disk_backend_mirrors_each_shard(self, crash_points, tmp_path):
        """Block-store-backed shard kinds get one block file per shard;
        recovery re-attaches them and still agrees with the oracle."""
        outcome = run_crash_recovery(
            self._factory("ZM"),
            _spec(seed=37),
            crash_points,
            tmp_path,
            kill_at=0.5,
            checkpoint_every=24,
            backend="disk",
            exact=False,
        )
        assert outcome.writes_survived == outcome.writes_applied
        assert sorted(p.name for p in tmp_path.glob("shard-*.blocks")) == [
            "shard-0.blocks",
            "shard-1.blocks",
        ]


    def test_checkpoint_bytes_do_not_depend_on_the_directory(self, crash_points, tmp_path):
        """Two copies of one history in directories whose paths differ in
        length write byte-identical checkpoints: no block-file path is
        pickled.  Recovery re-attaches the mirrors under its own directory
        and still agrees with the oracle."""
        from repro.core.persistence import load_index
        from repro.storage import DurableIndex

        factory = shard_index_factory(
            "RSMI", block_capacity=16, partition_threshold=100, training=_TRAINING
        )
        writes = np.random.default_rng(71).random((40, 2)).tolist()
        deleted = tuple(crash_points[0].tolist())
        directories = (tmp_path / "a", tmp_path / "a-much-longer-directory" / "nested")
        checkpoints = []
        for directory in directories:
            sharded = ShardedSpatialIndex(factory, n_shards=2, policy="grid")
            durable = DurableIndex(
                sharded.build(crash_points), directory, checkpoint_every=1_000, backend="disk"
            )
            for x, y in writes:
                durable.insert(x, y)
            assert durable.delete(*deleted)
            durable.checkpoint()
            checkpoints.append(durable.checkpoint_path.read_bytes())
            durable.insert(0.5, 0.25)  # one WAL record past the checkpoint
            durable.simulate_crash()
        assert checkpoints[0] == checkpoints[1]

        directory = directories[1]
        loaded = load_index(directory / durable.checkpoint_path.name)
        assert all(shard.disk_path is None for shard in loaded.shards)
        recovered, report = DurableIndex.recover(directory, backend="disk")
        assert report.replayed == 1
        inner = recovered.wrapped
        assert all(shard.disk_path.parent == directory for shard in inner.shards)
        live = {tuple(p) for p in crash_points.tolist()} - {deleted}
        live |= {tuple(p) for p in writes} | {(0.5, 0.25)}
        assert inner.n_points == len(live)
        for x, y in live:
            assert recovered.contains(x, y)
        assert not recovered.contains(*deleted)
        recovered.close()


class TestKillDuringShardSplit:
    """Kill points *inside* an in-flight shard split (the online rebalancer's
    migration).  Checkpoints taken mid-migration persist the pre-swap
    topology (the rescue buffer and half-built children are deliberately
    not pickled), so recovery must either come back with the pre-split
    shard layout or — when a checkpoint ran after the swap — with the
    completed post-split layout.  Never anything in between, and never a
    lost write."""

    @staticmethod
    def _build(points, tmp_path, checkpoint_every=64, backend="memory"):
        from repro.storage import DurableIndex

        sharded = ShardedSpatialIndex(
            shard_index_factory("Grid", block_capacity=16), n_shards=2, policy="grid"
        ).build(points)
        sharded.enable_rebalancing()
        durable = DurableIndex(
            sharded, tmp_path, checkpoint_every=checkpoint_every, backend=backend
        )
        return sharded, durable

    @staticmethod
    def _assert_topology_consistent(sharded, live):
        assert sharded.policy.n_shards == sharded.n_shards == len(sharded.shards)
        for shard_id, shard in enumerate(sharded.shards):
            assert shard.shard_id == shard_id
        assert sharded.n_points == len(live)
        for x, y in live:
            assert sharded.contains(x, y)
            # routing and storage agree: the owning shard holds the point
            owner = sharded.router.shard_for_point(x, y)
            assert sharded.shards[owner].index.contains(x, y)

    @pytest.mark.parametrize("kill_after_stages", (1, 2, 3))
    def test_kill_mid_split_rolls_back_to_pre_split_layout(
        self, crash_points, tmp_path, kill_after_stages
    ):
        from repro.sharding import SplitMigration

        sharded, durable = self._build(crash_points, tmp_path)
        live = {tuple(map(float, p)) for p in crash_points}
        migration = SplitMigration(sharded, shard_id=0)
        rng = np.random.default_rng(47)
        for _ in range(kill_after_stages):
            assert not migration.step()  # still in flight at the kill point
            # writes keep landing in the splitting shard between stages
            for _ in range(4):
                x, y = float(rng.random() * 0.5), float(rng.random())
                if (x, y) not in live:
                    durable.insert(x, y)
                    live.add((x, y))
        # the rescue buffer caught the writes that landed mid-flight
        assert migration._rescue
        durable.simulate_crash()

        from repro.storage import DurableIndex

        recovered, report = DurableIndex.recover(tmp_path)
        inner = recovered.wrapped
        # the swap never happened, so recovery lands on the 2-shard layout
        assert inner.n_shards == 2
        self._assert_topology_consistent(inner, live)
        assert report.replayed == len(live) - crash_points.shape[0]

    def test_kill_after_swap_before_checkpoint_rolls_back_whole_split(
        self, crash_points, tmp_path
    ):
        from repro.sharding import SplitMigration
        from repro.storage import DurableIndex

        sharded, durable = self._build(crash_points, tmp_path)
        live = {tuple(map(float, p)) for p in crash_points}
        migration = SplitMigration(sharded, shard_id=0)
        rng = np.random.default_rng(53)
        while not migration.step():
            x, y = float(rng.random() * 0.5), float(rng.random())
            if (x, y) not in live:
                durable.insert(x, y)
                live.add((x, y))
        assert sharded.n_shards == 3  # the swap completed in memory...
        durable.simulate_crash()
        recovered, _ = DurableIndex.recover(tmp_path)
        inner = recovered.wrapped
        # ...but no checkpoint captured it: recovery replays the WAL through
        # the pre-split layout and loses nothing
        assert inner.n_shards == 2
        self._assert_topology_consistent(inner, live)

    def test_checkpoint_after_swap_persists_the_split(self, crash_points, tmp_path):
        from repro.sharding import SplitMigration
        from repro.storage import DurableIndex

        sharded, durable = self._build(crash_points, tmp_path)
        live = {tuple(map(float, p)) for p in crash_points}
        migration = SplitMigration(sharded, shard_id=0)
        while not migration.step():
            pass
        durable.checkpoint()
        rng = np.random.default_rng(59)
        for _ in range(8):
            x, y = float(rng.random()), float(rng.random())
            if (x, y) not in live:
                durable.insert(x, y)
                live.add((x, y))
        durable.simulate_crash()
        recovered, report = DurableIndex.recover(tmp_path)
        inner = recovered.wrapped
        # the checkpoint captured the completed swap: the split survives,
        # including the adaptive policy's lineage-based routing
        assert inner.n_shards == 3
        assert inner.policy.describe().startswith("adaptive[")
        self._assert_topology_consistent(inner, live)
        assert report.replayed == len(live) - crash_points.shape[0]

    def test_checkpoint_every_write_mid_migration(self, crash_points, tmp_path):
        """checkpoint_every=1 forces a full pickle between every migration
        stage; the un-pickled rescue buffer must still catch the writes."""
        from repro.sharding import SplitMigration
        from repro.storage import DurableIndex

        sharded, durable = self._build(crash_points, tmp_path, checkpoint_every=1)
        live = {tuple(map(float, p)) for p in crash_points}
        migration = SplitMigration(sharded, shard_id=0)
        rng = np.random.default_rng(61)
        done = False
        while not done:
            done = migration.step()
            x, y = float(rng.random() * 0.5), float(rng.random())
            if (x, y) not in live:
                durable.insert(x, y)  # checkpoints immediately, mid-flight
                live.add((x, y))
        assert sharded.n_shards == 3
        self._assert_topology_consistent(sharded, live)
        durable.simulate_crash()
        recovered, _ = DurableIndex.recover(tmp_path, checkpoint_every=1)
        inner = recovered.wrapped
        # every checkpoint ran before the swap, except possibly the last
        assert inner.n_shards in (2, 3)
        self._assert_topology_consistent(inner, live)

    def test_disk_backed_split_recovers_per_shard_mirrors(self, tmp_path):
        from repro.sharding import SplitMigration
        from repro.storage import DurableIndex

        points = np.random.default_rng(67).random((400, 2))
        sharded = ShardedSpatialIndex(
            shard_index_factory("ZM", block_capacity=16, training=_TRAINING),
            n_shards=2,
            policy="grid",
        ).build(points)
        sharded.enable_rebalancing()
        durable = DurableIndex(sharded, tmp_path, checkpoint_every=64, backend="disk")
        live = {tuple(map(float, p)) for p in points}
        migration = SplitMigration(sharded, shard_id=0)
        while not migration.step():
            pass
        assert sharded.n_shards == 3
        # the children took over the parent's mirror slot plus a new file
        assert sorted(p.name for p in tmp_path.glob("shard-*.blocks")) == [
            "shard-0.blocks",
            "shard-1.blocks",
            "shard-2.blocks",
        ]
        durable.checkpoint()
        durable.simulate_crash()
        recovered, _ = DurableIndex.recover(tmp_path, backend="disk")
        inner = recovered.wrapped
        assert inner.n_shards == 3
        for x, y in list(live)[:100]:
            assert recovered.contains(x, y)
        recovered.close()


@pytest.mark.slow
class TestSlowFuzz:
    """The wide matrix: full kill-point grid, larger budgets, RSMI itself."""

    @pytest.mark.parametrize("kill_at", (0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    @pytest.mark.parametrize("torn_tail", (False, True))
    def test_grid_full_quartiles(self, uniform_points, tmp_path, kill_at, torn_tail):
        outcome = run_crash_recovery(
            _grid_factory,
            _spec(n_ops=400, seed=41),
            uniform_points,
            tmp_path,
            kill_at=kill_at,
            checkpoint_every=48,
            torn_tail=torn_tail,
        )
        assert outcome.writes_survived <= outcome.writes_applied

    @pytest.mark.parametrize("kill_at", (0.25, 0.5, 0.75))
    def test_rsmi_disk_backed(self, uniform_points, small_rsmi_config, tmp_path, kill_at):
        def factory(points):
            return RSMI(small_rsmi_config).build(points)

        outcome = run_crash_recovery(
            factory,
            _spec(n_ops=200, seed=43),
            uniform_points,
            tmp_path,
            kill_at=kill_at,
            checkpoint_every=64,
            backend="disk",
            exact=False,
        )
        assert outcome.writes_survived == outcome.writes_applied

    @pytest.mark.parametrize("seed", (11, 17, 23, 29))
    def test_seed_sweep_zm_torn(self, uniform_points, tmp_path, seed):
        outcome = run_crash_recovery(
            _zm_factory,
            _spec(n_ops=300, seed=seed),
            uniform_points,
            tmp_path,
            kill_at=0.8,
            checkpoint_every=32,
            backend="disk",
            exact=False,
            torn_tail=True,
        )
        assert outcome.torn_tail == (outcome.writes_survived == outcome.writes_applied - 1)
