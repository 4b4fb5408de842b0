"""Tests of index persistence (save_index / load_index).

Includes the paged-storage round-trip suite: overflow chains and
``chain_depths()`` must survive a save/load, logical access accounting must
be identical on a freshly loaded index, and page-cache **state** must never
be persisted — a loaded index always starts cold (configuration only).
"""

import pickle

import numpy as np
import pytest

from repro.baselines import GridFile, ZMConfig, ZMIndex
from repro.core import RSMI, load_index, save_index
from repro.core.persistence import FORMAT_VERSION, IndexArtifact, PersistenceError
from repro.geometry import Rect
from repro.nn import TrainingConfig
from repro.storage import PageCache


class TestPickledSize:
    def test_pickle_carries_no_training_activations(self, built_rsmi):
        """Training caches (each layer's last batch) are dropped when
        training ends, so a checkpoint stays close to the index's size."""
        assert len(pickle.dumps(built_rsmi)) <= 4 * built_rsmi.size_bytes()
        for leaf in built_rsmi.iter_leaves():
            for layer in leaf.model.layers:
                assert layer._last_input is None and layer._last_output is None


class TestSaveLoadRoundtrip:
    def test_rsmi_roundtrip_preserves_queries(self, built_rsmi, skewed_points, tmp_path):
        path = save_index(built_rsmi, tmp_path / "rsmi.idx")
        loaded = load_index(path, expected_type=RSMI)
        assert loaded.n_points == built_rsmi.n_points
        assert loaded.height == built_rsmi.height
        assert loaded.error_bounds() == built_rsmi.error_bounds()
        for x, y in skewed_points[:100]:
            assert loaded.contains(float(x), float(y))
        window = Rect(0.2, 0.0, 0.4, 0.05)
        assert loaded.window_query_exact(window).count == built_rsmi.window_query_exact(window).count

    def test_loaded_index_supports_updates(self, built_rsmi, tmp_path):
        loaded = load_index(save_index(built_rsmi, tmp_path / "rsmi.idx"))
        loaded.insert(0.404, 0.505)
        assert loaded.contains(0.404, 0.505)
        # the original in-memory index is unaffected (deep copy through pickling)
        assert not built_rsmi.contains(0.404, 0.505)

    def test_baseline_roundtrip(self, uniform_points, tmp_path):
        grid = GridFile(block_capacity=20).build(uniform_points)
        loaded = load_index(save_index(grid, tmp_path / "grid.idx"), expected_type=GridFile)
        assert loaded.n_points == grid.n_points
        assert loaded.contains(*map(float, uniform_points[0]))

    def test_parent_directories_created(self, built_rsmi, tmp_path):
        path = save_index(built_rsmi, tmp_path / "nested" / "deep" / "rsmi.idx")
        assert path.exists()


def _zm_with_overflow_chains(points):
    """A small ZM whose store has grown real overflow chains via inserts."""
    index = ZMIndex(
        ZMConfig(block_capacity=16, training=TrainingConfig(epochs=6, seed=0))
    ).build(points)
    rng = np.random.default_rng(23)
    # hammer one region so chains actually grow
    for x, y in rng.uniform(0.4, 0.45, size=(80, 2)):
        index.insert(float(x), float(y))
    assert index.store.n_overflow_blocks > 0
    return index


class TestPagedStorageRoundtrip:
    def test_overflow_chains_and_depths_survive(self, uniform_points, tmp_path):
        index = _zm_with_overflow_chains(uniform_points)
        loaded = load_index(save_index(index, tmp_path / "zm.idx"), expected_type=ZMIndex)
        assert loaded.store.n_overflow_blocks == index.store.n_overflow_blocks
        assert loaded.store.n_base_blocks == index.store.n_base_blocks
        assert loaded.store.chain_depths() == index.store.chain_depths()
        assert max(loaded.store.chain_depths()) >= 1
        # every live point is still reachable through the chains
        assert loaded.n_points == index.n_points
        np.testing.assert_array_equal(loaded.store.all_points(), index.store.all_points())

    def test_access_accounting_identical_cold_vs_warmed(self, uniform_points, tmp_path):
        """Logical reads on a loaded index equal the original's, whether the
        original ran cold or with a warm cache."""
        index = _zm_with_overflow_chains(uniform_points)
        index.attach_cache(PageCache(32, "lru"))
        sample = uniform_points[:60]
        for x, y in sample:  # warm the cache
            index.contains(float(x), float(y))

        loaded = load_index(save_index(index, tmp_path / "zm.idx"))

        index.stats.reset()
        warm_answers = [index.contains(float(x), float(y)) for x, y in sample]
        loaded.stats.reset()
        cold_answers = [loaded.contains(float(x), float(y)) for x, y in sample]

        assert cold_answers == warm_answers
        assert loaded.stats.logical_reads == index.stats.logical_reads
        # the original served from a warm cache; the loaded one started cold
        assert index.stats.physical_reads < index.stats.logical_reads
        assert loaded.stats.physical_reads > index.stats.physical_reads

    def test_cache_state_not_persisted(self, uniform_points, tmp_path):
        """Pickling keeps the cache's configuration but drops its contents."""
        index = _zm_with_overflow_chains(uniform_points)
        index.attach_cache(PageCache(32, "clock"))
        for x, y in uniform_points[:60]:
            index.contains(float(x), float(y))
        assert len(index.cache) > 0 and index.cache.hits > 0

        loaded = load_index(save_index(index, tmp_path / "zm.idx"))
        assert loaded.cache is not None
        assert loaded.cache.capacity == 32 and loaded.cache.policy == "clock"
        assert len(loaded.cache) == 0
        assert loaded.cache.hits == 0 and loaded.cache.misses == 0
        # the loaded store still routes reads through the (cold) cache
        loaded.contains(*map(float, uniform_points[0]))
        assert loaded.cache.misses > 0

    def test_rsmi_store_roundtrip_with_cache(self, built_rsmi, skewed_points, tmp_path):
        """The RSMI's block store keeps its cache config through a round-trip
        without perturbing the session-scoped fixture."""
        loaded = load_index(save_index(built_rsmi, tmp_path / "rsmi.idx"))
        loaded.attach_cache(PageCache(16))
        reloaded = load_index(save_index(loaded, tmp_path / "rsmi2.idx"))
        assert reloaded.cache is not None and len(reloaded.cache) == 0
        assert reloaded.store.chain_depths() == built_rsmi.store.chain_depths()
        for x, y in skewed_points[:50]:
            assert reloaded.contains(float(x), float(y))


class TestAtomicSave:
    """save_index must be crash-atomic: an interrupted save leaves the
    previous artefact untouched and no temp debris behind."""

    def test_failed_save_preserves_existing_artifact(
        self, uniform_points, tmp_path, monkeypatch
    ):
        grid = GridFile(block_capacity=20).build(uniform_points)
        path = save_index(grid, tmp_path / "grid.idx")
        original_bytes = path.read_bytes()

        import repro.core.persistence as persistence

        def partial_write_then_die(obj, handle, protocol=None):
            handle.write(b"some bytes that made it out before the crash")
            raise OSError("simulated full disk mid-save")

        monkeypatch.setattr(persistence.pickle, "dump", partial_write_then_die)
        with pytest.raises(OSError):
            save_index(grid, path)
        # the artefact in place is byte-identical and still loads
        assert path.read_bytes() == original_bytes
        loaded = load_index(path, expected_type=GridFile)
        assert loaded.n_points == grid.n_points

    def test_failed_save_leaves_no_temp_files(self, uniform_points, tmp_path, monkeypatch):
        grid = GridFile(block_capacity=20).build(uniform_points)

        import repro.core.persistence as persistence

        def die(obj, handle, protocol=None):
            raise OSError("simulated failure")

        monkeypatch.setattr(persistence.pickle, "dump", die)
        with pytest.raises(OSError):
            save_index(grid, tmp_path / "grid.idx")
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_only_the_artifact(self, uniform_points, tmp_path):
        grid = GridFile(block_capacity=20).build(uniform_points)
        path = save_index(grid, tmp_path / "grid.idx")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_overwrite_is_atomic_replacement(self, uniform_points, tmp_path):
        grid = GridFile(block_capacity=20).build(uniform_points)
        path = save_index(grid, tmp_path / "grid.idx")
        grid.insert(0.123, 0.456)
        save_index(grid, path)
        assert load_index(path).contains(0.123, 0.456)


class TestTruncatedArtifacts:
    """A valid magic header followed by a cut-off pickle stream (what a
    crash mid-write used to produce) must fail as PersistenceError with a
    clear message, never a bare EOFError/UnpicklingError."""

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header-only.idx"
        path.write_bytes(b"RSMIREPRO")
        with pytest.raises(PersistenceError, match="truncated"):
            load_index(path)

    @pytest.mark.parametrize("keep_fraction", (0.25, 0.5, 0.9, 0.99))
    def test_truncated_payload_rejected(self, uniform_points, tmp_path, keep_fraction):
        grid = GridFile(block_capacity=20).build(uniform_points)
        path = save_index(grid, tmp_path / "grid.idx")
        data = path.read_bytes()
        keep = max(len(b"RSMIREPRO") + 1, int(len(data) * keep_fraction))
        torn = tmp_path / "torn.idx"
        torn.write_bytes(data[:keep])
        with pytest.raises(PersistenceError, match="truncated|corrupt"):
            load_index(torn)

    def test_truncation_error_names_the_file(self, uniform_points, tmp_path):
        grid = GridFile(block_capacity=20).build(uniform_points)
        path = save_index(grid, tmp_path / "grid.idx")
        torn = tmp_path / "torn.idx"
        torn.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(PersistenceError) as excinfo:
            load_index(torn)
        assert "torn.idx" in str(excinfo.value)


class TestPersistenceErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "does-not-exist.idx")

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"hello world, definitely not an index")
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_wrong_expected_type(self, built_rsmi, tmp_path):
        path = save_index(built_rsmi, tmp_path / "rsmi.idx")
        with pytest.raises(PersistenceError):
            load_index(path, expected_type=GridFile)

    def test_future_format_version_rejected(self, built_rsmi, tmp_path):
        path = tmp_path / "future.idx"
        artifact = IndexArtifact(
            format_version=FORMAT_VERSION + 1,
            library_version="99.0",
            index_type="RSMI",
            payload=built_rsmi,
        )
        with path.open("wb") as handle:
            handle.write(b"RSMIREPRO")
            pickle.dump(artifact, handle)
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_envelope_missing_rejected(self, tmp_path):
        path = tmp_path / "raw.idx"
        with path.open("wb") as handle:
            handle.write(b"RSMIREPRO")
            pickle.dump({"not": "an artifact"}, handle)
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_describe(self, built_rsmi):
        artifact = IndexArtifact(FORMAT_VERSION, "1.0.0", "RSMI", built_rsmi)
        assert "RSMI" in artifact.describe()
        assert "1.0.0" in artifact.describe()
