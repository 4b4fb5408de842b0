"""The Z-order model (ZM) learned spatial index [46].

ZM is the existing learned spatial index the paper compares against.  It maps
every point to a Z-value (Morton code) computed from its raw coordinates over
a fixed-resolution grid, sorts the points by Z-value and learns a recursive
model index (RMI [26]) that predicts a point's rank from its Z-value.  The
paper implements a three-level recursive version with 1, sqrt(n/B^2) and
n/B^2 sub-models per level (Section 6.1); this module follows that layout.

Query processing follows the paper:

* point queries predict a block and binary-search the error range using the
  per-block Z-value ranges ("binary search on the Z-values is used to reduce
  the number of block accesses", Section 6.2.2),
* window queries locate the blocks of the bottom-left and top-right corners
  of the window (the minimum and maximum Z-values intersecting it) and scan
  the range in between,
* kNN queries use the paper's expanding-window strategy because ZM has no
  native kNN algorithm (Section 6.2.4).

``ZMConfig(layout="hilbert")`` swaps the Morton order for a **Hilbert block
layout**: points are sorted by Hilbert key before packing, and window
queries scan the window's contiguous key *runs* (see
:mod:`repro.storage.layout`) instead of the corner-to-corner span — the
Hilbert curve's better clustering yields ~40% fewer runs, so spanning
windows touch fewer, more contiguous blocks.  Everything else (the learned
hierarchy, point queries, updates) is curve-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.baselines.common import expanding_window_knn
from repro.baselines.interface import SpatialIndex
from repro.curves import ZCurve
from repro.curves.hilbert import HilbertCurve
from repro.geometry import Rect, mbr_of_points
from repro.nn import MLPRegressor, TrainingConfig, train_regressor
from repro.storage import AccessStats, BlockStore, PageCache
from repro.storage.layout import window_key_runs

__all__ = ["ZMConfig", "ZMIndex", "ZM_LAYOUTS"]

#: block layouts: ``"z"`` is the paper's ZM (Morton order, window scans the
#: whole corner-to-corner key span); ``"hilbert"`` sorts blocks by Hilbert
#: key and scans windows per contiguous key run instead
ZM_LAYOUTS = ("z", "hilbert")


@dataclass(frozen=True)
class ZMConfig:
    """Build parameters of the ZM baseline."""

    block_capacity: int = 100
    curve_order: int = 16
    hidden_size: int = 16
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0
    #: physical block layout — see :data:`ZM_LAYOUTS`
    layout: str = "z"

    def __post_init__(self) -> None:
        if self.block_capacity < 1:
            raise ValueError("block_capacity must be >= 1")
        if not 1 <= self.curve_order <= 31:
            raise ValueError("curve_order must lie in [1, 31]")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.layout not in ZM_LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; available: {ZM_LAYOUTS}")


class _ZMLevelModel:
    """One sub-model of the recursive hierarchy: Z-value -> rank in [0, 1]."""

    def __init__(self, hidden_size: int, rng: np.random.Generator):
        self.model = MLPRegressor(1, (hidden_size,), activation="sigmoid", rng=rng)
        self.err_below = 0
        self.err_above = 0
        self.trained = False

    def predict_rank(self, z_norm: np.ndarray) -> np.ndarray:
        return np.clip(self.model.predict(np.asarray(z_norm, dtype=float).reshape(-1, 1)), 0.0, 1.0)


class ZMIndex(SpatialIndex):
    """The Z-order learned model baseline."""

    name = "ZM"
    # model mispredictions bound the scan range approximately: window
    # answers can miss points, so ZM is not an exact-agreement index
    supports_exact_results = False

    def __init__(
        self,
        config: Optional[ZMConfig] = None,
        stats: Optional[AccessStats] = None,
        cache: Optional[PageCache] = None,
    ):
        super().__init__(stats, cache)
        self.config = config if config is not None else ZMConfig()
        self.store = BlockStore(self.config.block_capacity, self.stats, cache=self.cache)
        self.curve = (
            HilbertCurve(self.config.curve_order)
            if self.config.layout == "hilbert"
            else ZCurve(self.config.curve_order)
        )
        self._n_points = 0
        #: cardinality at build time; the rank -> block mapping and the error
        #: bounds are defined relative to it, so it must not drift with updates
        self._n_built = 0
        self._data_space: Optional[Rect] = None
        self._levels: list[list[_ZMLevelModel]] = []
        self._block_zmin = np.empty(0, dtype=np.int64)
        self._block_zmax = np.empty(0, dtype=np.int64)
        # lazily rebuilt monotone envelopes of the (possibly widened)
        # per-block key ranges, used by the run-scanning window path
        self._envelopes: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._z_max_value = float(self.curve.n_cells - 1)

    # -- Z-value computation --------------------------------------------------------

    def _cell_of(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        space = self._data_space if self._data_space is not None else Rect.unit()
        width = space.width or 1.0
        height = space.height or 1.0
        side = self.curve.side
        cell_x = np.clip(((xs - space.xlo) / width * side).astype(np.int64), 0, side - 1)
        cell_y = np.clip(((ys - space.ylo) / height * side).astype(np.int64), 0, side - 1)
        return cell_x, cell_y

    def z_value(self, x: float, y: float) -> int:
        """Z-value (Morton code) of a point over the fixed-resolution grid."""
        cell_x, cell_y = self._cell_of(np.array([x]), np.array([y]))
        return int(self.curve.encode_many(cell_x, cell_y)[0])

    def _z_values(self, points: np.ndarray) -> np.ndarray:
        cell_x, cell_y = self._cell_of(points[:, 0], points[:, 1])
        return self.curve.encode_many(cell_x, cell_y)

    # -- build -----------------------------------------------------------------------

    def build(self, points: np.ndarray) -> "ZMIndex":
        points = self._validate_points(points)
        self._data_space = mbr_of_points(points)
        if self.cache is not None:
            # a fresh store reuses block ids 0..N: resident pages from the
            # old store would alias them and produce phantom hits
            self.cache.clear()
        self.store = BlockStore(self.config.block_capacity, self.stats, cache=self.cache)

        z_values = self._z_values(points)
        order = np.argsort(z_values, kind="stable")
        sorted_points = points[order]
        sorted_z = z_values[order]
        n = sorted_points.shape[0]
        self._n_points = n
        self._n_built = n

        self.store.pack_points(sorted_points)
        capacity = self.config.block_capacity
        n_blocks = self.store.n_base_blocks
        self._block_zmin = np.array(
            [sorted_z[i * capacity] for i in range(n_blocks)], dtype=np.int64
        )
        self._block_zmax = np.array(
            [sorted_z[min((i + 1) * capacity, n) - 1] for i in range(n_blocks)], dtype=np.int64
        )
        self._envelopes = None

        self._train_hierarchy(sorted_z, n)
        return self

    def _train_hierarchy(self, sorted_z: np.ndarray, n: int) -> None:
        """Train the three-level recursive model (1, sqrt(n/B^2), n/B^2 models)."""
        rng = np.random.default_rng(self.config.seed)
        capacity = self.config.block_capacity
        m2 = max(1, math.ceil(n / (capacity * capacity)))
        m1 = max(1, math.ceil(math.sqrt(m2)))
        level_sizes = [1, m1, m2]

        z_norm = sorted_z / max(self._z_max_value, 1.0)
        ranks = np.arange(n) / max(n - 1, 1)
        true_blocks = np.arange(n) // capacity
        n_blocks = self.store.n_base_blocks

        self._levels = [
            [_ZMLevelModel(self.config.hidden_size, rng) for _ in range(size)]
            for size in level_sizes
        ]

        assignment = np.zeros(n, dtype=np.int64)
        for level, models in enumerate(self._levels):
            next_assignment = np.zeros(n, dtype=np.int64)
            for model_idx, model in enumerate(models):
                member_mask = assignment == model_idx
                members = np.nonzero(member_mask)[0]
                if members.size == 0:
                    continue
                train_regressor(
                    model.model,
                    z_norm[members].reshape(-1, 1),
                    ranks[members],
                    self.config.training,
                )
                model.trained = True
                predictions = model.predict_rank(z_norm[members])
                if level < len(self._levels) - 1:
                    next_size = len(self._levels[level + 1])
                    routed = np.clip(
                        (predictions * next_size).astype(np.int64), 0, next_size - 1
                    )
                    next_assignment[members] = routed
                else:
                    predicted_blocks = np.clip(
                        (predictions * n).astype(np.int64) // capacity, 0, n_blocks - 1
                    )
                    signed = true_blocks[members] - predicted_blocks
                    model.err_above = int(max(signed.max(initial=0), 0))
                    model.err_below = int(max((-signed).max(initial=0), 0))
            assignment = next_assignment

    # -- prediction ---------------------------------------------------------------------

    def _predict_block(self, z: int) -> tuple[int, int, int]:
        """Predicted block position and error bounds for a Z-value."""
        if not self._levels:
            raise RuntimeError("index has not been built yet")
        z_norm = np.array([z / max(self._z_max_value, 1.0)])
        model = self._levels[0][0]
        prediction = float(model.predict_rank(z_norm)[0])
        for level in range(1, len(self._levels)):
            model = self._levels[level][self._route_index(level, prediction)]
            prediction = float(model.predict_rank(z_norm)[0])
        n_blocks = self.store.n_base_blocks
        predicted = int(
            np.clip(int(prediction * self._n_built) // self.config.block_capacity, 0, n_blocks - 1)
        )
        return predicted, model.err_below, model.err_above

    def _route_index(self, level: int, prediction: float) -> int:
        size = len(self._levels[level])
        return int(np.clip(int(prediction * size), 0, size - 1))

    # -- queries ---------------------------------------------------------------------------

    def error_bounds(self) -> tuple[int, int]:
        """Maximum (err_below, err_above) over the leaf-level models (Table 4)."""
        err_below = 0
        err_above = 0
        for model in self._levels[-1]:
            err_below = max(err_below, model.err_below)
            err_above = max(err_above, model.err_above)
        return err_below, err_above

    def contains(self, x: float, y: float) -> bool:
        z = self.z_value(x, y)
        predicted, err_below, err_above = self._predict_block(z)
        begin = self.store.clamp_position(predicted - err_below)
        end = self.store.clamp_position(predicted + err_above)
        position = self._binary_search_block(z, begin, end)
        # scan forward from the located position while blocks may contain z
        for candidate in range(position, end + 1):
            base = self.store.peek(self.store.base_block_id(candidate))
            has_overflow = base.next_id is not None and self.store.peek(base.next_id).is_overflow
            if self._block_zmin[candidate] > z and not has_overflow:
                break
            for block in self.store.iter_chain(candidate):
                if block.contains(x, y):
                    return True
        return False

    def _binary_search_block(self, z: int, begin: int, end: int) -> int:
        """Binary search (counting probes as block accesses) for the first block
        whose maximum Z-value is >= z."""
        lo, hi = begin, end
        while lo < hi:
            mid = (lo + hi) // 2
            self.store.touch_position(mid)
            if self._block_zmax[mid] < z:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _directory_envelopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Monotone conservative bounds over the per-block key ranges.

        Inserts widen individual ``zmin``/``zmax`` entries, which can break
        their sortedness; the running max of ``zmax`` and the suffix min of
        ``zmin`` stay monotone, so binary searches over them find a
        conservative (complete) block range for any key interval.
        """
        if self._envelopes is None:
            cummax = np.maximum.accumulate(self._block_zmax)
            suffmin = np.minimum.accumulate(self._block_zmin[::-1])[::-1]
            self._envelopes = (cummax, suffmin)
        return self._envelopes

    def _window_query_runs(self, window: Rect) -> np.ndarray:
        """Window scan along the window's contiguous curve-key runs.

        Exact for any layout: the runs cover every key the window can
        contain, and every point's key lies inside its block's directory
        range (widened on insert), so the envelope searches cannot skip a
        holding block.  This is what makes the Hilbert layout pay off — its
        corner-to-corner span is wider than Z-order's, but it decomposes
        into far fewer runs.
        """
        space = self._data_space if self._data_space is not None else Rect.unit()
        cummax, suffmin = self._directory_envelopes()
        n_blocks = self.store.n_base_blocks
        collected: list[np.ndarray] = []
        next_unscanned = 0  # blocks are scanned whole: never rescan one
        for key_lo, key_hi in window_key_runs(self.curve, window, space):
            begin = max(int(np.searchsorted(cummax, key_lo, side="left")), next_unscanned)
            end = int(np.searchsorted(suffmin, key_hi, side="right")) - 1
            if begin >= n_blocks or end < begin:
                continue
            next_unscanned = end + 1
            for block in self.store.scan_positions(begin, end):
                points = block.points()
                if points.shape[0] == 0:
                    continue
                mask = window.contains_points(points)
                if mask.any():
                    collected.append(points[mask])
        return np.vstack(collected) if collected else np.empty((0, 2), dtype=float)

    def prefetch_window(self, window: Rect) -> int:
        """Speculatively admit every base block ``window_query(window)`` will
        scan; returns the number of blocks admitted.

        Planning is free of accounting side effects: the block ranges come
        from the learned models (``z`` layout) or the directory envelopes
        (run layouts), neither of which touches the store — so issuing the
        prefetch never inflates logical read counts, it only converts the
        upcoming scan's cold faults (including the stride boundaries
        :meth:`~repro.storage.BlockStore.scan_positions`'s look-ahead never
        covers) into prefetch hits.  A no-op without a prefetch-capable
        cache (only pool clients prefetch).
        """
        store = self.store
        if store.cache is None or not hasattr(store.cache, "prefetch"):
            return 0
        if self.config.layout != "z":
            space = self._data_space if self._data_space is not None else Rect.unit()
            cummax, suffmin = self._directory_envelopes()
            n_blocks = store.n_base_blocks
            admitted = 0
            next_position = 0
            for key_lo, key_hi in window_key_runs(self.curve, window, space):
                begin = max(int(np.searchsorted(cummax, key_lo, side="left")), next_position)
                end = int(np.searchsorted(suffmin, key_hi, side="right")) - 1
                if begin >= n_blocks or end < begin:
                    continue
                next_position = end + 1
                admitted += store.prefetch_positions(begin, end)
            return admitted
        z_low = self.z_value(window.xlo, window.ylo)
        z_high = self.z_value(window.xhi, window.yhi)
        low_pred, low_below, _ = self._predict_block(z_low)
        high_pred, _, high_above = self._predict_block(z_high)
        begin = store.clamp_position(min(low_pred - low_below, high_pred))
        end = store.clamp_position(max(high_pred + high_above, low_pred))
        if begin > end:
            begin, end = end, begin
        return store.prefetch_positions(begin, end)

    def window_query(self, window: Rect) -> np.ndarray:
        if self.config.layout != "z":
            return self._window_query_runs(window)
        z_low = self.z_value(window.xlo, window.ylo)
        z_high = self.z_value(window.xhi, window.yhi)
        low_pred, low_below, _ = self._predict_block(z_low)
        high_pred, _, high_above = self._predict_block(z_high)
        begin = self.store.clamp_position(min(low_pred - low_below, high_pred))
        end = self.store.clamp_position(max(high_pred + high_above, low_pred))
        if begin > end:
            begin, end = end, begin
        collected: list[np.ndarray] = []
        for block in self.store.scan_positions(begin, end):
            points = block.points()
            if points.shape[0] == 0:
                continue
            mask = window.contains_points(points)
            if mask.any():
                collected.append(points[mask])
        return np.vstack(collected) if collected else np.empty((0, 2), dtype=float)

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        space = self._data_space if self._data_space is not None else Rect.unit()
        return expanding_window_knn(
            self.window_query, x, y, k, self._n_points, space
        )

    # -- updates ------------------------------------------------------------------------------

    def _insert(self, x: float, y: float) -> None:
        z = self.z_value(x, y)
        predicted, err_below, err_above = self._predict_block(z)
        begin = self.store.clamp_position(predicted - err_below)
        end = self.store.clamp_position(predicted + err_above)
        # place the point where a later point query's binary search will look
        position = self._binary_search_block(z, begin, end)
        target = None
        last_block = None
        for block in self.store.iter_chain(position):
            last_block = block
            if not block.is_full:
                target = block
                break
        if target is None:
            target = self.store.allocate_overflow(last_block.block_id)
        target.append(x, y)
        # the insertion can land in a block whose build-time Z-range does not
        # cover z (deleted-slot reuse, or a binary search clamped to the end
        # of the error range); widen the directory's lower bound so the point
        # query's scan cutoff keeps the block visible for this Z-value
        if self._block_zmin.size and z < self._block_zmin[position]:
            self._block_zmin[position] = z
            self._envelopes = None
        # symmetric upper widening so the run-scanning window path's
        # envelopes keep covering every stored key
        if self._block_zmax.size and z > self._block_zmax[position]:
            self._block_zmax[position] = z
            self._envelopes = None
        self.store.note_write(target.block_id)
        self._n_points += 1

    def _delete(self, x: float, y: float) -> bool:
        z = self.z_value(x, y)
        predicted, err_below, err_above = self._predict_block(z)
        begin = self.store.clamp_position(predicted - err_below)
        end = self.store.clamp_position(predicted + err_above)
        for position in range(begin, end + 1):
            for block in self.store.iter_chain(position):
                if block.delete(x, y):
                    self.store.note_write(block.block_id)
                    self._n_points -= 1
                    return True
        return False

    # -- cache plumbing ----------------------------------------------------------------------------

    def attach_cache(self, cache: Optional[PageCache]) -> None:
        super().attach_cache(cache)
        self.store.attach_cache(cache)

    # -- accounting ------------------------------------------------------------------------------

    def size_bytes(self) -> int:
        model_bytes = sum(
            model.model.size_bytes() + 16 for level in self._levels for model in level
        )
        directory_bytes = self._block_zmin.size * 16
        return model_bytes + directory_bytes + self.store.size_bytes()

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def n_models(self) -> int:
        return sum(len(level) for level in self._levels)

    def extra_metrics(self) -> dict:
        return {"error_bounds": self.error_bounds(), "n_models": self.n_models}
