"""Leaf indexing models: MLPs that map coordinates to block positions.

A leaf model covers one partition of at most ``N`` points (paper Section 3.1).
Its points are ordered in rank space by a space-filling curve, packed into
consecutive base blocks of the global block store, and an MLP is trained to
map a point's coordinates to its block position.  The maximum under- and
over-prediction observed on the build data become the error bounds that point
queries use to limit their scan range.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RSMIConfig
from repro.geometry import Rect, mbr_of_points
from repro.nn import MinMaxScaler, MLPRegressor, train_regressor
from repro.rank_space import order_points_by_curve
from repro.storage import BlockStore

__all__ = ["LeafModel"]


class LeafModel:
    """A trained leaf model together with its block range and error bounds.

    Attributes
    ----------
    first_position:
        Global curve-order position of this leaf's first base block.
    n_local_blocks:
        Number of base blocks packed for this leaf.
    err_below / err_above:
        How many blocks below / above the prediction the true block can lie
        (the paper's ``M.err_l`` / ``M.err_a``, oriented for scanning).
    mbr:
        Minimum bounding rectangle of the leaf's build points (used by the
        exact RSMIa query variants and by update handling).
    block_mbrs:
        One MBR per base-block position, recorded at build time and grown by
        every insertion into that position's chain, so it covers every live
        point of the chain.  RSMIa filters blocks with it, and membership
        probes skip the point compare at a position whose MBR excludes the
        point (:meth:`may_hold`).  A leaf built without them probes every
        position.
    """

    def __init__(
        self,
        model: MLPRegressor,
        scaler: MinMaxScaler,
        first_position: int,
        n_local_blocks: int,
        err_below: int,
        err_above: int,
        mbr: Rect,
        block_mbrs: list[Rect],
        n_points: int,
        level: int,
    ):
        self.model = model
        self.scaler = scaler
        self.first_position = int(first_position)
        self.n_local_blocks = int(n_local_blocks)
        self.err_below = int(err_below)
        self.err_above = int(err_above)
        self.mbr = mbr
        self.block_mbrs = block_mbrs
        self.n_points = int(n_points)
        self.n_inserted = 0
        self.level = int(level)

    is_leaf = True

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        store: BlockStore,
        config: RSMIConfig,
        rng: np.random.Generator,
        level: int,
    ) -> "LeafModel":
        """Order, pack and learn a leaf model for ``points``."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if points.shape[0] == 0:
            raise ValueError("cannot build a leaf model on an empty partition")

        ordering = order_points_by_curve(points, curve=config.curve, use_rank_space=True)
        sorted_points = ordering.sorted_points
        first_position, last_position = store.pack_points(sorted_points)
        n_local_blocks = last_position - first_position + 1
        n = sorted_points.shape[0]

        # ground truth: local block index of every (sorted) point, Equation 1
        local_block = np.arange(n) // config.block_capacity
        denominator = max(n_local_blocks - 1, 1)
        targets = local_block / denominator

        scaler = MinMaxScaler().fit(sorted_points)
        features = scaler.transform(sorted_points)
        hidden = config.hidden_width_for(n_local_blocks)
        model = MLPRegressor(2, (hidden,), activation="sigmoid", rng=rng)
        train_regressor(model, features, targets, config.training)

        predictions = np.rint(model.predict(features) * denominator).astype(np.int64)
        predictions = np.clip(predictions, 0, n_local_blocks - 1)
        signed_error = local_block - predictions
        err_above = int(max(signed_error.max(initial=0), 0))
        err_below = int(max((-signed_error).max(initial=0), 0))

        block_mbrs: list[Rect] = []
        for start in range(0, n, config.block_capacity):
            block_mbrs.append(mbr_of_points(sorted_points[start : start + config.block_capacity]))

        return cls(
            model=model,
            scaler=scaler,
            first_position=first_position,
            n_local_blocks=n_local_blocks,
            err_below=err_below,
            err_above=err_above,
            mbr=mbr_of_points(points),
            block_mbrs=block_mbrs,
            n_points=n,
            level=level,
        )

    # -- prediction ---------------------------------------------------------------

    def predict_local(self, x: float, y: float) -> int:
        """Predicted local block index in ``[0, n_local_blocks)`` (no NumPy
        work)."""
        raw = self.model.predict_one(self.scaler.transform_one((x, y)))
        return self._local(raw * max(self.n_local_blocks - 1, 1))

    def _local(self, raw: float) -> int:
        # clamp, then round half to even like np.rint in predict_locals
        return round(min(max(raw, 0.0), self.n_local_blocks - 1))

    def predict_position(self, x: float, y: float) -> int:
        """Predicted global base-block position."""
        return self.first_position + self.predict_local(x, y)

    def scan_range(self, predicted: int) -> tuple[int, int]:
        """Global position range ``[begin, end]`` around the ``predicted``
        position (from :meth:`predict_position`) that is guaranteed to hold
        the point if it was part of the build data."""
        begin = max(self.first_position, predicted - self.err_below)
        end = min(self.last_position, predicted + self.err_above)
        return begin, end

    def may_hold(self, position: int, x: float, y: float) -> bool:
        """False only when ``(x, y)`` cannot be a live point of the chain at
        ``position``: the position's block MBR excludes it.  Positions
        without a recorded MBR may hold any point."""
        offset = position - self.first_position
        if 0 <= offset < len(self.block_mbrs):
            return self.block_mbrs[offset].contains_point(x, y)
        return True

    # -- batched prediction (one model invocation per query batch) -------------------

    def predict_locals(self, points: np.ndarray) -> np.ndarray:
        """Predicted local block indices for an ``(n, 2)`` array, shape ``(n,)``."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        features = self.scaler.transform(points)
        denominator = max(self.n_local_blocks - 1, 1)
        raw = self.model.predict_chunked(features) * denominator
        return np.clip(np.rint(raw), 0, self.n_local_blocks - 1).astype(np.int64)

    def predict_positions(self, points: np.ndarray | list) -> np.ndarray | list:
        """Predicted global base-block positions for an ``(n, 2)`` array, or
        for a list of ``(x, y)`` rows (the engine's small requests) as a
        list of ints with no NumPy work.  Each equals
        :meth:`predict_position` of its row."""
        if isinstance(points, list):
            denominator = max(self.n_local_blocks - 1, 1)
            raw = self.model.predict(self.scaler.transform(points))
            return [self.first_position + self._local(value * denominator) for value in raw]
        return self.first_position + self.predict_locals(points)

    def scan_ranges(self, points: np.ndarray | list) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`scan_range`: ``(begins, ends)`` arrays of shape
        ``(n,)`` for an ``(n, 2)`` array or a list of ``(x, y)`` rows."""
        predicted = self.predict_positions(points)
        if isinstance(predicted, list):
            first, last = self.first_position, self.last_position
            begins = [max(first, p - self.err_below) for p in predicted]
            ends = [min(last, p + self.err_above) for p in predicted]
            return np.array(begins, dtype=np.int64), np.array(ends, dtype=np.int64)
        begins = np.maximum(self.first_position, predicted - self.err_below)
        ends = np.minimum(self.last_position, predicted + self.err_above)
        return begins, ends

    @property
    def last_position(self) -> int:
        return self.first_position + self.n_local_blocks - 1

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Model parameters plus the per-block MBR table and scalar metadata."""
        return self.model.size_bytes() + len(self.block_mbrs) * 32 + 64

    def n_models(self) -> int:
        return 1

    def height(self) -> int:
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeafModel(level={self.level}, points={self.n_points}, "
            f"blocks=[{self.first_position}..{self.last_position}], "
            f"err=({self.err_below}, {self.err_above}))"
        )
