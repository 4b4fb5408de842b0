"""The index suite: every index kind the experiments sweep, by name.

Every kind is a :class:`~repro.baselines.interface.SpatialIndex`, so the
experiment runner drives them all with identical code.  ``RSMI`` and
``RSMIa`` (the exact-query kind, Section 6.2.3 of the paper) are two views of
the *same* built RSMI, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines import GridFile, HRRTree, KDBTree, RStarTree, ZMConfig, ZMIndex
from repro.baselines.interface import SpatialIndex
from repro.core import RSMI, RSMIConfig
from repro.nn import TrainingConfig

__all__ = ["build_index_suite", "INDEX_NAMES"]

#: Index names in the order the paper's figures list them.
INDEX_NAMES = ("Grid", "HRR", "KDB", "RR*", "RSMI", "RSMIa", "ZM")


def build_index_suite(
    points: np.ndarray,
    index_names: Sequence[str] = INDEX_NAMES,
    block_capacity: int = 100,
    partition_threshold: int = 10_000,
    training: Optional[TrainingConfig] = None,
    seed: int = 0,
) -> dict[str, SpatialIndex]:
    """Build the requested indices over ``points`` and return name -> index.

    ``RSMI`` and ``RSMIa`` share a single built RSMI (``RSMIa`` is its
    :meth:`~repro.core.rsmi.RSMI.exact_view`; they differ only in the query
    algorithm), matching the paper's setup.
    """
    training = training if training is not None else TrainingConfig()
    indices: dict[str, SpatialIndex] = {}
    rsmi: Optional[RSMI] = None

    for name in index_names:
        if name in ("RSMI", "RSMIa"):
            if rsmi is None:
                config = RSMIConfig(
                    block_capacity=block_capacity,
                    partition_threshold=partition_threshold,
                    training=training,
                    seed=seed,
                )
                rsmi = RSMI(config).build(points)
            indices[name] = rsmi if name == "RSMI" else rsmi.exact_view()
        elif name == "ZM":
            config = ZMConfig(block_capacity=block_capacity, training=training, seed=seed)
            indices[name] = ZMIndex(config).build(points)
        elif name == "Grid":
            indices[name] = GridFile(block_capacity=block_capacity).build(points)
        elif name == "KDB":
            indices[name] = KDBTree(block_capacity=block_capacity).build(points)
        elif name == "HRR":
            indices[name] = HRRTree(block_capacity=block_capacity).build(points)
        elif name == "RR*":
            indices[name] = RStarTree(block_capacity=block_capacity).build(points)
        else:
            raise ValueError(f"unknown index name: {name!r}; available: {INDEX_NAMES}")
    return indices
