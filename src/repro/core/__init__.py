"""The paper's primary contribution: the Recursive Spatial Model Index (RSMI).

Public entry points:

* :class:`~repro.core.config.RSMIConfig` — build/training configuration,
* :class:`~repro.core.rsmi.RSMI` — the learned index with point, window and
  kNN queries (the paper's approximate algorithms) plus insert/delete
  support, and :class:`~repro.core.rsmi.RSMIa`, the same structure answering
  window and kNN queries exactly through its MBRs,
* :class:`~repro.core.updates.PeriodicRebuilder` — the "RSMIr" wrapper that
  rebuilds the index after a configurable fraction of insertions,
* :class:`~repro.core.pmf.PiecewiseMappingFunction` — the piecewise CDF
  approximation used to size the initial kNN search region.
"""

from repro.core.config import RSMIConfig
from repro.core.extent import ExtendedObjectIndex
from repro.core.persistence import load_index, save_index
from repro.core.pmf import PiecewiseMappingFunction
from repro.core.results import KNNQueryResult, PointQueryResult, WindowQueryResult
from repro.core.rsmi import RSMI, RSMIa
from repro.core.updates import PeriodicRebuilder

__all__ = [
    "RSMI",
    "RSMIa",
    "RSMIConfig",
    "PeriodicRebuilder",
    "PiecewiseMappingFunction",
    "PointQueryResult",
    "WindowQueryResult",
    "KNNQueryResult",
    "ExtendedObjectIndex",
    "save_index",
    "load_index",
]
