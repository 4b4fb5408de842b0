"""Batched query execution over every index in the package.

The paper defines its query algorithms per query; this subsystem executes
whole *batches* of point / window / kNN queries level-synchronously over the
RSMI's model hierarchy (one vectorised model call per touched node, one block
scan per touched block) and through one uniform per-query loop for the
indices and query types without a vectorised formulation.  See
:class:`~repro.engine.engine.BatchQueryEngine`.
"""

from repro.engine.engine import ENGINE_MODES, BatchQueryEngine
from repro.engine.routing import LeafBatch, resolve_child_cells, route_batch

__all__ = [
    "BatchQueryEngine",
    "ENGINE_MODES",
    "LeafBatch",
    "route_batch",
    "resolve_child_cells",
]
