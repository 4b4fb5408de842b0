"""Level-synchronous batched routing through the RSMI model hierarchy.

The sequential point query descends the tree once per query, invoking
every partitioning model on one row.  Routing a whole batch
level-synchronously instead groups the queries by the internal node they
are currently at and invokes each node's partitioning model **once** on the
whole group.  Every model runs the one inference kernel of
:class:`~repro.nn.MLPRegressor`, so a query routes to the same child from a
batch of any size as from its own descent.

Batches of up to :data:`LIST_ROWS` rows (every request of an online
workload) route as lists of ``(x, y)`` rows and pay no NumPy call per node;
larger batches (an experiment's whole query workload in one request) route
as arrays.  Both take the same steps and reach the same leaves in the same
order.

The grouping must agree exactly with :meth:`InternalNode.route`: the
predicted cell's child is used when it exists, otherwise the child with the
nearest cell value, ties broken towards the smaller cell value (``min`` over
the sorted keys returns the first minimiser).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = ["LIST_ROWS", "LeafBatch", "resolve_child_cells", "route_batch"]

#: batches of up to this many rows route as lists of rows, larger ones as
#: arrays.  Timed on the perfbench workloads' indices, ``route_batch`` plus
#: the leaves' scan ranges runs faster as lists up to 48 rows on both; the
#: array form catches up near 64 rows on the sharded RSMIs of
#: ``durable-drift`` and near 96-128 rows on ``online-mixed``'s, whose root
#: model is 33 units wide.
LIST_ROWS = 48


@dataclass
class LeafBatch:
    """The queries of one batch that route to the same leaf model.

    Attributes
    ----------
    leaf:
        The :class:`~repro.core.leaf_model.LeafModel` all these queries reach.
    indices:
        Positions (into the batch's query array) of the queries in this
        group, ascending.
    depth:
        Number of sub-models invoked root-to-leaf (matches the ``depth``
        returned by :meth:`RSMI.route_to_leaf`).
    points:
        The group's query rows, in the form the batch was routed in: an
        ``(m, 2)`` array, or a list of ``(x, y)`` rows for a small batch.
        The leaf's batched methods accept either.
    """

    leaf: object
    indices: list[int]
    depth: int
    points: np.ndarray | list

    def predict_positions(self) -> list[int]:
        """The leaf's predicted position for each query, as a list."""
        predicted = self.leaf.predict_positions(self.points)
        return predicted if isinstance(predicted, list) else predicted.tolist()

    def scan_ranges(self) -> tuple[list[int], list[int]]:
        """The leaf's ``(begins, ends)`` scan range of each query, as lists."""
        begins, ends = self.leaf.scan_ranges(self.points)
        return begins.tolist(), ends.tolist()


def resolve_child_cells(node, points: np.ndarray | list) -> np.ndarray | list:
    """Child cell value each row of ``points`` routes to at ``node``.

    One partitioning-model call predicts the cells of the whole group;
    predictions without a matching child snap to the nearest existing cell
    value (ties towards the smaller value, as in ``InternalNode.route``).
    An ``(n, 2)`` array gives an array; a list of rows gives a list.
    """
    keys = node._sorted_keys
    if not keys:
        raise RuntimeError("internal node has no children")
    if isinstance(points, list):
        last = len(keys) - 1
        cells = []
        for cell in node.partitioning.predict_cells(points):
            pos = bisect_left(keys, cell)
            left, right = keys[max(pos - 1, 0)], keys[min(pos, last)]
            cells.append(left if abs(left - cell) <= abs(right - cell) else right)
        return cells
    predicted = node.partitioning.predict_cells(points[:, 0], points[:, 1])
    keys = np.asarray(keys, dtype=np.int64)
    pos = np.searchsorted(keys, predicted)
    left = np.clip(pos - 1, 0, keys.size - 1)
    right = np.clip(pos, 0, keys.size - 1)
    distance_left = np.abs(keys[left] - predicted)
    distance_right = np.abs(keys[right] - predicted)
    return np.where(distance_left <= distance_right, keys[left], keys[right])


def route_batch(index, points: np.ndarray) -> list[LeafBatch]:
    """Route every row of ``points`` to its leaf model, level-synchronously.

    Returns one :class:`LeafBatch` per distinct leaf reached.  Every query
    appears in exactly one batch, and the leaf (and depth) each query is
    assigned to is identical to what ``index.route_to_leaf`` would return for
    it — only the number of model invocations differs (one per touched node
    instead of one per query per node).  Leaves come in the same order for
    both batch forms: each node's children are visited in descending cell
    order.
    """
    index._require_built()
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return []
    if n <= LIST_ROWS:
        return _route_rows(index.root, points.tolist())
    leaves: list[LeafBatch] = []
    # worklist of (node, query indices at that node, internal nodes above it)
    work: list[tuple[object, np.ndarray, int]] = [(index.root, np.arange(n), 0)]
    while work:
        node, indices, n_internal = work.pop()
        group = points[indices]
        if node.is_leaf:
            leaves.append(LeafBatch(node, indices.tolist(), n_internal + 1, group))
            continue
        resolved = resolve_child_cells(node, group)
        for cell in np.unique(resolved):
            subset = indices[resolved == cell]
            work.append((node.children[int(cell)], subset, n_internal + 1))
    return leaves


def _route_rows(root, rows: list) -> list[LeafBatch]:
    """:func:`route_batch` over a list of rows, with the same worklist."""
    leaves: list[LeafBatch] = []
    work: list[tuple[object, list[int], int]] = [(root, list(range(len(rows))), 0)]
    while work:
        node, indices, n_internal = work.pop()
        group = [rows[i] for i in indices]
        if node.is_leaf:
            leaves.append(LeafBatch(node, indices, n_internal + 1, group))
            continue
        children: dict[int, list[int]] = {}
        for i, cell in zip(indices, resolve_child_cells(node, group)):
            children.setdefault(cell, []).append(i)
        for cell in sorted(children):
            work.append((node.children[cell], children[cell], n_internal + 1))
    return leaves
