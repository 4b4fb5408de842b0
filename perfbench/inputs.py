"""Seeded inputs of the benchmark: data sets and request streams.

Everything the index sees is generated here from the run's seed, with plain
NumPy and no import of the library under test, so a change to the library
cannot change the traffic it is measured on.  :func:`digest` hashes a
workload's inputs; two commits that print the same digest ran identical
traffic.

A request stream is a list of :class:`Request`: one operation kind plus an
``(m, 6)`` float array with one row per operation.  Row layout by kind:

* ``point`` / ``knn`` / ``insert`` / ``delete``: ``x, y`` (rest unused)
* ``window``: ``xlo, ylo, xhi, yhi``
* ``aggregate``: ``xlo, ylo, xhi, yhi, op code, q`` (op codes index
  :data:`AGGREGATE_OPS`)

Single-operation workloads issue requests with ``m == 1``; the batched
workload issues reads with ``m == 128``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AGGREGATE_OPS",
    "KNN_K",
    "LivePoints",
    "TOP_K",
    "Request",
    "WorkloadInputs",
    "digest",
    "make_inputs",
]

#: aggregate operators, indexed by the op code in an aggregate row
AGGREGATE_OPS = ("count", "sum", "mean", "quantile", "top-k")

#: neighbours per kNN query
KNN_K = 10

#: result size of top-k aggregates
TOP_K = 5

#: share of point lookups whose key is not stored
MISS_FRACTION = 0.25

#: share of keys drawn from the hot region (batch-analytics, durable-drift)
HOT_FRACTION = 0.80

#: fixed layout of the clustered data set: the seed draws the sample, not the map
_OSM_LAYOUT_SEED = 20_200_601
_OSM_CLUSTERS = 40
_OSM_BACKGROUND = 0.10

#: hot region of the batch-analytics workload (0.25 of each axis)
BATCH_HOTSPOT = (0.40, 0.30, 0.65, 0.55)

#: drifting hot region of durable-drift: square side, orbit radius, cycles
DRIFT_SIDE = 0.20
DRIFT_RADIUS = 0.25
DRIFT_CYCLES = 1.5


@dataclass(frozen=True)
class Request:
    """One request: an operation kind and one parameter row per operation."""

    kind: str
    rows: np.ndarray

    @property
    def n_ops(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True)
class WorkloadInputs:
    """A workload's generated data set and request stream."""

    points: np.ndarray
    requests: list

    @property
    def n_ops(self) -> int:
        return sum(request.n_ops for request in self.requests)


# -- data sets -------------------------------------------------------------------


def _distinct(points: np.ndarray) -> np.ndarray:
    """``points`` without duplicate rows, first occurrence kept, order kept."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def skewed_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """x uniform, y uniform raised to the 4th power (the paper's skewed set)."""
    return np.column_stack((rng.random(n), rng.random(n) ** 4))


def uniform_points(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((n, 2))


def _osm_layout():
    layout = np.random.default_rng(_OSM_LAYOUT_SEED)
    centers = 0.05 + 0.9 * layout.random((_OSM_CLUSTERS, 2))
    sigmas = 0.005 + 0.04 * layout.random(_OSM_CLUSTERS) ** 2
    weights = layout.pareto(1.5, _OSM_CLUSTERS) + 1.0
    return centers, sigmas, weights / weights.sum()


def osm_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Clustered, road-map-like data: Gaussian towns of skewed sizes over a
    thin uniform background.  The town layout is fixed; the seed draws the
    sample."""
    centers, sigmas, weights = _osm_layout()
    n_background = int(round(_OSM_BACKGROUND * n))
    town = rng.choice(_OSM_CLUSTERS, size=n - n_background, p=weights)
    clustered = centers[town] + rng.standard_normal((town.size, 2)) * sigmas[town, None]
    points = np.vstack((clustered, rng.random((n_background, 2))))
    return np.clip(points, 0.0, 1.0)


def make_points(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    generate = {"skewed": skewed_points, "uniform": uniform_points, "osm": osm_points}[kind]
    points = _distinct(generate(n, rng))
    while points.shape[0] < n:
        points = _distinct(np.vstack((points, generate(n - points.shape[0], rng))))
    return points[:n]


# -- the live point set -----------------------------------------------------------


class LivePoints:
    """A point set kept as an array, with O(1) membership, add and remove.

    The generator uses it to simulate the index's content as the stream
    mutates it (so hits, deletes and data-following keys aim at stored
    points); the oracle uses it as its ground truth.
    """

    def __init__(self, points: np.ndarray):
        self._array = np.asarray(points, dtype=float).reshape(-1, 2).copy()
        self._keys = [tuple(row) for row in self._array.tolist()]
        self._slot = {key: i for i, key in enumerate(self._keys)}
        self._size = len(self._keys)
        self._changes = 0
        #: ``((region, changes), indices)`` of the last region lookup
        self._inside_cache = None

    def __contains__(self, key) -> bool:
        return key in self._slot

    def array(self) -> np.ndarray:
        """The live points, ``(n, 2)``: a view, valid until the next change."""
        return self._array[: self._size]

    def add(self, key: tuple) -> None:
        if self._size == self._array.shape[0]:
            self._array = np.vstack((self._array, np.empty_like(self._array)))
        self._array[self._size] = key
        if self._size == len(self._keys):
            self._keys.append(key)
        else:
            self._keys[self._size] = key
        self._slot[key] = self._size
        self._size += 1
        self._changes += 1

    def remove(self, key: tuple) -> bool:
        """Remove ``key``; False when it was not live."""
        i = self._slot.pop(key, None)
        if i is None:
            return False
        last = self._size - 1
        if i != last:
            moved = self._keys[last]
            self._keys[i] = moved
            self._array[i] = self._array[last]
            self._slot[moved] = i
        self._size = last
        self._changes += 1
        return True

    def pick(self, rng: np.random.Generator, region=None) -> tuple:
        """A live point, from inside ``region`` when it holds one."""
        if region is not None:
            inside = self._inside(region)
            if inside.size:
                return self._keys[int(inside[rng.integers(inside.size)])]
        return self._keys[int(rng.integers(self._size))]

    def _inside(self, region) -> np.ndarray:
        """Indices of the live points inside ``region``, reused until the
        set changes."""
        state = (region, self._changes)
        if self._inside_cache is not None and self._inside_cache[0] == state:
            return self._inside_cache[1]
        live = self.array()
        xlo, ylo, xhi, yhi = region
        inside = np.flatnonzero(
            (live[:, 0] >= xlo) & (live[:, 0] <= xhi)
            & (live[:, 1] >= ylo) & (live[:, 1] <= yhi)
        )
        self._inside_cache = (state, inside)
        return inside


# -- key models ------------------------------------------------------------------


class _Keys:
    """Where a workload's keys fall: everywhere, a fixed hotspot, or a
    hot square drifting along a circle over the stream."""

    def __init__(self, model: str, n_ops: int):
        self.model = model
        self.n_ops = max(n_ops, 1)

    def region(self, op_index: int, rng: np.random.Generator):
        """The hot region for this op, or None for a data-following key."""
        if self.model == "data" or rng.random() >= HOT_FRACTION:
            return None
        if self.model == "hotspot":
            return BATCH_HOTSPOT
        angle = 2.0 * np.pi * DRIFT_CYCLES * op_index / self.n_ops
        cx = 0.5 + DRIFT_RADIUS * np.cos(angle)
        cy = 0.5 + DRIFT_RADIUS * np.sin(angle)
        half = DRIFT_SIDE / 2.0
        return (cx - half, cy - half, cx + half, cy + half)


def _window(center: tuple, rng: np.random.Generator) -> list:
    """A window of log-uniform area in [1e-4, 1e-3] around ``center``."""
    area = 10.0 ** rng.uniform(-4.0, -3.0)
    aspect = 2.0 ** rng.uniform(-1.0, 1.0)
    width = float(np.sqrt(area * aspect))
    height = float(area / width)
    cx, cy = center
    return [cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2]


def _miss_key(live: LivePoints, key: tuple, rng: np.random.Generator) -> tuple:
    """A key next to ``key`` that is not stored."""
    while True:
        jitter = rng.uniform(-1e-6, 1e-6, size=2)
        candidate = (float(key[0] + jitter[0]), float(key[1] + jitter[1]))
        if candidate not in live:
            return candidate


def _new_point(data_kind: str, region, rng: np.random.Generator, live: LivePoints) -> tuple:
    """A fresh point to insert: inside the hot region when one is given,
    else from the data set's own distribution."""
    while True:
        if region is not None:
            xlo, ylo, xhi, yhi = region
            row = (rng.uniform(xlo, xhi), rng.uniform(ylo, yhi))
        else:
            row = tuple(make_points(data_kind, 1, rng)[0])
        key = (float(np.clip(row[0], 0.0, 1.0)), float(np.clip(row[1], 0.0, 1.0)))
        if key not in live:
            return key


def _op_row(kind, live, keys, op_index, data_kind, rng) -> list:
    """Generate one op's parameter row and apply it to the live set."""
    region = keys.region(op_index, rng)
    row = [0.0] * 6
    if kind == "insert":
        key = _new_point(data_kind, region, rng, live)
        live.add(key)
        row[:2] = key
        return row
    key = live.pick(rng, region)
    if kind == "delete":
        live.remove(key)
        row[:2] = key
    elif kind == "point":
        row[:2] = _miss_key(live, key, rng) if rng.random() < MISS_FRACTION else key
    elif kind == "knn":
        row[:2] = (key[0] + rng.uniform(-1e-3, 1e-3), key[1] + rng.uniform(-1e-3, 1e-3))
    elif kind == "window":
        row[:4] = _window(key, rng)
    else:
        row[:4] = _window(key, rng)
        row[4] = float(rng.integers(len(AGGREGATE_OPS)))
        row[5] = float(rng.choice((0.1, 0.5, 0.9)))
    return row


def _exact_counts(total: int, mix: dict) -> list:
    """Kinds in a seeded order with the exact counts ``mix`` asks for, so
    seeds differ in order and keys, never in how much of each kind runs."""
    kinds = []
    for kind, share in mix.items():
        kinds.extend([kind] * int(round(share * total)))
    return kinds


# -- workloads -------------------------------------------------------------------


def _single_op_stream(points, data_kind, mix, n_ops, key_model, rng) -> list:
    kinds = _exact_counts(n_ops, mix)
    order = rng.permutation(len(kinds))
    live = LivePoints(points)
    keys = _Keys(key_model, len(kinds))
    requests = []
    for op_index, pick in enumerate(order.tolist()):
        kind = kinds[pick]
        row = _op_row(kind, live, keys, op_index, data_kind, rng)
        requests.append(Request(kind, np.asarray([row], dtype=float)))
    return requests


def _batched_stream(points, data_kind, mix, n_requests, batch, n_writes, rng) -> list:
    """Same-kind read requests of ``batch`` ops, with ``n_writes``
    single-op writes interleaved between them."""
    kinds = _exact_counts(n_requests, mix)
    kinds += ["insert", "delete"] * (n_writes // 2)
    order = rng.permutation(len(kinds))
    live = LivePoints(points)
    keys = _Keys("hotspot", len(kinds))
    requests = []
    for op_index, pick in enumerate(order.tolist()):
        kind = kinds[pick]
        size = 1 if kind in ("insert", "delete") else batch
        rows = [_op_row(kind, live, keys, op_index, data_kind, rng) for _ in range(size)]
        requests.append(Request(kind, np.asarray(rows, dtype=float)))
    return requests


#: what each workload generates; ``workloads.py`` holds how it is served
SPECS = {
    "online-mixed": dict(
        data="skewed", n_points=20_000, key_model="data", n_ops=10_000,
        mix={"point": 0.35, "window": 0.15, "knn": 0.15, "aggregate": 0.10,
             "insert": 0.15, "delete": 0.10},
    ),
    "batch-analytics": dict(
        data="osm", n_points=20_000, batch=128, n_requests=256, n_writes=1_000,
        mix={"point": 0.40, "window": 0.25, "aggregate": 0.32, "knn": 0.03},
    ),
    "durable-drift": dict(
        data="uniform", n_points=20_000, key_model="drift", n_ops=10_000,
        mix={"point": 0.25, "window": 0.15, "knn": 0.10, "aggregate": 0.10,
             "insert": 0.25, "delete": 0.15},
    ),
}


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> WorkloadInputs:
    """The data set and request stream of ``workload`` for ``seed``.

    ``scale`` shrinks the stream (not the data) for quick self-tests.
    """
    spec = SPECS[workload]
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    points = make_points(spec["data"], spec["n_points"], rng)
    if "batch" in spec:
        requests = _batched_stream(
            points, spec["data"], spec["mix"],
            max(int(spec["n_requests"] * scale), len(spec["mix"])),
            spec["batch"], int(spec["n_writes"] * scale), rng,
        )
    else:
        requests = _single_op_stream(
            points, spec["data"], spec["mix"],
            max(int(spec["n_ops"] * scale), 20), spec["key_model"], rng,
        )
    return WorkloadInputs(points=points, requests=requests)


def digest(inputs: WorkloadInputs) -> str:
    """Hex digest of the data set and every request, in order."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(inputs.points, dtype="<f8").tobytes())
    for request in inputs.requests:
        h.update(request.kind.encode())
        h.update(np.ascontiguousarray(request.rows, dtype="<f8").tobytes())
    return h.hexdigest()
