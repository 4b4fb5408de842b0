"""Algorithm 3's one-pass examine and Algorithm 1's whole-chain reads.

:func:`repro.core.knn.knn_query` reads each round's chains first and runs
the per-point rule only over the blocks holding a point within the round's
threshold; :func:`tests.reference_loops.per_point_knn_query` runs the rule
over every block as it walks each chain.  ``RSMI.point_query`` reads a chain
the block-MBR gate rules out with ``touch_chain``;
:func:`tests.reference_loops.iter_chain_point_query` walks it with
``iter_chain``.  Both pairs must agree on every answer bit and every read:

* a property over lattice points (duplicates, equidistant ties, overflow
  chains, deletes) and k from 1 to above the live count, on a plain RSMI
  and on a disk-backed one behind a small shared pool;
* the point query's cache accesses and prefetches, in order, on an RSMI
  with overflow chains, including a point found in a base block whose
  overflow chain the early exit leaves unread.
"""

from __future__ import annotations

import copy
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RSMI, RSMIConfig
from repro.core.knn import knn_query
from repro.nn import TrainingConfig
from repro.storage import BlockFile, BlockStore, SharedBufferPool

from tests.reference_loops import iter_chain_point_query, per_point_knn_query
from tests.test_mbr_gate import _probes

CONFIG = RSMIConfig(
    block_capacity=4, partition_threshold=60, training=TrainingConfig(epochs=8, seed=0), seed=0
)
#: lattice spacing: multiples of it subtract exactly, and at this spacing
#: ``np.hypot`` splits exact ties that ``math.hypot`` keeps, e.g. offsets
#: (2, 9) and (6, 7)
STEP = 15 / 1024
SIDE = 24


def _lattice(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` lattice points, about a third of them repeats."""
    points = rng.integers(0, SIDE, size=(n, 2)) * STEP
    repeats = rng.integers(0, n, size=n // 3)
    points[n - repeats.size :] = points[repeats]
    return points


def _queries(rng: np.random.Generator, live: np.ndarray) -> list[tuple[float, float, int]]:
    """Lattice and half-lattice queries (equidistant from 2 or 4 lattice
    points), a few outside the data; k runs from 1 to above the live count
    and often sits where the k-th distance ties."""
    cells = rng.integers(-2, SIDE + 2, size=(24, 2)).astype(float)
    cells[::2] += 0.5
    queries = []
    for x, y in (cells * STEP).tolist():
        distances = np.sort(np.hypot(live[:, 0] - x, live[:, 1] - y))
        ks = {1, int(rng.integers(1, live.shape[0] + 4))}
        for j in rng.integers(0, live.shape[0], size=3).tolist():
            # one past the points strictly nearer than the j-th
            ks.add(int(np.searchsorted(distances, distances[j])) + 1)
        queries += [(x, y, k) for k in sorted(ks)]
    return queries


def _run(query, index, x: float, y: float, k: int) -> tuple:
    before = index.stats.snapshot()
    result = query(index, x, y, k)
    return (
        result.points.tobytes(),
        result.distances.tobytes(),
        result.blocks_scanned,
        result.expansions,
        index.stats.delta_since(before),
    )


def _pool_state(pool: SharedBufferPool) -> tuple:
    return pool.metrics(), list(pool._lru.items()), list(pool._prefetched.items())


@pytest.mark.parametrize("backend", ["memory", "disk"])
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(40, 160),
    inserts=st.integers(0, 60),
    deletes=st.integers(0, 30),
)
def test_one_pass_knn_answers_and_reads_like_the_per_point_loop(
    backend, seed, n, inserts, deletes, tmp_path_factory
):
    rng = np.random.default_rng(seed)
    index = RSMI(CONFIG).build(_lattice(rng, n))
    # repeats of stored points land in full chains and grow overflow blocks
    for x, y in _lattice(rng, inserts).tolist():
        index.insert(x, y)
    for x, y in rng.permutation(index.store.all_points())[:deletes].tolist():
        assert index.delete(x, y)
    live = index.store.all_points()
    twin = copy.deepcopy(index)
    pools = []
    if backend == "disk":
        directory = tmp_path_factory.mktemp("knn")
        for name, rsmi in (("index", index), ("twin", twin)):
            rsmi.store.attach_disk(BlockFile(directory / f"{name}.blk", CONFIG.block_capacity))
            pools.append(SharedBufferPool(12))
            rsmi.attach_cache(pools[-1].client("rsmi"))

    for x, y, k in _queries(rng, live):
        got = _run(knn_query, index, x, y, k)
        want = _run(per_point_knn_query, twin, x, y, k)
        assert got == want, (x, y, k)
    if pools:
        assert _pool_state(pools[0]) == _pool_state(pools[1])


def test_a_tie_split_by_np_hypot_keeps_the_point_read_first():
    """Two points tie exactly under ``math.hypot``; ``np.hypot`` puts the
    one read first a bit farther.  The per-point rule keeps the first one
    read, so its block must be examined although its ``np.hypot`` distance
    is above the round's threshold."""
    x, y = 40 * STEP, 40 * STEP
    near, far = (2, 9), (6, 7)
    assert math.hypot(*near) * STEP == math.hypot(*far) * STEP
    assert np.hypot(far[0] * STEP, far[1] * STEP) > np.hypot(near[0] * STEP, near[1] * STEP)
    kept_far = 0
    layouts = itertools.product([1, -1], [1, -1], [False, True])
    for seed, (sx, sy, swap) in enumerate(layouts):
        a = (x + sx * near[swap] * STEP, y + sy * near[not swap] * STEP)
        b = (x - sx * far[swap] * STEP, y - sy * far[not swap] * STEP)
        # every other point stays out of the query's neighbourhood
        others = np.random.default_rng(seed).integers(0, 80, size=(120, 2)) * STEP
        others = others[np.hypot(others[:, 0] - x, others[:, 1] - y) > 12 * STEP]
        index = RSMI(CONFIG).build(np.vstack([others, [a, b]]))
        got = _run(knn_query, index, x, y, 1)
        assert got == _run(per_point_knn_query, index, x, y, 1)
        kept_far += np.frombuffer(got[0]).tolist() == list(b)
    assert kept_far  # some layout reads the farther-by-np.hypot point first


# -- Algorithm 1: the point query's reads ------------------------------------------------


def _spied(index: RSMI) -> tuple[SharedBufferPool, list]:
    """Attach a small pool to ``index`` whose accesses and prefetches are
    logged in call order."""
    pool = SharedBufferPool(16)
    client = pool.client("rsmi")
    log: list = []
    access, prefetch = client.access, client.prefetch

    def logged_access(key):
        log.append(("access", key))
        return access(key)

    def logged_prefetch(keys):
        keys = list(keys)
        log.append(("prefetch", keys))
        return prefetch(keys)

    client.access, client.prefetch = logged_access, logged_prefetch
    index.attach_cache(client)
    return pool, log


@pytest.fixture(scope="module")
def chained_twins():
    """An RSMI with overflow chains and its deep copy."""
    rng = np.random.default_rng(41)
    points = rng.uniform(size=(400, 2)) ** 2
    index = RSMI(CONFIG).build(points)
    for x, y in points[rng.integers(0, 400, size=120)].tolist():
        index.insert(x + 1e-4, y - 1e-4)
    assert index.store.n_overflow_blocks > 10
    return index, copy.deepcopy(index)


def test_point_query_touches_like_the_iter_chain_loop(chained_twins):
    index, twin = map(copy.deepcopy, chained_twins)
    pool, log = _spied(index)
    twin_pool, twin_log = _spied(twin)
    touched = []
    touch_chain = BlockStore.touch_chain

    def noting_touch_chain(store, position):
        chain = touch_chain(store, position)
        touched.append(len(chain))
        return chain

    with mock.patch.object(BlockStore, "touch_chain", noting_touch_chain):
        for x, y in _probes(index)[0]:
            got = index.point_query(x, y)
            want = iter_chain_point_query(twin, x, y)
            assert got == want, (x, y)
    assert log == twin_log
    assert _pool_state(pool) == _pool_state(twin_pool)
    # gated-out chains were read whole, overflow blocks and prefetches too
    assert touched and max(touched) > 1
    assert any(kind == "prefetch" for kind, _ in log) and pool.evictions


def test_a_hit_in_a_base_block_leaves_its_overflow_chain_unread(chained_twins):
    index, twin = map(copy.deepcopy, chained_twins)
    store = index.store
    for x, y in store.all_points().tolist():
        result = index.point_query(x, y)
        base = store.peek(store.base_block_id(result.position))
        if result.block_id == base.block_id and store.peek(base.next_id).is_overflow:
            break
    else:
        pytest.fail("no stored point is found in a base block with an overflow chain")
    overflow = []
    next_id = base.next_id
    while next_id is not None and store.peek(next_id).is_overflow:
        overflow.append(("b", next_id))
        next_id = store.peek(next_id).next_id

    _, log = _spied(index)
    _, twin_log = _spied(twin)
    assert index.point_query(x, y) == iter_chain_point_query(twin, x, y) == result
    assert log == twin_log
    accessed = [key for kind, key in log if kind == "access"]
    assert accessed[-1] == ("b", base.block_id)
    assert not set(overflow) & set(accessed)
    # the chain prefetch is issued with the base block's read
    assert log[-1] == ("prefetch", overflow)
