"""One inference kernel: a row and a batch of any size give the same bits.

The build takes every grouping and error bound from batched forwards, and
point queries, inserts and kNN descend with single-row forwards, so a leaf's
error bounds cover the positions its queries predict only if the two agree
bit for bit.  :class:`~repro.nn.MLPRegressor` runs one fixed-order kernel
for both (a plain-Python loop for small row counts, NumPy elementwise calls
for large ones).  This module checks

* the identity itself, as a property over input and hidden widths, batch
  sizes on both sides of :data:`~repro.nn.mlp.PYTHON_ROWS`, weights large
  enough that ``exp`` underflows, signed zeros and zero-span scaler columns
  (a ``slow`` variant adds examples and batches past ``predict_chunked``'s
  chunk edge);
* a leaf whose model puts stored points exactly on a rounding tie, where
  any difference between the two forwards would move a position;
* that the engine's small requests, routed as Python rows (up to
  :data:`~repro.engine.routing.LIST_ROWS`), answer and read exactly like
  the same requests routed as arrays.
"""

from __future__ import annotations

import copy
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import QueryRequest
from repro.core import RSMI, RSMIConfig
from repro.engine import BatchQueryEngine
from repro.geometry import Rect
from repro.nn import Adam, MinMaxScaler, MLPRegressor, TrainingConfig
from repro.nn.mlp import PYTHON_ROWS
from repro.storage import SharedBufferPool
from repro.storage.block_store import chain_points

TRAINING = TrainingConfig(epochs=8, seed=0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _model(n_inputs: int, hidden: int, scale: float, seed: int) -> MLPRegressor:
    """A model with random weights and biases, ``scale`` times larger than
    the initialisation (set before its first inference)."""
    rng = np.random.default_rng(seed)
    model = MLPRegressor(n_inputs, (hidden,), rng=rng)
    for layer in model.layers:
        layer.weights = layer.weights * scale
        layer.bias = rng.uniform(-1.0, 1.0, size=layer.bias.shape) * scale
    return model


def _data(n_inputs: int, rows: int, seed: int, constant_column: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.uniform(-2.0, 2.0, size=(rows, n_inputs))
    signed_zeros = rng.random(data.shape) < 0.1
    data[signed_zeros] = np.where(rng.random(data.shape) < 0.5, 0.0, -0.0)[signed_zeros]
    if constant_column:
        data[:, -1] = 0.7
    return data


def _assert_row_and_batch_identical(model, data, chunk_size):
    scaler = MinMaxScaler().fit(data)
    features = scaler.transform(data)
    rows = [scaler.transform_one(row) for row in data.tolist()]
    assert _bits(rows) == features.tobytes()
    assert _bits(scaler.transform(data.tolist())) == features.tobytes()

    batched = model.predict(features)
    assert _bits([model.predict_one(row) for row in rows]) == batched.tobytes()
    assert _bits(model.predict(rows)) == batched.tobytes()
    assert model.predict_chunked(features, chunk_size=chunk_size).tobytes() == batched.tobytes()
    # unscaled inputs reach the kernel with their signed zeros intact
    raw = data.tolist()
    assert _bits([model.predict_one(row) for row in raw]) == model.predict(data).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n_inputs=st.sampled_from([1, 2]),
    hidden=st.integers(1, 64),
    rows=st.sampled_from([*range(1, 18), 24, 25, 5_000]),
    scale=st.sampled_from([1.0, 30.0, 1e3, 1e6]),
    constant_column=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_row_and_batch_forwards_are_bit_identical(
    n_inputs, hidden, rows, scale, constant_column, seed
):
    model = _model(n_inputs, hidden, scale, seed)
    data = _data(n_inputs, rows, seed + 1, constant_column)
    _assert_row_and_batch_identical(model, data, chunk_size=7)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(
    n_inputs=st.sampled_from([1, 2]),
    hidden=st.integers(1, 64),
    rows=st.integers(1, 600),
    scale=st.sampled_from([1.0, 3.0, 30.0, 1e3, 1e6]),
    constant_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_and_batch_forwards_are_bit_identical_wide(
    n_inputs, hidden, rows, scale, constant_column, seed
):
    model = _model(n_inputs, hidden, scale, seed)
    data = _data(n_inputs, rows, seed ^ 0x5EED, constant_column)
    _assert_row_and_batch_identical(model, data, chunk_size=37)


@pytest.mark.slow
@pytest.mark.parametrize("rows", [65_536, 65_537, 70_001])
def test_predict_chunked_past_the_chunk_edge_matches_rows(rows):
    model = _model(2, 33, 30.0, rows)
    data = _data(2, rows, rows + 1, constant_column=False)
    chunked = model.predict_chunked(data)
    assert _bits([model.predict_one(row) for row in data.tolist()]) == chunked.tobytes()


def test_exp_underflow_and_signed_zero_rows():
    """Pre-activations far below -745 make ``exp`` underflow to 0; a zero
    pre-activation of either sign gives exactly 0.5."""
    model = MLPRegressor(2, (3,), rng=np.random.default_rng(0))
    hidden, output = model.layers
    hidden.weights = np.array([[1e4, -1e4, 1.0], [0.0, 0.0, -1.0]])
    hidden.bias = np.zeros(3)
    output.weights = np.array([[1.0], [2.0], [4.0]])
    output.bias = np.array([0.25])
    data = np.array([[1.0, 0.0], [-1.0, -0.0], [0.0, 0.0], [-0.0, -0.0], [0.5, 0.5]])
    batched = model.predict(np.repeat(data, 10, axis=0))[::10]
    rows = [model.predict_one(row) for row in data.tolist()]
    assert _bits(rows) == batched.tobytes()
    # [1, 0]: sigmoid(1e4) = 1 and sigmoid(-1e4) = 0 (exp underflows); the
    # output sums from 0.0 in hidden-unit order, then adds its bias
    assert rows[0] == (1.0 + 0.0 + 1.0 / (1.0 + math.exp(-1.0)) * 4.0) + 0.25
    assert rows[2] == rows[3] == 3.75


def test_kernel_is_a_cache_not_state():
    """Pickles and copies carry the parameters only, and training replaces
    the kernel's copy of them."""
    rng = np.random.default_rng(3)
    inputs, targets = rng.random((40, 2)), rng.random(40)
    model = MLPRegressor(2, (5,), rng=np.random.default_rng(0))
    cold = pickle.dumps(model)
    before = model.predict(inputs)
    assert pickle.dumps(model) == cold
    for twin in (pickle.loads(cold), copy.deepcopy(model)):
        assert twin.predict(inputs).tobytes() == before.tobytes()

    model.train_batch(inputs, targets, Adam(0.05))
    model.drop_training_state()
    fresh = pickle.loads(pickle.dumps(model))
    after = model.predict(inputs)
    assert after.tobytes() != before.tobytes()
    assert fresh.predict(inputs).tobytes() == after.tobytes()

    scaler = MinMaxScaler().fit(inputs)
    scaler_cold = pickle.dumps(scaler)
    scaler.transform_one([0.5, 0.5])
    assert pickle.dumps(scaler) == scaler_cold
    scaler.fit(inputs * 2.0)
    assert scaler.transform_one([1.0, 1.0]) == scaler.transform(np.array([[1.0, 1.0]]))[0].tolist()


def test_replaced_parameters_reach_the_next_inference():
    """Assigning a layer's ``weights`` or ``bias``, or a scaler's fit
    arrays, after an inference rebuilds what the row forms compute with."""
    data = np.random.default_rng(5).random((30, 2))
    model = MLPRegressor(2, (6,), rng=np.random.default_rng(0))
    before = model.predict(data)
    for position, name in [(0, "weights"), (0, "bias"), (1, "weights"), (1, "bias")]:
        layer = model.layers[position]
        setattr(layer, name, getattr(layer, name) * 1.5 + 0.25)
        after = model.predict(data)
        assert after.tobytes() != before.tobytes()
        blas = model._forward(data, remember=False)[:, 0]
        np.testing.assert_allclose(after, blas, rtol=1e-12, atol=1e-12)
        assert _bits(model.predict(data[:3].tolist())) == after[:3].tobytes()
        assert model.predict_one(data[0].tolist()) == after[0]
        before = after

    scaler = MinMaxScaler().fit(data)
    first = scaler.transform_one([0.5, 0.5])
    scaler.data_max = scaler.data_max * 2.0
    moved = scaler.transform_one([0.5, 0.5])
    assert moved != first
    assert moved == scaler.transform(np.array([[0.5, 0.5]]))[0].tolist()


def test_other_shapes_keep_the_blas_forward():
    """Deeper stacks and other activations are outside the kernel: their
    list form still answers what the array form does."""
    for model in (
        MLPRegressor(2, (4, 3), rng=np.random.default_rng(1)),
        MLPRegressor(2, (4,), activation="relu", rng=np.random.default_rng(1)),
    ):
        data = np.random.default_rng(2).random((9, 2))
        assert model.predict(data.tolist()) == model.predict(data).tolist()
        assert model.predict_one(data[0]) == pytest.approx(model.predict(data)[0])


def test_predict_rejects_the_wrong_width():
    model = MLPRegressor(2, (4,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.predict(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        model.predict(np.zeros((30, 1)))


# -- a rounding tie -----------------------------------------------------------------


def _tie_index() -> tuple[RSMI, float]:
    """A one-leaf RSMI (5 blocks of 4) whose model predicts exactly
    ``1.5 / 4`` for every point on the leaf's left edge: ``raw * 4`` is the
    tie 1.5, which rounds half to even to local block 2.  Its error bounds
    are recomputed from the batched forward, as the build computes them."""
    points = np.random.default_rng(11).random((20, 2))
    config = RSMIConfig(block_capacity=4, partition_threshold=60, training=TRAINING, seed=0)
    rsmi = RSMI(config).build(points)
    leaf = rsmi.root
    assert leaf.is_leaf and leaf.n_local_blocks == 5
    model = MLPRegressor(2, (4,), rng=np.random.default_rng(0))
    hidden, output = model.layers
    hidden.weights = np.zeros((2, 4))
    hidden.weights[0, 0] = 8.0
    hidden.bias = np.zeros(4)
    output.weights = np.array([[1.0], [0.0], [0.0], [0.0]])
    output.bias = np.array([-0.125])
    leaf.model = model

    positions = range(leaf.first_position, leaf.last_position + 1)
    stored = [(p, chain_points(rsmi.store.touch_chain(p))) for p in positions]
    signed = np.concatenate(
        [p - leaf.predict_positions(chain) for p, chain in stored if chain.shape[0]]
    )
    leaf.err_above = int(max(signed.max(), 0))
    leaf.err_below = int(max((-signed).max(), 0))
    return rsmi, float(leaf.scaler.data_min[0])


def test_a_tie_rounds_alike_on_every_path_and_is_found():
    rsmi, left = _tie_index()
    leaf = rsmi.root
    ys = [0.2, 0.5, 0.9]
    for y in ys:
        rsmi.insert(left, y)
    stored = rsmi.store.all_points()
    on_tie = stored[stored[:, 0] == left]
    assert on_tie.shape[0] == len(ys) + 1
    many = np.vstack([on_tie, stored, on_tie])
    assert many.shape[0] > PYTHON_ROWS  # the NumPy side of the kernel
    for x, y in on_tie.tolist():
        raw = leaf.model.predict_one(leaf.scaler.transform_one((x, y)))
        assert raw * 4 == 1.5
        expected = leaf.first_position + 2
        assert leaf.predict_position(x, y) == expected
        assert leaf.predict_positions(np.array([[x, y]]))[0] == expected
        assert leaf.predict_positions([[x, y]]) == [expected]
        assert rsmi.point_query(x, y).found
    batched = leaf.predict_positions(many)
    assert (batched[: on_tie.shape[0]] == leaf.first_position + 2).all()

    engine = BatchQueryEngine(rsmi)
    for x, y in on_tie.tolist():
        assert engine.execute(QueryRequest.for_points([[x, y]])).values == [True]
    assert all(engine.execute(QueryRequest.for_points(many)).values)


# -- the engine: Python-row routing vs array routing ---------------------------------


@pytest.fixture(scope="module")
def twins():
    """A two-level RSMI with overflow chains, and a deep copy of it."""
    rng = np.random.default_rng(23)
    points = rng.uniform(size=(900, 2)) ** np.array([1.0, 3.0])
    config = RSMIConfig(block_capacity=8, partition_threshold=200, training=TRAINING, seed=0)
    index = RSMI(config).build(points)
    assert not index.root.is_leaf
    for x, y in points[rng.integers(0, 900, size=150)].tolist():
        index.insert(x + 1e-5, y)
    return index, copy.deepcopy(index)


def _requests(index, rows: int, seed: int) -> list[QueryRequest]:
    rng = np.random.default_rng(seed)
    stored = index.store.all_points()
    hits = stored[rng.integers(0, stored.shape[0], size=rows)]
    queries = np.where(rng.random((rows, 1)) < 0.7, hits, rng.random((rows, 2)))
    windows = []
    for cx, cy in rng.random((max(rows // 4, 1), 2)).tolist():
        w, h = rng.uniform(0.0, 0.15, size=2)
        windows.append(Rect(cx, cy, cx + w, cy + h))
    return [QueryRequest.for_points(queries), QueryRequest.for_windows(windows)]


def _serve(index, requests) -> tuple[list, list, dict, list]:
    pool = SharedBufferPool(40)
    index.attach_cache(pool.client("rsmi"))
    engine = BatchQueryEngine(index)
    answers, deltas = [], []
    for request in requests:
        result = engine.execute(request)
        # the engine resets the index's AccessStats per request
        deltas.append((result.access, index.stats.snapshot()))
        answers.append([np.asarray(v).tobytes() for v in result.values])
    index.attach_cache(None)
    return answers, deltas, pool.metrics(), list(pool._lru.items())


@pytest.mark.parametrize("rows", [1, 4, 16, 17, 48, 49, 2_000])
def test_small_requests_answer_and_read_like_array_routing(twins, rows):
    index, twin = twins
    requests = _requests(index, rows, seed=rows)
    as_rows = _serve(index, requests)
    with mock.patch("repro.engine.routing.LIST_ROWS", 0), mock.patch(
        "repro.nn.mlp.PYTHON_ROWS", 0
    ):
        as_arrays = _serve(twin, requests)
    assert as_rows == as_arrays

    sequential = BatchQueryEngine(index, mode="sequential")
    for request, answers in zip(requests, as_rows[0]):
        values = sequential.execute(request).values
        assert [np.asarray(v).tobytes() for v in values] == answers
