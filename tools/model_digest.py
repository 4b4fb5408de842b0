"""Digest of every model a perfbench workload's build trains.

Usage, from the root of the repository::

    python3 tools/model_digest.py online-mixed 1

Builds the workload's index once, exactly as ``perfbench/run.py`` sets it
up (same inputs, same configuration, BLAS pinned to one thread), and
records every :func:`repro.nn.train_regressor` call in call order: each
layer's weights and bias, and the run's loss history.  It prints the
number of models and one SHA-256 over all of them.  Two trees that print
the same digest trained bit-identical models; a change that retunes
training shows here that its models changed on purpose.

It prints a second SHA-256, ``positions``, over what the build derived
from those models: each model's rounded prediction (cell or local block)
of every row it was trained on, through ``MLPRegressor.predict`` as the
tree at hand implements it, and every leaf's error bounds.  A change to
inference that keeps both digests moved no rounded prediction, grouping
or error bound, so every answer, block read and exact metric is the same.

Pickle bytes and walks over the built object graph are not used: neither
is stable from run to run, so they report mismatches on identical models.
"""

import os

# pin BLAS/OpenMP pools to one thread before NumPy is first imported, as
# the benchmark does
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _record_training(sink: list):
    """Route every module's ``train_regressor`` through a recorder that
    appends ``(model, inputs, result)`` to ``sink`` after each call."""
    from repro.nn import training

    original = training.train_regressor

    def recording(model, inputs, *args, **kwargs):
        result = original(model, inputs, *args, **kwargs)
        sink.append((model, inputs, result))
        return result

    for module in list(sys.modules.values()):
        if getattr(module, "train_regressor", None) is original:
            module.train_regressor = recording


def model_digest(trained: list) -> str:
    digest = hashlib.sha256()
    for model, _, result in trained:
        for layer in model.layers:
            for array in (layer.weights, layer.bias):
                digest.update(struct.pack("<2q", *array.reshape(array.shape[0], -1).shape))
                digest.update(array.astype("<f8").tobytes())
        digest.update(struct.pack(f"<q{len(result.loss_history)}d",
                                  len(result.loss_history), *result.loss_history))
    return digest.hexdigest()


def _sub_models(index) -> dict:
    """``id(model) -> (top, bounds)`` for every sub-model of an RSMI or of
    a sharded index of RSMIs: its owner rounds the model's raw output to an
    index in ``[0, top]``, and ``bounds`` are a leaf's ``(err_below,
    err_above)`` (None for a partitioning model)."""
    from repro.core.rsmi import RSMI

    if isinstance(index, RSMI):
        roots = [index.root]
    else:
        roots = [shard.index.root for shard in index.shards if shard.index is not None]
    owners = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.is_leaf:
            owners[id(node.model)] = (node.n_local_blocks - 1, (node.err_below, node.err_above))
        else:
            partitioning = node.partitioning
            owners[id(partitioning.model)] = (partitioning.n_cells - 1, None)
            stack.extend(node.children.values())
    return owners


def positions_digest(trained: list, index) -> str:
    import numpy as np

    owners = _sub_models(index)
    digest = hashlib.sha256()
    for model, inputs, _ in trained:
        top, bounds = owners[id(model)]
        raw = model.predict(np.asarray(inputs, dtype=float)) * max(top, 1)
        rounded = np.clip(np.rint(raw), 0, top).astype("<i8")
        digest.update(struct.pack("<q", rounded.size))
        digest.update(rounded.tobytes())
        if bounds is not None:
            digest.update(struct.pack("<2q", *bounds))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

    from inputs import make_inputs
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    points = make_inputs(args.workload, args.seed).points
    trained: list = []
    _record_training(trained)
    index = workload.build(points)
    print(f"workload={args.workload} seed={args.seed} models={len(trained)} "
          f"digest={model_digest(trained)} positions={positions_digest(trained, index)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
