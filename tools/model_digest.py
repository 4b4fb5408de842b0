"""Digest of every model a perfbench workload's build trains.

Usage, from the root of the repository::

    python3 tools/model_digest.py online-mixed 1

Builds the workload's index once, exactly as ``perfbench/run.py`` sets it
up (same inputs, same configuration, BLAS pinned to one thread), and
records every :func:`repro.nn.train_regressor` call in call order: each
layer's weights and bias, and the run's loss history.  It prints the
number of models and one SHA-256 over all of them.  Two trees that print
the same digest trained bit-identical models, so every answer, block read
and exact metric built on them is the same; a change that retunes training
shows here that its models changed on purpose.

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
    appends ``(model, result)`` to ``sink`` after each call."""
    from repro.nn import training

    original = training.train_regressor

    def recording(model, *args, **kwargs):
        result = original(model, *args, **kwargs)
        sink.append((model, result))
        return result

    for module in list(sys.modules.values()):
        if getattr(module, "train_regressor", None) is original:
            module.train_regressor = recording


def model_digest(trained: list) -> str:
    digest = hashlib.sha256()
    for model, result in trained:
        for layer in model.layers:
            for array in (layer.weights, layer.bias):
                digest.update(struct.pack("<2q", *array.reshape(array.shape[0], -1).shape))
                digest.update(array.astype("<f8").tobytes())
        digest.update(struct.pack(f"<q{len(result.loss_history)}d",
                                  len(result.loss_history), *result.loss_history))
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
    workload.build(points)
    print(f"workload={args.workload} seed={args.seed} models={len(trained)} "
          f"digest={model_digest(trained)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
