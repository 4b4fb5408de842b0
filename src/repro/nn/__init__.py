"""Minimal feed-forward neural network substrate (NumPy only).

The paper trains its learned index models with PyTorch 1.4 (multilayer
perceptrons with one hidden layer, sigmoid activation, L2 loss, SGD).  No
deep-learning framework is available offline, so this package provides an
equivalent substrate built on NumPy:

* :mod:`repro.nn.activations` — sigmoid / relu / tanh / identity,
* :mod:`repro.nn.layers` — dense layers with Xavier initialisation,
* :mod:`repro.nn.losses` — mean squared error (the paper's L2 loss),
* :mod:`repro.nn.optimizers` — SGD (with momentum) and Adam,
* :mod:`repro.nn.mlp` — the :class:`MLPRegressor` used by RSMI and ZM,
* :mod:`repro.nn.scaler` — min-max scaling of inputs/targets to ``[0, 1]``,
* :mod:`repro.nn.training` — a small training loop with optional early stop.

Training is nearly all of an index build, so the training step is lean:
each layer writes its forward and backward results into buffers reused
across epochs, the first layer computes no input gradient, one MSE
difference serves as both the loss and its gradient, and the optimizer
updates one flat vector holding every parameter.  It performs exactly the
floating-point operations of the plain one-array-per-operation step, so
the trained models are bit-identical to it (``tests/test_nn_bit_identity.py``
keeps that step as the reference).

BLAS threads.  The matrix products go to the BLAS library NumPy links,
which by default starts one thread per core.  On a 2-core host, alone, a
20,000-point RSMI build costs about the same either way; while a second
busy process shares the cores it takes twice as long unpinned, and a
two-worker :class:`~repro.serving.ParallelShardEngine` starts 3-8x slower
(README, "Build time and BLAS threads", has the numbers).  Pin BLAS to
one thread in the environment before Python starts when cores are
shared; worker processes inherit it.  The library does not pin on its
own: NumPy reads the setting once, when it loads, and the thread count
changes the bits of large products (the ``online-mixed`` models trained
on one thread differ from those trained on two, by
``tools/model_digest.py``), so workers pinned apart from their parent
would train other models than an in-process engine over the same spec
whenever a shard is large enough for BLAS to thread, and lose
byte-identical answers.
"""

from repro.nn.activations import Activation, Identity, ReLU, Sigmoid, Tanh, activation_by_name
from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.optimizers import SGD, Adam, Optimizer, optimizer_by_name
from repro.nn.mlp import MLPRegressor
from repro.nn.scaler import MinMaxScaler
from repro.nn.training import TrainingConfig, TrainingResult, train_regressor

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "activation_by_name",
    "DenseLayer",
    "Loss",
    "MeanSquaredError",
    "Optimizer",
    "SGD",
    "Adam",
    "optimizer_by_name",
    "MLPRegressor",
    "MinMaxScaler",
    "TrainingConfig",
    "TrainingResult",
    "train_regressor",
]
