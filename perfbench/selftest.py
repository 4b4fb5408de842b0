"""Determinism self-test of the benchmark.

Two traced runs of one workload with one seed must agree bit for bit on
every exact metric (``blocks_per_op``, ``recall``, ``bytes_per_point``,
``failed_frac``, the answer digest) and on every count-type layer metric;
a different seed must change the input digest.  Streams are shortened to a
quarter (still long enough for every expected layer boundary to fire, a
checkpoint included), so the whole test takes about two minutes.

Run from the repository root::

    python3 perfbench/selftest.py

(``python3 -m pytest perfbench/selftest.py`` collects the same tests.)
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS threads before NumPy loads)
from inputs import digest, make_inputs  # noqa: E402
from metrics import per_layer  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SCALE = 0.25
SEED = 5

#: layer metrics that are times, not counts, and so may differ run to run
_TIMED = ("self_us", "checkpoint_ms_mean", "overhead_frac")


def _traced_run(name: str, seed: int):
    inputs = make_inputs(name, seed, scale=SCALE)
    prepared = prepare(inputs.requests)
    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_tmp-"))
    try:
        untraced, traced, tracer, served, pool_before, problems = run.trace(
            WORKLOADS[name], inputs, prepared, scratch
        )
        layers = per_layer(tracer, traced, untraced, served, pool_before)
        run.close_served(served)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    counts = {k: v for k, v in layers.items() if not any(t in k for t in _TIMED)}
    return digest(inputs), untraced.exact(), counts, problems


def test_same_seed_repeats_exactly():
    for name in WORKLOADS:
        first = _traced_run(name, SEED)
        second = _traced_run(name, SEED)
        assert not first[3], (name, first[3])
        assert first[1]["failed_frac"] == 0.0, (name, first[1])
        assert first[:3] == second[:3], name


def test_other_seed_changes_digest():
    for name in WORKLOADS:
        assert digest(make_inputs(name, SEED, SCALE)) != digest(
            make_inputs(name, SEED + 1, SCALE)
        ), name


if __name__ == "__main__":
    test_other_seed_changes_digest()
    test_same_seed_repeats_exactly()
    print("perfbench self-test passed")
    sys.exit(0)
