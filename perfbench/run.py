"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload online-mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (median ``setup_s``), then
replays its request stream in complete passes, each from a fresh copy of
the set-up index, until ``--seconds`` have passed, and prints the
end-to-end metrics.  ``--trace 1`` replays the stream once untraced and
once with the layer wrappers installed, checks that both gave the same
answers and exact counts, and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` in this directory.
"""

import os

# pin BLAS/OpenMP pools to one thread before NumPy is first imported
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
from collections import Counter  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: share of the stream replayed on a throwaway copy before any timing
WARMUP_FRACTION = 0.02

WORKLOAD_NAMES = ("online-mixed", "batch-analytics", "durable-drift")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def close_served(served) -> None:
    if served.close is not None:
        served.close()


def _warm_up(workload, pristine, inputs, prepared, scratch) -> None:
    """Replay a prefix of the stream on a throwaway copy, unchecked."""
    from workloads import run_pass

    n = max(int(len(inputs.requests) * WARMUP_FRACTION), 1)
    prefix = type(inputs)(points=inputs.points, requests=inputs.requests[:n])
    served = workload.serve(copy.deepcopy(pristine), scratch / "warmup")
    run_pass(served, prefix, prepared[:n])
    close_served(served)


def measure(workload, inputs, prepared, seconds, scratch):
    """Set up ``SETUP_REPEATS`` times, then replay whole passes until
    ``seconds`` have passed.  Returns ``(setup times, passes, problems)``."""
    from workloads import run_pass

    clock = time.perf_counter
    setup_times = []
    first = pristine = None
    for repeat in range(SETUP_REPEATS):
        start = clock()
        built = workload.build(inputs.points)
        build_s = clock() - start
        if repeat == 0:
            pristine = copy.deepcopy(built)
        start = clock()
        served = workload.serve(built, scratch / f"setup-{repeat}")
        setup_times.append(build_s + clock() - start)
        if repeat == 0:
            first = served
        else:
            close_served(served)
    _warm_up(workload, pristine, inputs, prepared, scratch)

    passes = []
    served = first
    deadline = clock() + seconds
    while True:
        passes.append(run_pass(served, inputs, prepared))
        close_served(served)
        if clock() >= deadline:
            break
        served = workload.serve(copy.deepcopy(pristine), scratch / f"pass-{len(passes)}")
    problems = []
    if any(p.exact() != passes[0].exact() for p in passes[1:]):
        problems.append("exact metrics differ between passes of one stream")
    return setup_times, passes, problems


def trace(workload, inputs, prepared, scratch):
    """One untraced and one traced pass from identical copies.  Returns
    ``(untraced, traced, tracer, served, pool counters, problems)``."""
    from metrics import pool_counters
    from tracing import BOUNDARIES, Tracer
    from workloads import run_pass

    built = workload.build(inputs.points)
    traced_copy = copy.deepcopy(built)
    _warm_up(workload, built, inputs, prepared, scratch)
    untraced_served = workload.serve(built, scratch / "untraced")
    traced_served = workload.serve(traced_copy, scratch / "traced")
    untraced = run_pass(untraced_served, inputs, prepared)
    close_served(untraced_served)
    pool_before = pool_counters(traced_served.pool)
    with Tracer() as tracer:
        traced = run_pass(traced_served, inputs, prepared, tracer=tracer)
    problems = []
    if traced.exact() != untraced.exact():
        problems.append("traced answers or exact counts differ from the untraced pass")
    for boundaries in BOUNDARIES.values():
        for _, qualname in boundaries:
            if qualname not in workload.unreached and tracer.calls[qualname] == 0:
                problems.append(f"boundary {qualname} never fired")
    return untraced, traced, tracer, traced_served, pool_before, problems


def _record(args, inputs, input_digest, workload, passes, metrics, units, problems,
            kept_share):
    """Print the run record: inputs, host, policy, samples, failures, metrics."""
    import numpy as np

    from workloads import LATENCY_KINDS

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs digest={input_digest} points={inputs.points.shape[0]} "
          f"requests={len(inputs.requests)} ops={inputs.n_ops}")
    print(f"host nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={os.environ['OMP_NUM_THREADS']}")
    print(f"flush policy: {workload.flush_policy}")
    ops = sum(p.ops for p in passes)
    service = sum(p.service_s for p in passes)
    print(f"passes={len(passes)} ops={ops} service_s={service:.3f}")
    samples = Counter(sample[0] for p in passes for sample in p.samples)
    print("latency samples (requests): "
          + " ".join(f"{k}={samples[k]}" for k in LATENCY_KINDS))
    if kept_share is not None:
        print(f"requests timed at near-best host speed: {kept_share:.1%}")
    kinds = sorted({k for p in passes for k in p.attempted})
    print("failed by kind: " + " ".join(
        f"{k}={sum(p.failed[k] for p in passes)}/{sum(p.attempted[k] for p in passes)}"
        for k in kinds
    ))
    for p in passes:
        for error in p.errors[:5]:
            print(f"error: {error}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: the library is not importable from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the library under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from inputs import digest, make_inputs
    from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, end_to_end, per_layer
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(args.workload, args.seed)
    input_digest = digest(inputs)
    prepared = prepare(inputs.requests)
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            untraced, traced, tracer, served, pool_before, problems = trace(
                workload, inputs, prepared, scratch
            )
            metrics = per_layer(tracer, traced, untraced, served, pool_before)
            close_served(served)
            passes, units, kept_share = [untraced, traced], PER_LAYER_UNITS, None
        else:
            setup_times, passes, problems = measure(
                workload, inputs, prepared, args.seconds, scratch
            )
            metrics, kept_share = end_to_end(setup_times, passes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never created

    _record(args, inputs, input_digest, workload, passes, metrics, units, problems,
            kept_share)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.n_failed for p in passes)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
