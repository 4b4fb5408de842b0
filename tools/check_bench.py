"""Perf-regression gate: compare emitted ``BENCH_*.json`` against baselines.

CI's ``perf-gate`` job runs the fast benchmark configs (which write
``benchmarks/results/BENCH_*.json``) and then this checker, which compares
every baseline file committed under ``benchmarks/baselines/`` against the
freshly emitted results with per-metric tolerances:

* **config keys** (``n_points``, ``cache_blocks``, ``count``, per-shard /
  per-tenant op counts, ...) are deterministic given the same code + budget
  and must match exactly — a mismatch means the benchmark config drifted
  from the committed baselines (regenerate them with ``--update``) *or* a
  behaviour change rerouted work, either of which deserves a human look.
* **gated metrics** fail the build when they regress beyond their
  tolerance: higher-is-better ones (``hit_ratio``, ``physical_reduction``,
  ``fairness_index``) may not drop, lower-is-better ones (``logical_reads``,
  ``physical_reads_*``) may not grow.
* **informational metrics** (anything wall-clock: ``*_ms``, ``*ops_per_s``,
  ``queueing_ratio``, fractions) are reported in the delta table but never
  gate — CI machines are too noisy to compare milliseconds across runs.

Usage::

    PYTHONPATH=src python tools/check_bench.py            # gate (CI)
    PYTHONPATH=src python tools/check_bench.py --update   # refresh baselines
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
BASELINES_DIR = REPO_ROOT / "benchmarks" / "baselines"

#: metric names (last path segment) that must match the baseline exactly
CONFIG_KEYS = {
    "n_points",
    "n_queries",
    "n_ops",
    "n_shards",
    "n_tenants",
    "block_capacity",
    "cache_blocks",
    "cache_blocks_per_shard",
    "cache_policy",
    "overload_fraction",
    "count",
    "per_tenant_ops",
    "per_shard_query_counts",
    "checkpoint_every",
    "n_wal_replayed",
    "n_windows",
    "pool_blocks",
    "pool_admission",
    # parallel serving: worker topology, answer identity and admission
    # decisions are deterministic; the speedup *gate* resolves to a flag
    # (trivially 1 below 4 cores) so the committed baseline stays
    # machine-independent while >= 4-core machines still enforce the ratio
    "n_workers",
    "worker_counts",
    "answers_identical",
    "speedup_gate_ok",
    "sojourn_gate_ok",
    "n_accepted",
    "n_dropped",
    # analytics: the aggregate batch and the brute-force scan cost are fixed
    # by (budget, block capacity); answer verification resolves to flags
    "n_aggregates",
    "brute_force_reads",
    "quantile_within_bound",
    "touched_shards",
    "layout",
}

#: gated metrics that may not drop below baseline * (1 - tolerance)
HIGHER_IS_BETTER = {
    "hit_ratio": 0.02,
    "hit_ratios": 0.02,
    "physical_reduction": 0.20,
    "fairness_index": 0.30,
    # wall-clock ratio, but its structural margin (training time vs
    # unpickling) is huge — gate only a total collapse of the recovery win
    "cold_start_speedup": 0.50,
    # buffer-pool / Hilbert-layout claims (deterministic: the pool's
    # admission sketch uses a stable hash, so only code changes move these)
    "pool_hit_ratio": 0.03,
    "layout_read_reduction": 0.15,
    "run_reduction": 0.10,
    "scan_advantage": 0.30,
    "drift_advantage": 0.20,
    # rebalancing claims (deterministic: the controller's trigger is decayed
    # logical read counts, never wall-clock time — only code changes move these)
    "blocks_advantage": 0.10,
    "n_splits": 0.50,
    # push-down aggregates: blocks touched vs a full scan per aggregate
    # (deterministic routing; only code changes move it)
    "agg_read_reduction": 0.15,
}

#: gated metrics that may not rise above baseline * (1 + tolerance)
LOWER_IS_BETTER = {
    "logical_reads": 0.02,
    "physical_reads_cached": 0.10,
    "physical_reads_uncached": 0.02,
    "logical_reads_z": 0.02,
    "logical_reads_hilbert": 0.02,
    "hot_refaults_tinylfu": 0.50,
    "tail_blocks_per_op_on": 0.10,
    "agg_logical_reads": 0.02,
}


def flatten(payload, prefix: str = "") -> dict[str, object]:
    """Nested benchmark dicts as dotted-path leaves.

    Dicts whose *path* ends in a config key (per-shard counts, per-tenant
    ops) stay whole so they compare exactly as units.
    """
    flat: dict[str, object] = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict) and key not in CONFIG_KEYS:
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def classify(path: str) -> tuple[str, float]:
    """(kind, tolerance) for one dotted metric path."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf in CONFIG_KEYS:
        return "config", 0.0
    # hit_ratios.lru / hit_ratios.clock style nesting gates on the parent name
    for name, tolerance in HIGHER_IS_BETTER.items():
        if leaf == name or f".{name}." in f".{path}.":
            return "higher", tolerance
    for name, tolerance in LOWER_IS_BETTER.items():
        if leaf == name:
            return "lower", tolerance
    return "info", 0.0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def compare_file(baseline: dict, current: dict, file_name: str) -> tuple[list, int]:
    """Delta rows plus the number of regressions for one BENCH file."""
    base_flat = flatten(baseline)
    curr_flat = flatten(current)
    rows: list[tuple[str, str, str, str, str]] = []
    failures = 0
    for path in sorted(base_flat):
        kind, tolerance = classify(path)
        base_value = base_flat[path]
        if path not in curr_flat:
            rows.append((f"{file_name}:{path}", _fmt(base_value), "MISSING", "-", "FAIL"))
            failures += 1
            continue
        value = curr_flat[path]
        if kind == "config":
            status = "ok" if value == base_value else "CONFIG MISMATCH"
            if status != "ok":
                failures += 1
            rows.append((f"{file_name}:{path}", _fmt(base_value), _fmt(value), "-", status))
            continue
        if not isinstance(value, (int, float)) or not isinstance(base_value, (int, float)):
            continue
        delta = (
            (value - base_value) / abs(base_value) if base_value else float(value != base_value)
        )
        delta_text = f"{delta:+.1%}"
        if kind == "higher":
            status = "REGRESSION" if value < base_value * (1 - tolerance) else "ok"
        elif kind == "lower":
            status = "REGRESSION" if value > base_value * (1 + tolerance) else "ok"
        else:
            status = "info"
        if status == "REGRESSION":
            failures += 1
        rows.append((f"{file_name}:{path}", _fmt(base_value), _fmt(value), delta_text, status))
    return rows, failures


def print_table(rows: list) -> None:
    header = ("metric", "baseline", "current", "delta", "status")
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows)) if rows else len(header[col])
        for col in range(5)
    ]
    line = "  ".join(title.ljust(width) for title, width in zip(header, widths))
    print(line)
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def update_baselines(results_dir: Path, baselines_dir: Path) -> int:
    baselines_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for path in sorted(results_dir.glob("BENCH_*.json")):
        shutil.copyfile(path, baselines_dir / path.name)
        print(f"baseline updated: {baselines_dir / path.name}")
        copied += 1
    if not copied:
        print(f"no BENCH_*.json under {results_dir}; run the benchmarks first",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare emitted BENCH_*.json against committed baselines"
    )
    parser.add_argument("--results", type=Path, default=RESULTS_DIR,
                        help="directory the benchmarks wrote into")
    parser.add_argument("--baselines", type=Path, default=BASELINES_DIR,
                        help="directory of committed baselines")
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the baselines instead of gating")
    args = parser.parse_args(argv)

    if args.update:
        return update_baselines(args.results, args.baselines)

    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no baselines under {args.baselines}; seed them with --update",
              file=sys.stderr)
        return 1

    all_rows: list = []
    failures = 0
    for baseline_path in baseline_files:
        result_path = args.results / baseline_path.name
        if not result_path.exists():
            print(f"FAIL: {result_path} was not emitted (baseline exists)",
                  file=sys.stderr)
            failures += 1
            continue
        rows, file_failures = compare_file(
            json.loads(baseline_path.read_text()),
            json.loads(result_path.read_text()),
            baseline_path.name,
        )
        all_rows.extend(rows)
        failures += file_failures
    for result_path in sorted(args.results.glob("BENCH_*.json")):
        if not (args.baselines / result_path.name).exists():
            print(f"note: {result_path.name} has no baseline yet "
                  f"(add one with --update)")

    print_table(all_rows)
    if failures:
        print(f"\n{failures} perf-gate failure(s) against {args.baselines}",
              file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {len(all_rows)} metrics checked against "
          f"{len(baseline_files)} baseline file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
