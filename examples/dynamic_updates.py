"""Update-handling scenario: a growing POI database with periodic rebuilds.

The paper targets query-heavy workloads but still supports inserts and
deletes (Section 5) and proposes periodic rebuilds (RSMIr) to keep query
performance high (Section 6.2.5).  This script simulates a database that
keeps receiving new points: it measures query quality right after bulk
loading, after 30 % insertions, and after a rebuild, and also demonstrates
deletions.

Run with::

    python examples/dynamic_updates.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PeriodicRebuilder, RSMI, RSMIConfig
from repro.datasets import generate_skewed
from repro.nn import TrainingConfig
from repro.queries import brute_force_window, generate_window_queries


def window_recall_sample(index: RSMI, points: np.ndarray, seed: int) -> float:
    windows = generate_window_queries(points, 40, area_fraction=0.0002, seed=seed)
    recalls = []
    for window in windows:
        reported = index.window_query(window)
        truth = brute_force_window(points, window)
        if truth.shape[0] == 0:
            recalls.append(1.0)
            continue
        truth_set = {tuple(p) for p in np.round(truth, 12)}
        found = {tuple(p) for p in np.round(reported, 12)}
        recalls.append(len(found & truth_set) / len(truth_set))
    return float(np.mean(recalls))


def main() -> None:
    base = generate_skewed(12_000, seed=1)
    incoming = generate_skewed(6_000, seed=42)

    index = RSMI(
        RSMIConfig(block_capacity=50, partition_threshold=1_500,
                   training=TrainingConfig(epochs=60))
    ).build(base)
    print(f"initial build: {index.n_points} points, {index.store.n_blocks} blocks, "
          f"recall={window_recall_sample(index, base, seed=7):.3f}")

    # stream 30% new points through the RSMIr wrapper (rebuild every 10%)
    rebuilder = PeriodicRebuilder(index, rebuild_fraction=0.10)
    inserted = []
    for i, (x, y) in enumerate(incoming[: int(0.3 * base.shape[0])]):
        rebuilder.insert(float(x), float(y))
        inserted.append((float(x), float(y)))
    all_points = np.vstack([base, np.asarray(inserted)])
    print(f"after 30% insertions ({len(inserted)} points, {rebuilder.n_rebuilds} rebuilds): "
          f"{index.n_points} points, {index.store.n_overflow_blocks} overflow blocks, "
          f"recall={window_recall_sample(index, all_points, seed=8):.3f}")

    # verify a few of the inserted points are queryable, then delete them
    sample = inserted[:100]
    found = sum(index.contains(x, y) for x, y in sample)
    print(f"inserted-point lookups: {found}/{len(sample)} found")
    deleted = sum(index.delete(x, y) for x, y in sample)
    still_there = sum(index.contains(x, y) for x, y in sample)
    print(f"deletions: {deleted} removed, {still_there} still reachable")


if __name__ == "__main__":
    main()
