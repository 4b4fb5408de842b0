"""kNN scenario: "Dinner near me" over a clustered restaurant-style data set.

This mirrors the paper's second motivating example (Figure 1b): a location-
based app asks for the k nearest restaurants.  The script compares RSMI's
approximate expansion-based kNN algorithm (Algorithm 3) against the exact
best-first search on an R*-tree and on the MBR-augmented RSMI (RSMIa),
reporting latency and recall for several k.

Run with::

    python examples/nearest_neighbors.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import RStarTree
from repro.core import RSMI, RSMIConfig
from repro.datasets import generate_tiger_like
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, generate_knn_queries


def main() -> None:
    points = generate_tiger_like(15_000, seed=5)
    print(f"data set: {points.shape[0]} Tiger-like restaurant locations")

    rsmi = RSMI(
        RSMIConfig(block_capacity=50, partition_threshold=1_500,
                   training=TrainingConfig(epochs=60))
    ).build(points)
    rstar = RStarTree(block_capacity=50).build(points)

    queries = generate_knn_queries(points, 50, seed=21, jitter=0.01)

    for k in (1, 10, 50):
        print(f"\nk = {k}")
        for name, query_fn, stats in (
            ("RSMI", rsmi.knn_query, rsmi.stats),
            ("RSMIa", rsmi.exact_view().knn_query, rsmi.stats),
            ("RR*", rstar.knn_query, rstar.stats),
        ):
            stats.reset()
            recalls, elapsed = [], 0.0
            for qx, qy in queries:
                start = time.perf_counter()
                reported = query_fn(float(qx), float(qy), k)
                elapsed += time.perf_counter() - start
                truth = brute_force_knn(points, float(qx), float(qy), k)
                truth_set = {tuple(p) for p in np.round(truth, 12)}
                found = {tuple(p) for p in np.round(reported, 12)}
                recalls.append(len(found & truth_set) / max(len(truth_set), 1))
            print(f"  {name:6s} avg latency {elapsed / len(queries) * 1000:7.3f} ms   "
                  f"avg blocks {stats.total_reads / len(queries):6.1f}   "
                  f"recall {np.mean(recalls):.3f}")


if __name__ == "__main__":
    main()
