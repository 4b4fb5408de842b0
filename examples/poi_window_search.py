"""Window-query scenario: "Search this area" over a POI-style data set.

This mirrors the paper's motivating example (Figure 1a): a map application
issues window queries for the points of interest visible in the current
viewport.  The script builds RSMI and the two strongest traditional
competitors (HRR and KDB) over an OSM-like clustered data set, runs a batch
of viewport-sized window queries, and reports average latency, block accesses
and recall for each index.

Run with::

    python examples/poi_window_search.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import HRRTree, KDBTree
from repro.core import RSMI, RSMIConfig
from repro.datasets import generate_osm_like
from repro.nn import TrainingConfig
from repro.queries import brute_force_window, generate_window_queries


def main() -> None:
    points = generate_osm_like(30_000, seed=3)
    print(f"data set: {points.shape[0]} OSM-like points of interest")

    rsmi = RSMI(
        RSMIConfig(block_capacity=50, partition_threshold=2_000,
                   training=TrainingConfig(epochs=60))
    ).build(points)
    hrr = HRRTree(block_capacity=50).build(points)
    kdb = KDBTree(block_capacity=50).build(points)

    # viewport-sized windows (0.01 % of the map), centred on POIs
    windows = generate_window_queries(points, 100, area_fraction=0.0001, seed=11)

    def evaluate(name, query_fn, stats):
        stats.reset()
        recalls, elapsed = [], 0.0
        for window in windows:
            start = time.perf_counter()
            reported = query_fn(window)
            elapsed += time.perf_counter() - start
            truth = brute_force_window(points, window)
            if truth.shape[0]:
                truth_set = {tuple(p) for p in np.round(truth, 12)}
                found = {tuple(p) for p in np.round(reported, 12)}
                recalls.append(len(found & truth_set) / len(truth_set))
            else:
                recalls.append(1.0)
        print(f"  {name:6s} avg latency {elapsed / len(windows) * 1000:7.3f} ms   "
              f"avg blocks {stats.total_reads / len(windows):7.1f}   "
              f"recall {np.mean(recalls):.3f}")

    print("\n'search this area' (window) queries:")
    evaluate("RSMI", rsmi.window_query, rsmi.stats)
    evaluate("RSMIa", rsmi.exact_view().window_query, rsmi.stats)
    evaluate("HRR", hrr.window_query, hrr.stats)
    evaluate("KDB", kdb.window_query, kdb.stats)


if __name__ == "__main__":
    main()
