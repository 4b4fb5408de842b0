"""Quickstart: build an RSMI over synthetic data and run every query type.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import RSMI, RSMIConfig, Rect
from repro.datasets import generate_uniform
from repro.nn import TrainingConfig
from repro.queries import brute_force_knn, brute_force_window


def main() -> None:
    # 1. generate data: 20 000 uniform points in the unit square
    points = generate_uniform(20_000, seed=7)

    # 2. build the learned index (scaled-down block/partition sizes so the
    #    script finishes in a few seconds; the paper uses B=100, N=10 000)
    config = RSMIConfig(
        block_capacity=50,
        partition_threshold=2_000,
        training=TrainingConfig(epochs=60),
    )
    index = RSMI(config).build(points)
    print(f"built {index!r}")
    print(f"  height={index.height}  sub-models={index.n_models}  "
          f"error bounds={index.error_bounds()}  size={index.size_bytes() / 1024:.0f} KiB")

    # 3. point query: look up a stored point
    x, y = map(float, points[1234])
    print(f"\npoint query ({x:.4f}, {y:.4f}): found={index.contains(x, y)}")

    # 4. window query ("search this area")
    window = Rect(0.40, 0.40, 0.45, 0.45)
    index.stats.reset()
    result = index.window_query(window)  # an (m, 2) point array
    truth = brute_force_window(points, window)
    print(f"\nwindow query {window.as_tuple()}:")
    print(f"  reported {len(result)} points (true answer {truth.shape[0]}), "
          f"recall={len(result) / max(truth.shape[0], 1):.3f}, "
          f"block reads={index.stats.total_reads}")

    # 5. kNN query ("dinner near me")
    qx, qy = 0.5, 0.5
    knn = index.knn_query(qx, qy, k=10)  # a (10, 2) point array, nearest first
    truth_knn = brute_force_knn(points, qx, qy, 10)
    true_dists = np.hypot(truth_knn[:, 0] - qx, truth_knn[:, 1] - qy)
    print(f"\n10-NN of ({qx}, {qy}):")
    print(f"  reported distances: {np.round(np.hypot(*(knn - (qx, qy)).T), 4).tolist()}")
    print(f"  true distances:     {np.round(np.sort(true_dists), 4).tolist()}")

    # 6. updates
    index.insert(0.123, 0.456)
    print(f"\nafter insert: contains(0.123, 0.456) = {index.contains(0.123, 0.456)}")
    index.delete(0.123, 0.456)
    print(f"after delete: contains(0.123, 0.456) = {index.contains(0.123, 0.456)}")


if __name__ == "__main__":
    main()
