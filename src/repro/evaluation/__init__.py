"""Experiment harness: the index suite, metrics, runner and table rendering.

The paper's evaluation sweeps six index structures over five data
distributions and several workload parameters, reporting per-query response
time, block accesses and (for the learned indices) recall.  This package
provides the machinery the :mod:`repro.experiments` modules use to regenerate
each table and figure:

* :mod:`repro.evaluation.adapters` — the index suite: every kind (RSMI,
  RSMIa and the baselines) by name,
* :mod:`repro.evaluation.metrics` — recall and aggregate statistics,
* :mod:`repro.evaluation.runner` — builds index suites and measures query
  workloads,
* :mod:`repro.evaluation.reporting` — plain-text table rendering of results.
"""

from repro.evaluation.adapters import INDEX_NAMES, build_index_suite
from repro.evaluation.metrics import knn_recall, window_recall
from repro.evaluation.runner import (
    BuildReport,
    QueryMetrics,
    SuiteConfig,
    measure_insertions,
    measure_knn_queries,
    measure_point_queries,
    measure_window_queries,
)
from repro.evaluation.reporting import format_table
from repro.evaluation.export import export_results, write_csv, write_json

__all__ = [
    "export_results",
    "write_csv",
    "write_json",
    "INDEX_NAMES",
    "build_index_suite",
    "knn_recall",
    "window_recall",
    "SuiteConfig",
    "BuildReport",
    "QueryMetrics",
    "measure_point_queries",
    "measure_window_queries",
    "measure_knn_queries",
    "measure_insertions",
    "format_table",
]
