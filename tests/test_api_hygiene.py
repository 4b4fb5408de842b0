"""Repository hygiene checks: public API surface, docstrings and exports.

These tests keep the library honest as it grows: every public module carries a
docstring, every ``__all__`` name actually exists, and the top-level package
re-exports the documented entry points.
"""

import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

PUBLIC_MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
)


class TestModuleHygiene:
    def test_discovered_a_realistic_number_of_modules(self):
        assert len(PUBLIC_MODULES) > 40

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports_and_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a module docstring"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_exports_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"


    def test_library_deprecation_warnings_fail_the_run(self):
        """pyproject.toml's ``filterwarnings`` guard turns a DeprecationWarning
        raised from a ``repro`` module into an error."""
        with pytest.raises(DeprecationWarning):
            warnings.warn_explicit(
                "probe", DeprecationWarning, "engine.py", 1, module="repro.engine.engine"
            )


class TestTopLevelApi:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "name",
        ["RSMI", "RSMIConfig", "PeriodicRebuilder", "Rect", "AccessStats", "BlockStore"],
    )
    def test_top_level_exports(self, name):
        assert hasattr(repro, name)

    def test_core_public_api(self):
        from repro import core

        for name in (
            "RSMI",
            "RSMIConfig",
            "ExtendedObjectIndex",
            "save_index",
            "load_index",
        ):
            assert name in core.__all__

    def test_baseline_names_are_unique(self):
        from repro.baselines import GridFile, HRRTree, KDBTree, RStarTree, ZMIndex

        names = {cls.name for cls in (GridFile, HRRTree, KDBTree, RStarTree, ZMIndex)}
        assert len(names) == 5

    def test_experiment_registry_covers_every_bench_file(self):
        """Every experiment id referenced by a benchmark exists in the registry."""
        import re
        from pathlib import Path

        from repro.experiments import EXPERIMENT_REGISTRY

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        referenced = set()
        for path in bench_dir.glob("bench_*.py"):
            referenced.update(re.findall(r'run_experiment\("([^"]+)"\)', path.read_text()))
        assert referenced  # the harness really does reference experiments
        assert referenced.issubset(set(EXPERIMENT_REGISTRY))


class TestIndexProtocol:
    """Every index kind implements :class:`SpatialIndex`; the layers that
    serve them dispatch on declared capabilities, never on probes."""

    def test_evaluation_exports_no_adapters(self):
        from repro import evaluation
        from repro.evaluation import adapters

        for module in (evaluation, adapters):
            assert not [name for name in dir(module) if name.endswith("Adapter")]

    def test_every_suite_index_is_a_spatial_index(self):
        from repro.baselines.interface import SpatialIndex
        from repro.evaluation import INDEX_NAMES, build_index_suite
        from repro.nn import TrainingConfig
        from repro.sharding import EXACT_KINDS

        points = np.random.default_rng(0).random((300, 2))
        suite = build_index_suite(
            points, block_capacity=16, partition_threshold=150,
            training=TrainingConfig(epochs=3, seed=0),
        )
        assert set(suite) == set(INDEX_NAMES)
        for name, index in suite.items():
            assert isinstance(index, SpatialIndex), name
            assert index.name == name
            # a class-level declaration, matching the kinds the sharded
            # index derives its own flag from
            assert type(index).supports_exact_results is (name in EXACT_KINDS), name

    @pytest.mark.parametrize(
        "relative",
        ["engine/engine.py", "sharding/engine.py", "serving/engine.py", "serving/frontdoor.py"],
    )
    def test_dispatch_layers_have_no_attribute_probes(self, relative):
        source = (SRC / relative).read_text()
        assert not re.findall(r"\b(?:has|get)attr\(", source), relative


class TestEnginesDoNotTime:
    """Engines return answers plus block accounting; callers own the clock."""

    @pytest.mark.parametrize(
        "relative",
        ["engine/engine.py", "sharding/engine.py", "serving/engine.py", "serving/worker.py"],
    )
    def test_engine_modules_never_read_the_clock(self, relative):
        assert "perf_counter" not in (SRC / relative).read_text(), relative

    def test_query_result_carries_answers_and_accounting_only(self):
        from dataclasses import fields

        from repro.analytics import QueryResult

        assert [field.name for field in fields(QueryResult)] == ["kind", "values", "access"]
