"""Repository hygiene checks: public API surface, docstrings and exports.

These tests keep the library honest as it grows: every public module carries a
docstring, every ``__all__`` name actually exists, and the top-level package
re-exports the documented entry points.
"""

import importlib
import pkgutil
import warnings

import pytest

import repro

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
            "batch_point_queries",
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
