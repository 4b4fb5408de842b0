"""The library names the repository benchmark's tracer hooks into.

``perfbench/tracing.py`` wraps each boundary function by looking it up at
trace time (``owner.__dict__[name]`` for class members), so a rename or a
deletion in the library only shows up as a failed ``--trace 1`` run.  This
test resolves every ``BOUNDARIES`` and ``COUNTED`` entry the same way, so
such a change fails the unit suite instead.

A traced run also fails when a boundary a workload is expected to reach
never fires, which a refactor that stops calling it (``Block.iter_points``,
``LeafModel.scan_range`` and ``BlockStore.iter_chain`` have few callers)
causes without touching the boundary itself; the last test catches that.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LIBRARY = ROOT / "src" / "repro"


def _load(name: str):
    """Import ``perfbench/<name>.py`` as ``perfbench_<name>`` with perfbench's
    own modules importable; ``sys.path`` is restored afterwards and
    perfbench's ``inputs``/``oracle`` do not stay in ``sys.modules``."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for added in ("inputs", "oracle"):
            if added not in saved_modules:
                sys.modules.pop(added, None)
    return module


tracing = _load("tracing")

SEAMS = sorted(
    {entry for entries in tracing.BOUNDARIES.values() for entry in entries}
    | set(tracing.COUNTED)
)


@pytest.mark.parametrize("module_name, qualname", SEAMS, ids=[q for _, q in SEAMS])
def test_tracer_resolves_seam(module_name, qualname):
    owner, name, original = tracing._resolve(module_name, qualname)
    assert callable(original), f"{module_name}.{qualname} is not callable"


def test_every_counting_hook_names_a_seam():
    """Hooks are keyed by the seam's qualified name; a hook whose seam is
    gone would silently stop counting."""
    hooks = set(tracing.Tracer()._hooks)
    assert hooks
    assert hooks <= {qualname for _, qualname in SEAMS}


def _referenced_names() -> set[str]:
    """Every attribute and bare name the library loads (calls included)."""
    names: set[str] = set()
    for path in LIBRARY.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


def test_every_expected_boundary_has_a_library_caller():
    """A boundary that some gated workload does not list as ``unreached``
    must fire in that workload's traced run, so the library must still
    reach it from somewhere."""
    gated = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = _load("workloads").WORKLOADS
    referenced = _referenced_names()
    uncalled = [
        qualname
        for entries in tracing.BOUNDARIES.values()
        for _, qualname in entries
        if any(qualname not in workloads[name].unreached for name in gated)
        and qualname.rpartition(".")[2] not in referenced
    ]
    assert not uncalled, f"expected to fire but nothing in src/repro calls: {uncalled}"
