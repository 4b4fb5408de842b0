"""The library names the repository benchmark's tracer hooks into.

``perfbench/tracing.py`` wraps each boundary function by looking it up at
trace time (``owner.__dict__[name]`` for class members), so a rename or a
deletion in the library only shows up as a failed ``--trace 1`` run.  This
test resolves every ``BOUNDARIES`` and ``COUNTED`` entry the same way, so
such a change fails the unit suite instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

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
