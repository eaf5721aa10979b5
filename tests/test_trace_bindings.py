"""Every binding the benchmark's layer tracer wraps must exist in the program.

perfbench/tracer.py replaces names in the modules that call them; a binding
that a refactor renames or moves is silently reported as absent, and its
per-layer metrics read zero. This test turns that into a failure.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, *_ in _patches()])
def test_traced_binding_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    found = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    assert callable(found), f"{module_name}.{attr} is missing"
