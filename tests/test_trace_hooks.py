"""The benchmark's tracer wraps names in the package's module namespaces.

A rename of any of them would silently drop a span (or break ``--trace 1``),
so each one is checked to resolve where the tracer looks it up.
"""

import importlib

import pytest

tracing = pytest.importorskip("perfbench.tracing")

HOOKS = [
    (module, name) for module, names in tracing.SPANS.items() for name in names
] + [("leontief", "Factorization")]


@pytest.mark.parametrize("module, name", HOOKS)
def test_hook_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"iofootprint.{module}"), name))
