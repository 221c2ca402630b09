"""The benchmark tracer's bindings resolve in the package.

perfbench/tracing.py swaps the functions it names for wrappers, and
Tracer.install raises AttributeError on a name the package no longer binds.
Reading its tables here catches that without running the benchmark.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED + module.COUNTED


BINDINGS = _tracing_tables()


@pytest.mark.parametrize("name,home,attr,only", BINDINGS,
                         ids=[f"{home}.{attr}" for _, home, attr, _ in BINDINGS])
def test_tracer_binding_resolves(name, home, attr, only):
    for module in [home] + (only or []):
        assert hasattr(importlib.import_module(f"deltashell.{module}"), attr), \
            f"{name}: deltashell.{module} does not bind {attr}"
