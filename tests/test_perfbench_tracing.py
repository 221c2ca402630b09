"""The benchmark tracer's bindings resolve in the package.

perfbench/tracing.py swaps the functions it names for wrappers, and
Tracer.install raises AttributeError on a name the package no longer binds.
Reading its tables here catches that without running the benchmark, and one
fresh interpreter with the tracer installed checks that its counters still see
the calls they count.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# installs the unedited Tracer in a fresh interpreter, runs three oracle calls and
# one pole solve, and prints the counters and the number of spans per name
_LIVE = """import importlib.util, json, math
spec = importlib.util.spec_from_file_location("perfbench_tracing", {tracing!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
import deltashell as ds
pot = ds.DeltaShellPotential(b=4.5 * math.pi, a=1.0)
for t in (0.1, 0.5, 1.0):
    ds.survival_amplitude_exact(pot, ds.box_state(1), t)
ds.find_poles(ds.DeltaShellPotential(b=5.0, a=1.0), 10, 10)
spans = {{}}
for span in tracer.spans:
    spans[span[0]] = spans.get(span[0], 0) + 1
print(json.dumps({{"counts": tracer.counts, "spans": spans}}))
"""


def test_tracer_counters_see_the_calls():
    """Bindings that resolve are not enough: a counter on a name the package no
    longer calls reads 0. One ray quadrature per oracle call, its integrand
    evaluated, and winding counts and damped Newton polishes in find_poles.
    """
    import deltashell
    src = str(Path(deltashell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _LIVE.format(tracing=str(TRACING))],
                          env=env, capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["counts"]["oracle.quad_calls"] == 3
    assert seen["counts"]["oracle.integrand_evals"] > 0
    assert seen["spans"].get("poles.count_roots_in_rectangle", 0) > 0
    assert seen["spans"].get("poles.newton_polish", 0) > 0
