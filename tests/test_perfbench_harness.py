"""The benchmark's workloads read the package's objects, and its checks pass.

perfbench reads poles, states and overlaps through their object views
(ps.proper + ps.improper, st.pole.k, st.A, ec.overlaps) and scans through
find_singularity, and the oracle through survival_amplitude_exact. Four of its
paths run here in-process, from the unedited perfbench/workloads.py, and so does
every command of its cli workload, through deltashell.cli.main, so a change to
those views, a scan result, an oracle amplitude or a CLI output that the
benchmark cannot read or rejects fails in Tier-1.
"""
import importlib.util
import math
from pathlib import Path

import pytest

from deltashell import box_state
from deltashell.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("b,a", [(20.0, 0.5), (4.5 * math.pi, 1.0)])
def test_spectrum_pole_table_passes_the_benchmark_checks(workloads, b, a):
    out = workloads.Spectrum.keep_table(workloads.Spectrum.table(b, a, 10))
    checks = workloads.checks
    errors = (checks.pole_table(out["kp"], out["km"], b, a, 10)
              + checks.state_amplitudes(out["state_k"], out["state_A"], a, f"b={b} a={a}"))
    assert errors == []
    assert out["index"] == list(range(1, 11)) + list(range(-1, -11, -1))


def test_spectrum_scan_passes_the_benchmark_checks(workloads):
    out = workloads.Spectrum.scan(-5, 1.0)
    assert workloads.checks.singularity(out["b_star"], out["k_star"], out["family"],
                                        out["a"]) == []


def test_decay_state_passes_the_benchmark_checks(workloads):
    ctx = {"b": workloads.NINE_HALF_PI}
    workloads.Decay.table(ctx)
    out = workloads.Decay.keep_state(workloads.Decay.state(ctx, box_state(1), [1.0]))
    errors, rel = workloads.Decay.check_state(out)
    assert errors == []
    assert rel < workloads.checks.EXPANSION_AMPLITUDE_ABS


def test_oracle_op_passes_the_benchmark_checks(workloads):
    """One cold and two warm oracle calls on one (b, state), from the
    oracle's smallest time on, then the check the benchmark runs on them,
    its fixed check points included.
    """
    out = workloads.Oracle.op(20.0, ("box", 2), [0.05, 0.3, 1.0])
    errors, _ = workloads.Oracle(None).check([(None, out, None)])
    assert errors == []


def test_cli_commands_pass_the_benchmark_checks(workloads, tmp_path):
    """Each of the cli workload's commands exits 0 or with its listed fault
    code, and every output of an exit 0 passes that workload's check.
    """
    for name, args, fault_code in workloads.CLI_COMMANDS:
        out = tmp_path / f"{name}.out"
        code = main(args + ["--out", str(out)])
        assert code in (0, fault_code), f"{name} exited with {code}"
        if code == 0:
            errors, _ = workloads.Cli.check_output(name, out.read_bytes())
            assert errors == [], name
