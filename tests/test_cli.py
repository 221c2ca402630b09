import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deltashell
from deltashell import cli, expansion, singularity
from deltashell.cli import main
from deltashell.poles import _acceptance_bound

from reference_values import REFERENCE_POLES

B_REF = "14.137166941"
GOLDEN = Path(__file__).parent / "golden"

# command -> {output flag: golden file}; the files pin the CLI's bytes, and a
# change that alters them on purpose regenerates them and says why
GOLDEN_CASES = [
    (["poles", "--n", "10"], {"--out": "poles_n10.csv"}),
    (["poles", "--n", "6", "--states", "--format", "json"], {"--out": "poles_n6_states.json"}),
    (["survival", "--q", "1", "--samples", "20"], {"--out": "survival_q1_samples20.csv"}),
    (["survival", "--q", "2", "--oracle", "--tmin", "0.5tau", "--samples", "6",
      "--format", "json"], {"--out": "survival_q2_oracle.json"}),
    (["scan", "--family", "-5", "--b-range", "13:15"],
     {"--out": "scan_family-5.json", "--trajectory-out": "scan_family-5_trajectory.csv"}),
]


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def run(args):
    return main(args)


def golden_mismatch(name: str, got: str, want: str) -> str:
    """The first differing line and the largest relative deviation between numeric cells."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    i = next((j for j, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))
    g = got_lines[i] if i < len(got_lines) else "<end of output>"
    w = want_lines[i] if i < len(want_lines) else "<end of file>"
    nums = [NUMBER.findall(text) for text in (got, want)]
    if len(nums[0]) != len(nums[1]):
        worst = f"numeric cells differ in number: {len(nums[0])} against {len(nums[1])}"
    else:
        dev = [abs(float(x) - float(y)) / (max(abs(float(x)), abs(float(y))) or 1.0)
               for x, y in zip(*nums) if x != y]
        worst = (f"largest relative deviation between numeric cells "
                 f"{max(dev, default=0.0):.2e} ({len(dev)} of {len(nums[0])} cells differ)")
    return f"{name}: first difference at line {i + 1}\n  got:    {g}\n  golden: {w}\n{worst}"


@pytest.mark.parametrize("args,outputs", GOLDEN_CASES,
                         ids=[case[1]["--out"] for case in GOLDEN_CASES])
def test_cli_output_matches_golden_bytes(tmp_path, args, outputs):
    for flag, name in outputs.items():
        args = args + [flag, str(tmp_path / name)]
    assert run(args) == 0
    for name in outputs.values():
        got, want = (tmp_path / name).read_bytes(), (GOLDEN / name).read_bytes()
        if got != want:
            pytest.fail(golden_mismatch(name, got.decode(), want.decode()), pytrace=False)


def test_golden_mismatch_names_line_and_deviation():
    golden = "# b = 1.5\nindex,re_k\n1,3.0\n2,-6.0\n"
    msg = golden_mismatch("t.csv", golden.replace("-6.0", "-6.000000000003"), golden)
    assert msg.splitlines()[:3] == ["t.csv: first difference at line 4",
                                    "  got:    2,-6.000000000003", "  golden: 2,-6.0"]
    assert msg.splitlines()[3] == ("largest relative deviation between numeric cells "
                                   "5.00e-13 (1 of 5 cells differ)")
    assert "differ in number: 3 against 5" in golden_mismatch("t.csv", golden[:-7], golden)


def test_poles_table(tmp_path):
    out = tmp_path / "poles.csv"
    assert run(["poles", "--b", B_REF, "--a", "1", "--n", "10",
                "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0].split(",") == ["index", "re_k", "im_k", "resonance_position", "width"]
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert len(rows) == 20
    for p, (rem, imm, rep, imp) in REFERENCE_POLES.items():
        assert float(rows[p][1]) == pytest.approx(rep, abs=1e-4)
        assert float(rows[p][2]) == pytest.approx(imp, abs=1e-4)
        assert float(rows[-p][1]) == pytest.approx(rem, abs=1e-4)
        assert float(rows[-p][2]) == pytest.approx(imm, abs=1e-4)


def test_poles_json_schema(tmp_path):
    out = tmp_path / "poles.json"
    assert run(["poles", "--b", B_REF, "--n", "1", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == deltashell.io.SCHEMA_VERSION
    assert len(doc["poles"]) == 2
    indices = sorted(e["index"] for e in doc["poles"])
    assert indices == [-1, 1]


def test_poles_rejects_negative_intensity(capsys):
    assert run(["poles", "--b", "-1"]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["poles", "--seed", "1"], ["verify", "--format", "csv"]])
def test_options_only_where_read(args, capsys):
    """Only survival reads --seed (it records it) and verify always writes JSON."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_poles_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["poles", "--n", "5", "--out", str(out1)])
    run(["poles", "--n", "5", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_survival_box_state(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["survival", "--q", "1", "--tmax", "5tau", "--samples", "200",
                "--n", "20", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["t", "t_over_tau", "re_A", "im_A", "S", "S_exp_only", "S_tail_only"]
    assert len(lines) == 201
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(5.0, rel=1e-12)  # t/tau ends at 5
    assert float(last[4]) > 0


def test_survival_oscillatory_state(tmp_path):
    out = tmp_path / "osc.csv"
    assert run(["survival", "--kc", B_REF, "--tmax", "2tau", "--samples", "2000",
                "--n", "40", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    S = [float(r[4]) for r in rows]
    n_max = sum(1 for i in range(1, len(S) - 1) if S[i] > S[i - 1] and S[i] > S[i + 1])
    assert n_max >= 3


def test_survival_oracle_column(tmp_path):
    out = tmp_path / "so.csv"
    assert run(["survival", "--q", "1", "--tmin", "0.5tau", "--tmax", "5tau",
                "--samples", "6", "--n", "40", "--oracle", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[-1] == "S_oracle"
    for row in lines[1:]:
        vals = row.split(",")
        s_exp, s_orc = float(vals[4]), float(vals[7])
        assert abs(s_exp - s_orc) / s_orc < 0.01


def test_survival_oracle_default_grid(tmp_path):
    """The README's oracle example: the grid starts at the oracle's minimum time."""
    out = tmp_path / "so.json"
    assert run(["survival", "--q", "1", "--oracle", "--samples", "50",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["t_min"] == 0.05
    assert len(doc["data"]["S_oracle"]) == 50


def test_survival_validation(capsys, monkeypatch):
    assert run(["survival", "--q", "1", "--kc", "3.0"]) == 2
    assert run(["survival", "--q", "0"]) == 2
    assert run(["survival", "--q", "1", "--tmax", "banana"]) == 2
    assert run(["survival", "--q", "1", "--tmin", "apple"]) == 2
    assert "'apple'" in capsys.readouterr().err
    assert run(["survival", "--q", "1", "--oracle", "--tmin", "0.01tau"]) == 2
    capsys.readouterr()
    # a plain --tmin below the oracle's minimum is rejected before any solve
    solves = []
    monkeypatch.setattr(expansion, "find_poles", lambda *args: solves.append(args))
    assert run(["survival", "--q", "1", "--oracle", "--tmin", "0.01"]) == 2
    assert "minimum time 0.05" in capsys.readouterr().err
    assert solves == []


def test_survival_json(tmp_path):
    out = tmp_path / "s.json"
    assert run(["survival", "--q", "2", "--tmax", "1tau", "--samples", "12",
                "--n", "10", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == deltashell.io.SCHEMA_VERSION
    assert len(doc["data"]["S"]) == 12
    assert list(doc["data"].keys()) == ["t", "t_over_tau", "re_A", "im_A", "S",
                                        "S_exp_only", "S_tail_only"]


def test_scan_finds_singularity(tmp_path, monkeypatch):
    out = tmp_path / "scan.json"
    traj = tmp_path / "traj.csv"
    solves = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            solves.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # every binding the scan could reach, so a second solve anywhere is counted
    for mod in (cli, singularity):
        for name in ("find_poles", "track_pole"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    assert run(["scan", "--family", "-5", "--b-range", "13:15", "--out", str(out)]) == 0
    assert solves == []  # the crossing is the closed form: nothing traced
    assert run(["scan", "--family", "-5", "--b-range", "13:15",
                "--out", str(out), "--trajectory-out", str(traj)]) == 0
    assert solves == ["track_pole"]
    doc = json.loads(out.read_text())
    assert doc["b_star"] == pytest.approx(4.5 * math.pi, abs=1e-3)
    assert doc["k_star"] == pytest.approx(-4.5 * math.pi, abs=1e-3)
    assert list(doc["residuals"]) == ["pole_equation"]
    assert doc["residuals"]["pole_equation"] < _acceptance_bound(doc["k_star"], doc["b_star"], 1.0)
    lines = traj.read_text().splitlines()
    assert lines[3] == "b,re_k,im_k,family"
    assert len(lines) > 10


def test_scan_from_small_ab(tmp_path):
    """Family -10 from b = 0.01 at a = 0.25 starts below find_poles' depth."""
    out = tmp_path / "scan.json"
    assert run(["scan", "--family", "-10", "--a", "0.25", "--b-range", "0.01:358",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["b_star"] == pytest.approx(19 * math.pi / 0.5, rel=1e-15)


def test_scan_no_crossing_exit_code(capsys):
    assert run(["scan", "--family", "1", "--b-range", "13:15"]) == 3
    assert "sign" in capsys.readouterr().err.lower()


def test_scan_malformed_range():
    assert run(["scan", "--family", "-5", "--b-range", "15:13"]) == 2
    assert run(["scan", "--family", "-5", "--b-range", "abc"]) == 2


# (command, exit code, the text stderr names the bad value or the failure by): the
# library's checks of the CLI's inputs, the rules the CLI keeps, and exits 3 and 4
ERROR_PATHS = [
    (["poles", "--n", "0"], 2, "n_proper=0"),
    (["survival", "--q", "0"], 2, "got 0"),
    (["survival", "--kc", "-1"], 2, "k_c=-1.0"),
    (["survival", "--kc", "inf"], 2, "k_c=inf"),
    (["poles", "--b", "nan"], 2, "b=nan"),
    (["scan", "--a", "0", "--family", "-5", "--b-range", "13:15"], 2, "a=0.0"),
    (["scan", "--family", "0", "--b-range", "13:15"], 2, "family=0"),
    (["scan", "--family", "-5", "--b-range", "15:13"], 2, "[15.0, 13.0]"),
    (["survival", "--samples", "1"], 2, "got 1"),
    (["verify", "--n", "1"], 2, "got 1"),
    (["scan", "--family", "1", "--b-range", "13:15"], 3, "keeps one sign"),
    (["verify", "--b", "200"], 4, "sum_rule_inverse_k_trend"),
]


@pytest.mark.parametrize("args,code,named", ERROR_PATHS,
                         ids=[" ".join(case[0]) for case in ERROR_PATHS])
def test_error_paths_exit_with_their_code_and_name_the_value(tmp_path, capsys, args, code,
                                                             named):
    assert run(args + ["--out", str(tmp_path / "out")]) == code
    assert named in capsys.readouterr().err


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--n", "40", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # b = 9 pi/2 puts k_-5 on the real axis, hence the near-real normalization entry
    names = ("pole_equation_residual", "state_normalization", "state_normalization_near_real",
             "green_residue_identity", "green_pole_expansion", "sum_rule_inverse_k_trend",
             "closure_sum", "oracle_expansion_agreement")
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [(n, "pass") for n in names]


def test_verify_undertruncated_warns(tmp_path, capsys):
    out = tmp_path / "verify5.json"
    assert run(["verify", "--n", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["inconclusive"] >= 2
    assert "inconclusive" in capsys.readouterr().err


def test_verify_weak_shell(tmp_path, capsys):
    out = tmp_path / "verify_weak.json"
    assert run(["verify", "--b", "0.1", "--n", "12", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0


# run in a fresh interpreter, which prints the command's exit code (None for
# a bare import) and the scipy modules loaded by then as its last line
_PROBE = """import json, sys
{body}
print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))
"""


def _fresh_run(body):
    src = str(Path(deltashell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _fresh_cli(args, out):
    return _fresh_run(f"from deltashell.cli import main\ncode = main({args + ['--out', str(out)]!r})")


def test_import_loads_no_scipy():
    assert _fresh_run("import deltashell\ncode = None") == [None, []]


@pytest.mark.parametrize("args", [["poles", "--n", "10"],
                                  ["survival", "--q", "1", "--samples", "20"],
                                  ["scan", "--family", "-5", "--b-range", "13:15"]],
                         ids=["poles", "survival", "scan"])
def test_commands_without_oracle_load_no_scipy(tmp_path, args):
    assert _fresh_cli(args, tmp_path / "out") == [0, []]


@pytest.mark.parametrize("args", [["survival", "--q", "1", "--oracle", "--samples", "5"],
                                  ["verify", "--n", "10"]],
                         ids=["survival_oracle", "verify"])
def test_oracle_commands_load_no_scipy(tmp_path, args):
    assert _fresh_cli(args, tmp_path / "out") == [0, []]


@pytest.mark.parametrize("module", ["oracle", "expansion"])
def test_lazy_quad_integrates_on_first_call(module):
    # quad is numpy's own now: its first call loads no scipy, and perfbench's
    # tracer counts the oracle's quadratures through both names, so they stay one object
    (same, value), loaded = _fresh_run(
        f"from deltashell import {module}, expansion, oracle\n"
        f"code = [oracle.quad is expansion.quad, {module}.quad(lambda x: x * x, 0.0, 1.0)[0]]")
    assert same and loaded == []
    assert value == pytest.approx(1 / 3, rel=1e-14)
