"""One benchmark workload in a fresh process; started by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
                                   --trace 0|1 [--rounds R] --out PATH

Runs whole rounds of the workload's operations until --seconds have passed
(or exactly --rounds rounds), then checks every output against the referees
outside the timed region and writes one JSON result to --out.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from functools import lru_cache, partial
from pathlib import Path
from time import perf_counter

T_IMPORT = perf_counter()
import deltashell as ds  # noqa: E402  (timed first: nothing else has loaded numpy yet)
IMPORT_MS = (perf_counter() - T_IMPORT) * 1e3
from deltashell.errors import CompletenessError  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import referee as R  # noqa: E402

NINE_HALF_PI = 4.5 * math.pi
N_REF = 4000          # referee depth (pole pairs)
N_EXP = 40            # expansion depth the workloads ask the package for


class Op:
    """One timed operation.

    fault: the exception a known fault raises. keep: reduces the output to
    what the checks read, after the timed call, so the memory a run holds
    does not grow with the size of the outputs.
    """

    __slots__ = ("kind", "fn", "fault", "label", "keep")

    def __init__(self, kind, fn, fault=None, label="", keep=None):
        self.kind, self.fn, self.fault, self.label, self.keep = kind, fn, fault, label, keep


def loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def stratified_log(rng, lo, hi, n):
    """n draws, one log-uniform draw from each of n equal strata of [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return [math.exp(rng.uniform(edges[i], edges[i + 1])) for i in range(n)]


def referee_survival(b, a, state):
    return _referee_survival(b, a, state.k_c, state.N_c)


@lru_cache(maxsize=64)
def _referee_survival(b, a, k_c, n_c):
    return R.Survival(b, a, k_c, n_c, N_REF)


# ---------------------------------------------------------------- spectrum

class Spectrum:
    """Pole tables (find_poles + build_basis) interleaved with singularity scans."""

    N_TABLES = (10, 40, 200)
    FAULT = (0.05, 1.0, 200)   # find_poles raises CompletenessError: see README

    def __init__(self, rng):
        self.rng = rng

    def round(self, r):
        rng = self.rng
        ops = [Op("pole_table", partial(self.table, loguniform(rng, 0.2, 300.0),
                                        rng.choice((0.5, 1.0, 2.0)), n), keep=self.keep_table,
                  label=f"find_poles + build_basis, N={n}") for n in self.N_TABLES]
        ops += [Op("scan", partial(self.scan, -n, rng.choice((0.5, 1.0, 2.0))),
                   label="find_singularity") for n in range(1, 11)]
        ops.append(Op("pole_table", partial(self.table, *self.FAULT), fault=CompletenessError,
                      label="find_poles(b=0.05, a=1, N=200)", keep=self.keep_table))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def table(b, a, n):
        ps = ds.find_poles(ds.DeltaShellPotential(b=b, a=a), n, n)
        basis = ds.build_basis(ps)
        return {"b": b, "a": a, "n": n, "poles": ps, "basis": basis, "pairs": n,
                "points": 2 * n}

    @staticmethod
    def keep_table(out):
        ps, basis = out.pop("poles"), out.pop("basis")
        states = basis.proper + basis.improper
        out.update(kp=np.array([p.k for p in ps.proper]), km=np.array([p.k for p in ps.improper]),
                   index=[p.index for p in ps.proper + ps.improper],
                   state_k=np.array([st.pole.k for st in states]),
                   state_A=np.array([st.A for st in states]))
        return out

    @staticmethod
    def scan(family, a):
        b_star = (2 * -family - 1) * math.pi / (2 * a)
        b, k = ds.find_singularity(a, family, b_star - 1 / a, b_star + 1 / a)
        return {"family": family, "a": a, "b_star": b, "k_star": k, "points": 1}

    def check(self, done):
        errs = []
        for op, out, _ in done:
            if op.kind == "scan":
                errs += checks.singularity(out["b_star"], out["k_star"], out["family"], out["a"])
                continue
            b, a, n = out["b"], out["a"], out["n"]
            errs += checks.pole_table(out["kp"], out["km"], b, a, n)
            order = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))
            errs += checks.require(out["index"] == order, f"b={b} a={a}: pole indices out of order")
            errs += checks.state_amplitudes(out["state_k"], out["state_A"], a, f"b={b} a={a}")
        e, worst = self.s_rel_err_max()
        return errs + e, worst

    @staticmethod
    def s_rel_err_max():
        """S(t) of the q = 1 box state built from a returned 40-pair pole table.

        One fixed table (b = 9 pi/2, a = 1), solved after the timed loop: the
        Moshinsky series over the package's own poles and states, against
        the referee at depth N_REF on [0.5, 5] lifetimes.
        """
        ps = ds.find_poles(ds.DeltaShellPotential(b=NINE_HALF_PI, a=1.0), N_EXP, N_EXP)
        basis = ds.build_basis(ps)
        k = np.array([[s.pole.k for s in basis.proper], [s.pole.k for s in basis.improper]])
        amp = np.array([[s.A for s in basis.proper], [s.A for s in basis.improper]])
        state = ds.box_state(1)
        c2 = R.overlap_sq(k, 1.0, state.k_c, state.N_c, amp_sq=amp * amp)
        ref = referee_survival(NINE_HALF_PI, 1.0, state)
        t = ref.lifetime() * np.geomspace(0.5, 5.0, 16)
        A = R.moshinsky_terms(k, c2, t).sum(axis=(0, 1))
        return checks.survival_vs_referee(t, A, ref, 1e-4, "spectrum S(t) from poles")


# ------------------------------------------------------------------- decay

GL_X, GL_W = np.polynomial.legendre.leggauss(48)
GRID_U = np.geomspace(0.1, 40.0, 2000)        # survival grid, in lifetimes
CHECK_IDX = np.flatnonzero((GRID_U >= 0.5) & (GRID_U <= 5.0))[::24]
BOUND_FROM = 0.2                               # |A| <= 1 is checked from 0.2 lifetimes


class Decay:
    """Many initial states on shared pole sets; the expansion layer does the work."""

    def __init__(self, rng):
        self.rng = rng

    def round(self, r):
        rng = self.rng
        ops = []
        b_values = [NINE_HALF_PI, loguniform(rng, 10.0, 100.0), loguniform(rng, 10.0, 100.0)]
        for b in b_values:
            ctx = {"b": b}
            tuned = ds.SineInitialState.from_wavenumber(
                NINE_HALF_PI if b == NINE_HALF_PI else rng.uniform(1.0, 20.0))
            states = [ds.box_state(q) for q in range(1, 7)] + [tuned]
            state_ops = [Op("state", partial(self.state, ctx, st,
                                             sorted(rng.uniform(0.5, 3.0) for _ in range(2))),
                            keep=self.keep_state)
                         for st in states]
            rng.shuffle(state_ops)
            ops.append(Op("pole_table", partial(self.table, ctx),
                          label="find_poles + build_basis, N=40"))
            ops += state_ops
        return ops

    @staticmethod
    def table(ctx):
        pot = ds.DeltaShellPotential(b=ctx["b"], a=1.0)
        ps = ds.find_poles(pot, N_EXP, N_EXP)
        ctx.update(pot=pot, poles=ps, basis=ds.build_basis(ps), tau=ds.lifetime(ps))
        return {"b": ctx["b"], "pairs": N_EXP, "points": 2 * N_EXP}

    @staticmethod
    def state(ctx, st, us):
        pot, ps, basis, tau = ctx["pot"], ctx["poles"], ctx["basis"], ctx["tau"]
        ov = ds.build_overlaps(basis, st)
        ec = ds.ExpansionContext(pot, st, ps, basis, ov)
        series = ds.survival_series(pot, st, tau * GRID_U, N_EXP, context=ec)
        r = 0.5 * (GL_X + 1.0)
        psi = [[ds.wavefunction(ec, float(ri), tau * u) for ri in r] for u in us]
        closure = ds.closure_sum(ov, N_EXP)
        t_tr = ds.transition_time(ov, ps)
        two = [ds.two_pole_amplitude(ov, ps, tau * u) for u in us]
        return {"b": ctx["b"], "state": st, "tau": tau, "ec": ec, "A": series.A, "us": us,
                "psi": np.array(psi), "closure": closure, "t_tr": t_tr, "two": two,
                "points": len(GRID_U) + len(us) * len(r)}

    @staticmethod
    def keep_state(out):
        A = out.pop("A")
        out["A_check"] = A[CHECK_IDX]
        out["A_max"] = float(np.abs(A[GRID_U >= BOUND_FROM]).max())
        if out["b"] == NINE_HALF_PI and out["state"].k_c == NINE_HALF_PI:
            out["A_early"] = A[GRID_U <= 1.0]
        return out

    def check(self, done):
        errs, worst = [], 0.0
        fixed = {}
        for op, out, _ in done:
            if op.kind == "pole_table":
                continue
            e, rel = self.check_state(out)
            errs += e
            key = (out["b"], out["state"].k_c)
            if out["b"] == NINE_HALF_PI and key not in fixed and \
                    out["state"].k_c in (math.pi, 2 * math.pi, 6 * math.pi, NINE_HALF_PI):
                fixed[key] = rel
        if len(fixed) == 4:
            worst = max(fixed.values())
        else:
            errs.append(f"decay: fixed check states incomplete ({len(fixed)} of 4)")
        return errs, worst

    @staticmethod
    def check_state(out):
        b, st, tau, ec = out["b"], out["state"], out["tau"], out["ec"]
        label = f"decay b={b:.6g} k_c={st.k_c:.6g}"
        ref = referee_survival(b, 1.0, st)
        errs = checks.close(tau, ref.lifetime(), 1e-10, f"{label} lifetime")
        k = ref.k[:, :N_EXP]
        c2 = ref.c2[:, :N_EXP]
        ov = ec.overlaps
        prog_c2 = np.array([np.array(ov.proper) ** 2, np.array(ov.improper) ** 2])
        errs += checks.close(prog_c2, c2, checks.OVERLAP_REL, f"{label} overlaps C_p^2")
        errs += checks.close(out["closure"], 0.5 * c2.sum(), 1e-10, f"{label} closure_sum")
        # closure tends to 1 + i psi(a)^2 / (2b): deeper referee sums come closer
        limit = 1 + 0.5j * ref.psi_a ** 2 / b
        d = [abs(ref.closure(n) - limit) for n in (N_EXP, 10 * N_EXP, N_REF)]
        errs += checks.require(abs(out["closure"] - limit) <= d[0] + 1e-10 and d[2] < d[1] < d[0]
                               and d[2] < 1e-3,
                               f"{label}: closure defect {d} does not shrink toward the limit")
        errs += checks.amplitude_bound([out["A_max"]], label)
        tc = tau * GRID_U[CHECK_IDX]
        errs += checks.close(out["A_check"], R.exp_tail_amplitude(k, c2, tc), checks.FORMULA_ABS,
                             f"{label} expansion formula", scale=1.0)
        e, rel = checks.survival_vs_referee(tc, out["A_check"], ref,
                                            checks.EXPANSION_AMPLITUDE_ABS, label)
        errs += e
        # psi(r, t) integrated against psi(r, 0) must give the expansion's A(t)
        r = 0.5 * (GL_X + 1.0)
        for u, row in zip(out["us"], out["psi"]):
            integral = 0.5 * np.sum(GL_W * st.amplitude(r) * row)
            a_t = ds.survival_series(ec.potential, st, [tau * u], N_EXP, context=ec).A[0]
            errs += checks.close(integral, a_t, 1e-9, f"{label} wavefunction integral", 1.0)
        t_ref = R.transition_time(k, c2)
        errs += checks.require(t_ref is not None and abs(out["t_tr"] - t_ref) <= 1e-8 * t_ref,
                               f"{label}: transition time {out['t_tr']!r} vs {t_ref!r}")
        two_ref = [(c2[0, 3:5] * np.exp(-1j * k[0, 3:5] ** 2 * tau * u)).sum()
                   for u in out["us"]]
        errs += checks.close(out["two"], two_ref, 1e-9, f"{label} two-pole amplitude")
        if "A_early" in out:
            e45 = (k[0, 3] ** 2).real, (k[0, 4] ** 2).real
            errs += checks.beat(tau * GRID_U[GRID_U <= 1.0], np.abs(out["A_early"]) ** 2,
                                (e45[1] - e45[0]) / (2 * math.pi), label)
        return errs, rel


# ------------------------------------------------------------------ oracle

ORACLE_FIXED = [(NINE_HALF_PI, ("box", 1)), (NINE_HALF_PI, ("box", 2)),
                (NINE_HALF_PI, ("sine", NINE_HALF_PI)), (30.0, ("sine", 10.0))]


def make_state(spec):
    kind, x = spec
    return ds.box_state(x) if kind == "box" else ds.SineInitialState.from_wavenumber(x)


class Oracle:
    """The exact reference on fresh (b, state) pairs: one cold call, then warm calls."""

    N_TIMES = 10

    def __init__(self, rng):
        self.rng = rng

    def round(self, r):
        rng = self.rng
        specs = [("box", 1), ("box", 2), ("box", 3), ("sine", rng.uniform(2.0, 20.0))]
        rng.shuffle(specs)
        ops = []
        for b, spec in zip(stratified_log(rng, 3.0, 60.0, 4), specs):
            tau = R.lifetime(b, 1.0)
            ts = [max(0.05, tau * u) for u in stratified_log(rng, 0.2, 5.0, self.N_TIMES)]
            rng.shuffle(ts)
            ops.append(Op("oracle", partial(self.op, b, spec, ts)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def op(b, spec, ts):
        pot, st = ds.DeltaShellPotential(b=b, a=1.0), make_state(spec)
        t0 = perf_counter()
        first = ds.survival_amplitude_exact(pot, st, ts[0])
        cold_s = perf_counter() - t0
        A = [first] + [ds.survival_amplitude_exact(pot, st, t) for t in ts[1:]]
        return {"b": b, "state": st, "t": ts, "A": np.array(A), "cold_s": cold_s,
                "pairs": N_EXP, "points": len(ts),
                "parts": {"cold call": cold_s, "warm call": (perf_counter() - t0 - cold_s)
                          / (len(ts) - 1)}}

    def check(self, done):
        errs = []
        for _, out, _ in done:
            label = f"oracle b={out['b']:.6g} k_c={out['state'].k_c:.6g}"
            ref = referee_survival(out["b"], 1.0, out["state"])
            errs += checks.survival_vs_referee(np.array(out["t"]), out["A"], ref,
                                               checks.ORACLE_ABS, label)[0]
            errs += checks.amplitude_bound(out["A"], label)
        e, worst = self.s_rel_err_max()
        return errs + e, worst

    @staticmethod
    def s_rel_err_max():
        """Fixed check points, computed after the timed loop on potentials no op used."""
        errs, worst = [], 0.0
        for b, spec in ORACLE_FIXED:
            st = make_state(spec)
            ref = referee_survival(b, 1.0, st)
            t = ref.lifetime() * np.array([0.5, 1.0, 2.0, 5.0])
            pot = ds.DeltaShellPotential(b=b, a=1.0)
            A = np.array([ds.survival_amplitude_exact(pot, st, float(x)) for x in t])
            e, rel = checks.survival_vs_referee(t, A, ref, checks.ORACLE_ABS,
                                                f"oracle fixed b={b:.6g} k_c={st.k_c:.6g}")
            errs += e
            worst = max(worst, rel)
        return errs, worst


# --------------------------------------------------------------------- cli

CLI_COMMANDS = [  # (name, arguments, exit code of a known fault or None)
    ("poles", ["poles", "--n", "10"], None),
    ("survival_q1", ["survival", "--q", "1", "--samples", "2000"], None),
    ("survival_kc", ["survival", "--kc", "14.137166941", "--tmax", "2tau"], None),
    ("scan", ["scan", "--family", "-5", "--b-range", "13:15"], None),
    ("verify", ["verify", "--n", "40"], None),
    ("survival_oracle", ["survival", "--q", "1", "--oracle", "--samples", "50"], 2),
    ("verify_b200", ["verify", "--b", "200"], 4),
]


class CliFault(Exception):
    """A CLI command exited with the code of its known fault."""


class Cli:
    """The README's commands, one process each, one at a time, output to a file."""

    def __init__(self, rng, tracer):
        self.rng, self.tracer = rng, tracer
        self.dir = OUT_DIR / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.peak_rss_kb = 0
        self.import_ms = []
        self.n_run = 0
        self.first = {}     # command name -> bytes of its first output

    def round(self, r):
        ops = []
        for name, args, code in CLI_COMMANDS:
            fault = None if code is None else CliFault
            ops.append(Op("cli", partial(self.run, name, args, code), fault=fault, label=name,
                          keep=self.keep_output))
        self.rng.shuffle(ops)
        return ops

    def run(self, name, args, fault_code):
        out = self.dir / f"{name}.out"
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        spans = None
        if self.tracer is not None and self.tracer.active:
            spans = self.dir / f"spans-{self.n_run}.json"
            cmd += ["--spans", str(spans)]
        self.n_run += 1
        cmd += ["--"] + args + ["--out", str(out)]
        if out.exists():
            out.unlink()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if spans is not None and spans.exists():
            self.merge_spans(spans)
        if code != 0:
            if fault_code is not None and code == fault_code:
                raise CliFault(f"exit code {code}")
            raise RuntimeError(f"{name} exited with code {code}")
        data = out.read_bytes()
        if data.startswith(b"{"):   # scan: one crossing; verify: one row per check
            points = len(json.loads(data).get("checks", [None]))
        else:                       # CSV: data rows below the column header
            points = sum(1 for ln in data.splitlines() if ln and not ln.startswith(b"#")) - 1
        return {"name": name, "args": args, "bytes": data,
                "sha": hashlib.sha256(data).hexdigest(), "points": points,
                "pairs": 10 if name == "poles" else 0}

    def keep_output(self, out):
        self.first.setdefault(out["name"], out["bytes"])
        del out["bytes"]
        return out

    def merge_spans(self, path):
        doc = json.loads(path.read_text())
        path.unlink()
        tr = self.tracer
        base = len(tr.spans)
        for s in doc["spans"]:
            s[3] = s[3] + base if s[3] >= 0 else -1
            s[4] = tr.op
            if isinstance(s[6], list):   # one process per op: cold means first in the op
                s[6] = (tr.op,) + tuple(s[6])
            tr.spans.append(s)
        for k, v in doc["counts"].items():
            tr.counts[k] = tr.counts.get(k, 0) + v
        tr.bytes_out += doc["bytes_out"]
        self.import_ms.append(doc["import_ms"])

    def check(self, done):
        errs, worst = [], 0.0
        shas = {}
        for _, out, _ in done:
            shas.setdefault(out["name"], set()).add(out["sha"])
        for name, args, _ in CLI_COMMANDS:
            if name not in self.first:
                continue
            if len(shas[name]) == 1 and sum(o["name"] == name for _, o, _ in done) == 1:
                shas[name].add(self.run(name, args, None)["sha"])   # a second invocation
            errs += checks.require(len(shas[name]) == 1,
                                   f"cli {name}: invocations wrote different bytes")
            e, rel = self.check_output(name, self.first[name])
            errs += e
            worst = max(worst, rel)
        return errs, worst

    @staticmethod
    def check_output(name, data):
        text = data.decode()
        if name == "scan":
            doc = json.loads(text)
            return checks.singularity(doc["b_star"], doc["k_star"], doc["family"], doc["a"]), 0.0
        if name.startswith("verify"):
            doc = json.loads(text)
            bad = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
            return checks.require(not bad, f"cli {name}: checks not passing: {bad}"), 0.0
        header = {}
        rows = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif line:
                rows.append(line.split(","))
        cols, rows = rows[0], np.array(rows[1:], dtype=float)
        col = {c: rows[:, i] for i, c in enumerate(cols)}
        b = float(header["b"])
        if name == "poles":
            idx = col["index"].astype(int)
            k = col["re_k"] + 1j * col["im_k"]
            kp, km = k[idx > 0][np.argsort(idx[idx > 0])], k[idx < 0][np.argsort(-idx[idx < 0])]
            errs = checks.pole_table(kp, km, b, float(header["a"]), 10)
            errs += checks.close(col["width"], 4 * k.real * -k.imag, 1e-12, "cli poles width")
            return errs, 0.0
        st = ds.SineInitialState(k_c=float(header["k_c"]), N_c=float(header["N_c"]),
                                 a=float(header["a"]))
        ref = referee_survival(b, st.a, st)
        tau = ref.lifetime()
        t = col["t"]
        A = col["re_A"] + 1j * col["im_A"]
        label = f"cli {name}"
        errs = checks.close(float(header["lifetime"]), tau, 1e-10, f"{label} lifetime")
        errs += checks.close(col["S"], np.abs(A) ** 2, 1e-12, f"{label} S = |A|^2")
        errs += checks.amplitude_bound(A[t >= BOUND_FROM * tau], label)
        win = (t >= 0.5 * tau) & (t <= 5 * tau)
        tc, Ac = t[win][::25], A[win][::25]
        e, rel = checks.survival_vs_referee(tc, Ac, ref, checks.EXPANSION_AMPLITUDE_ABS, label)
        errs += e
        if "S_oracle" in col:
            A_ref, est = ref.amplitude(t)
            dev_s = np.abs(col["S_oracle"] - np.abs(A_ref) ** 2)   # |dS| <= 2 |dA| for |A| <= 1
            errs += checks.require(np.all(dev_s <= 4 * (checks.ORACLE_ABS + 3 * est)),
                                   f"{label}: S_oracle off the referee")
        if name == "survival_kc":
            e4, e5 = (ref.k[0, 3] ** 2).real, (ref.k[0, 4] ** 2).real
            win = t <= tau
            errs += checks.beat(t[win], col["S"][win], (e5 - e4) / (2 * math.pi), label)
        return errs, rel


# ----------------------------------------------------------------- run loop

def run(workload, seconds, rounds, tracer):
    done, errors = [], []
    attempted = failed = 0
    start = perf_counter()
    round_walls = []
    r = 0
    while (r < rounds) if rounds else (perf_counter() - start < seconds):
        t_round = perf_counter()
        for op in workload.round(r):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            t0 = perf_counter()
            try:
                out = op.fn()
            except Exception as exc:  # noqa: BLE001  (every failure is counted or reported)
                if op.fault is not None and isinstance(exc, op.fault):
                    failed += 1
                else:
                    errors.append(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            out = op.keep(out) if op.keep else out
            out["round"] = r
            done.append((op, out, dt))
        round_walls.append(perf_counter() - t_round)
        r += 1
    wall = perf_counter() - start
    return done, errors, attempted, failed, round_walls, wall


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("spectrum", "decay", "oracle", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    rng = random.Random(f"{args.workload}:{args.seed}")
    if args.workload == "cli":
        wl = Cli(rng, tracer)
    else:
        wl = {"spectrum": Spectrum, "decay": Decay, "oracle": Oracle}[args.workload](rng)

    done, errors, attempted, failed, round_walls, wall = run(wl, args.seconds, args.rounds,
                                                             tracer)
    rss_kb = wl.peak_rss_kb if args.workload == "cli" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.active = False

    check_errors, s_rel = wl.check(done)
    errors += check_errors

    lat = [dt for _, _, dt in done]
    by_kind = {}
    for op, out, dt in done:
        by_kind.setdefault(op.label or op.kind, []).append(dt)
        for part, sec in out.get("parts", {}).items():
            by_kind.setdefault(part, []).append(sec)
    # rates are medians over rounds, so a slow spell of the machine moves them less
    per_round = [{"ops": 0, "points": 0, "pairs": 0, "table_s": 0.0} for _ in round_walls]
    for _, out, dt in done:
        pr = per_round[out["round"]]
        pr["ops"] += 1
        pr["points"] += out["points"]
        if out.get("pairs"):     # a pole-table operation; the oracle's is its cold call
            pr["pairs"] += out["pairs"]
            pr["table_s"] += out.get("cold_s", dt)
    rounds = len(round_walls)
    result = {
        "correct": not errors,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "wall_s": wall,
        "metrics": {
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
                          "unit": "ms"},
            "ops_per_s": {"value": statistics.median(
                pr["ops"] / w for pr, w in zip(per_round, round_walls)), "unit": "ops/s"},
            "points_per_s": {"value": statistics.median(
                pr["points"] / w for pr, w in zip(per_round, round_walls)), "unit": "points/s"},
            "pole_pairs_per_s": {"value": statistics.median(
                pr["pairs"] / pr["table_s"] for pr in per_round if pr["table_s"] > 0),
                "unit": "pairs/s"},
            "s_rel_err_max": {"value": s_rel, "unit": "1"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        },
        "median_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
    }
    if tracer is not None:
        from tracing import layer_metrics
        import_ms = statistics.median(wl.import_ms) if args.workload == "cli" else IMPORT_MS
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path)
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, tracer.bytes_out,
                                         attempted, import_ms)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    OUT_DIR.mkdir(exist_ok=True)
    sys.exit(main())
