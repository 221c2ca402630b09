"""Correctness checks of deltashell outputs against the referees.

Each check takes plain numbers and arrays taken from the package's outputs
and returns a list of failure messages (empty when the output is correct).
Nothing here imports deltashell.
"""
from __future__ import annotations

import math

import numpy as np

import referee as R

POLE_POSITION_REL = 1e-9       # returned pole vs Lambert-W pole, relative to max(1, |k|)
AMPLITUDE_SQ_REL = 1e-9        # A_p^2 vs the normalization integral
OVERLAP_REL = 1e-8             # C_p^2 vs the overlap integral, relative to max |C^2|
FORMULA_ABS = 1e-9             # expansion amplitude vs the same formula from referee poles
# The exponential + t^{-3/2} expansion is asymptotic. Against the exact
# Moshinsky series its amplitude error on [0.5, 5] lifetimes stayed below
# 0.009 over 420 seeded (b in [10, 100], state) draws; the gate is 0.03, so it
# catches a wrong pole, overlap or sign, not the truncation the expansion owns.
EXPANSION_AMPLITUDE_ABS = 0.03
ORACLE_ABS = 2e-9              # the oracle's own quadrature error gate is 1e-9
BEAT_REL = 0.10                # criterion 9 of the acceptance suite


def require(cond, msg):
    return [] if cond else [msg]


def pole_table(k_proper, k_improper, b, a, n):
    """Poles of one family table: count, positions, 50-digit residuals, order, spacing."""
    errs = []
    k_proper, k_improper = np.asarray(k_proper), np.asarray(k_improper)
    if k_proper.size != n or k_improper.size != n:
        return [f"b={b} a={a}: {k_proper.size}+{k_improper.size} poles, asked {n}+{n}"]
    ref_p, ref_m = R.poles(b, a, n)
    for name, got, ref in (("proper", k_proper, ref_p), ("improper", k_improper, ref_m)):
        dev = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        errs += require(dev.max() <= POLE_POSITION_REL,
                        f"b={b} a={a} {name}: pole {int(dev.argmax()) + 1} off the Lambert-W "
                        f"pole by {dev.max():.2e} (relative)")
        res = R.exact_residuals(got, b, a)
        gate = R.residual_gate(got, b, a)
        errs += require(np.all(res <= gate),
                        f"b={b} a={a} {name}: 50-digit residual {res.max():.2e} above its "
                        f"noise-floor gate at pole {int((res / gate).argmax()) + 1}")
        re = np.abs(got.real)
        gaps = np.diff(re) * a / math.pi
        errs += require(gaps.size == 0 or (gaps.min() > 0.25 and gaps.max() < 1.75),
                        f"b={b} a={a} {name}: |Re k| spacing {gaps.min() if gaps.size else 0:.3f}"
                        f"..{gaps.max() if gaps.size else 0:.3f} pi/a, not ordered or skipped")
    errs += require(np.all(k_proper.imag < 0), f"b={b} a={a}: proper pole off the 4th quadrant")
    return errs


def state_amplitudes(k, amp, a, label=""):
    """A_p^2 of the returned states against the normalization integral at the same k."""
    k, amp = np.asarray(k), np.asarray(amp)
    ref = R.state_amplitude_sq(k, a)
    dev = np.abs(amp * amp - ref) / np.abs(ref)
    return require(dev.max() <= AMPLITUDE_SQ_REL,
                   f"{label}: A_p^2 off the normalization integral by {dev.max():.2e}")


def singularity(b_found, k_found, family, a):
    """Scan result against b* = (2n-1) pi / (2a), k* = -b*.

    find_singularity stops once |Im k| < 1e-10; near the crossing
    dk/db = -1 / (1 + i a b), so b is then known to 1e-10 (1 + (ab)^2)/(ab).
    """
    n = -family
    b_star = (2 * n - 1) * math.pi / (2 * a)
    x = a * b_star
    tol_b = 10 * 1e-10 * (1 + x * x) / x + 8 * R.EPS * b_star
    tol_k = tol_b / (1 + x * x) + 10 * 1e-10 + 8 * R.EPS * b_star
    return (require(abs(b_found - b_star) <= tol_b,
                    f"family {family} a={a}: b*={b_found!r}, closed form {b_star!r}")
            + require(abs(k_found + b_star) <= tol_k,
                      f"family {family} a={a}: k*={k_found!r}, closed form {-b_star!r}"))


def amplitude_bound(A, label):
    m = float(np.max(np.abs(A))) if len(A) else 0.0
    return require(m <= 1 + 1e-12, f"{label}: |A(t)| reaches {m:.6f} > 1")


def survival_vs_referee(t, A, ref: R.Survival, gate_abs, label):
    """Amplitude against the Moshinsky referee; returns (errors, worst relative S error).

    The relative S error is floored by the referee's own error estimate: a
    difference below what the referee resolves is not reported as the
    program's.
    """
    A_ref, est = ref.amplitude(t)
    dev = np.abs(np.asarray(A) - A_ref)
    errs = require(np.all(dev <= gate_abs + 3 * est),
                   f"{label}: amplitude off the Moshinsky series by {dev.max():.2e} "
                   f"(gate {gate_abs:.1e} + 3 x referee estimate)")
    S_ref = np.abs(A_ref) ** 2
    rel = np.abs(np.abs(A) ** 2 - S_ref) / S_ref
    floor = 2 * est / np.abs(A_ref)
    return errs, float(np.max(np.maximum(rel, floor)))


def beat(t, S, f_ref, label):
    f = R.beat_frequency(t, S, 4 * f_ref)
    return require(abs(f - f_ref) <= BEAT_REL * f_ref,
                   f"{label}: S(t) beats at {f:.3f}, (E5 - E4)/2pi = {f_ref:.3f}")


def close(got, want, tol, label, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    s = np.max(np.abs(want)) if scale is None else scale
    dev = float(np.max(np.abs(got - want))) / (s if s else 1.0)
    return require(dev <= tol, f"{label}: off the referee by {dev:.2e} (tolerance {tol:.0e})")


def selftest():
    """Each gate must reject a corrupted output: returns the gates that did not."""
    missed = []
    b, a, n = 4.5 * math.pi, 1.0, 10
    kp, km = R.poles(b, a, n)
    if pole_table(kp, km, b, a, n):
        missed.append("pole_table rejects the referee's own poles")
    bad = kp.copy()
    bad[3] += 1e-7
    if not pole_table(bad, km, b, a, n):
        missed.append("pole_table accepts a pole moved by 1e-7")
    if not pole_table(np.delete(np.append(kp, R.poles(b, a, n + 1)[0][-1]), 4), km, b, a, n):
        missed.append("pole_table accepts a skipped pole")
    if not state_amplitudes(kp, np.sqrt(R.state_amplitude_sq(kp, a)) * 1.001, a, "x"):
        missed.append("state_amplitudes accepts a 0.1% amplitude error")
    if not singularity(b + 1e-6, -b, -5, a):
        missed.append("singularity accepts b* off by 1e-6")
    if not amplitude_bound(np.array([0.5, 1.0001]), "x"):
        missed.append("amplitude_bound accepts |A| = 1.0001")
    ref = R.Survival(b, a, 3 * math.pi, math.sqrt(2 / a), 400)
    t = np.linspace(0.5, 2.0, 5) * ref.lifetime()
    A, _ = ref.amplitude(t)
    if survival_vs_referee(t, A, ref, ORACLE_ABS, "x")[0]:
        missed.append("survival_vs_referee rejects the referee itself")
    if not survival_vs_referee(t, A * 1.001, ref, ORACLE_ABS, "x")[0]:
        missed.append("survival_vs_referee accepts a 0.1% amplitude error")
    return missed


if __name__ == "__main__":
    import sys
    missed = selftest()
    print("every gate rejects its corrupted output" if not missed else "; ".join(missed))
    sys.exit(1 if missed else 0)
