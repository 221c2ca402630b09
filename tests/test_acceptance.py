"""Acceptance gate: one test per numbered criterion, each printing a PASS line.

Criteria 6, 7 and 10 contain sub-cases whose nominal tolerances the actual
dynamics of this model cannot meet (the assertion messages carry the
analysis); those asserts keep their nominal tolerances and fail honestly rather
than being loosened.
"""
import math
import time

import numpy as np
import pytest

from deltashell import (DeltaShellPotential, SineInitialState, box_state, closure_sum,
                        find_poles, find_singularity, green_function, jost_function,
                        lifetime, residue_at_pole, survival_amplitude,
                        survival_amplitude_exact, survival_series, transition_time)
from deltashell.basis import green_expansion, normalization_residual
from deltashell.cli import main as cli_main
from deltashell.expansion import OverlapSet
from deltashell.poles import newton_polish

from reference_values import (REFERENCE_BOX_DOMINANCE, REFERENCE_OVERLAPS_SS,
                              REFERENCE_POLES, RESONANCE_E1, RESONANCE_G1,
                              RESONANCE_RATIO)

B_REF = 4.5 * math.pi


def _ok(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS: {msg}")


def test_criterion_01_pole_table(pot9):
    t0 = time.perf_counter()
    ps = find_poles(pot9, 10, 10)
    elapsed = time.perf_counter() - t0
    for p, (rem, imm, rep, imp) in REFERENCE_POLES.items():
        assert ps.by_index(p).k.real == pytest.approx(rep, abs=1e-4)
        assert ps.by_index(p).k.imag == pytest.approx(imp, abs=1e-4)
        assert ps.by_index(-p).k.real == pytest.approx(rem, abs=1e-4)
        assert ps.by_index(-p).k.imag == pytest.approx(imm, abs=1e-4)
    assert elapsed < 5.0
    _ok(1, f"all 20 pole components within 1e-4; solve took {elapsed:.2f}s")


def test_criterion_02_resonance_parameters(ps10):
    p1 = ps10.by_index(1)
    e1, g1 = p1.resonance_position, p1.width
    assert e1 == pytest.approx(RESONANCE_E1, abs=1e-3)
    assert g1 == pytest.approx(RESONANCE_G1, abs=1e-3)
    assert e1 / g1 == pytest.approx(RESONANCE_RATIO, abs=0.01)
    _ok(2, f"E1={e1:.5f}, Gamma1={g1:.5f}, R={e1 / g1:.4f}")


def test_criterion_03_spectral_singularity(pot9):
    t0 = time.perf_counter()
    b_star, k_star = find_singularity(1.0, -5, 13.0, 15.0)
    elapsed = time.perf_counter() - t0
    assert b_star == pytest.approx(B_REF, abs=1e-3)
    assert k_star == pytest.approx(-B_REF, abs=1e-3)
    k_refined = newton_polish(complex(k_star), DeltaShellPotential(b=b_star, a=1.0))
    assert abs(k_refined.imag) < 1e-10
    beta_at_table_b = find_poles(pot9, 6, 6).by_index(-5).k.imag
    assert abs(beta_at_table_b) <= 2e-5
    assert elapsed < 10.0
    _ok(3, f"b*={b_star!r}, k*={k_star!r}, |Im k_-5(9pi/2)|={abs(beta_at_table_b):.1e}, "
           f"{elapsed:.2f}s")


def test_criterion_04_overlap_table(ctx_ss):
    for p, (rem, imm, rep, imp) in REFERENCE_OVERLAPS_SS.items():
        c2p = ctx_ss.overlaps.c(p) * ctx_ss.overlaps.c(p)
        c2m = ctx_ss.overlaps.c(-p) * ctx_ss.overlaps.c(-p)
        for got, want in ((c2p.real, rep), (c2p.imag, imp),
                          (c2m.real, rem), (c2m.imag, imm)):
            assert got == pytest.approx(want, abs=2e-4)
    _ok(4, "all 40 squared-overlap components within 2e-4")


def test_criterion_05_box_dominance(ctx_q1, ctx_q2, ctx_q6):
    for q, ctx in ((1, ctx_q1), (2, ctx_q2), (6, ctx_q6)):
        got = (ctx.overlaps.c(q) * ctx.overlaps.c(q)).real
        assert got == pytest.approx(REFERENCE_BOX_DOMINANCE[q], abs=1e-3)
    _ok(5, "Re C_q^2 dominance values reproduced for q = 1, 2, 6")


@pytest.mark.parametrize("state_name", ["q1", "q2", "q6", "kc"])
def test_criterion_06_closure(state_name, ctx_q1, ctx_q2, ctx_q6, ctx_ss):
    ctx = {"q1": ctx_q1, "q2": ctx_q2, "q6": ctx_q6, "kc": ctx_ss}[state_name]
    d40 = abs(closure_sum(ctx.overlaps, 40) - 1)
    d10 = abs(closure_sum(ctx.overlaps, 10) - 1)
    assert d40 <= d10
    assert d40 < 0.02, (
        f"closure defect at N=40 is {d40:.4f} for {state_name}. For the "
        f"spectral-singularity state psi(a) != 0 and the closure sum "
        f"converges to 1 + i psi(a)^2/(2b) (here 1 + 0.0707i), not to 1; "
        f"the 0.02 tolerance is unattainable at any truncation.")
    _ok(6, f"{state_name}: closure defect {d40:.2e} < 0.02 and non-increasing")


def _fit_slope(t, S, t1, t2):
    m = (t >= t1) & (t <= t2)
    return np.polyfit(t[m], np.log(S[m]), 1)[0]


@pytest.mark.parametrize("case", ["q2_early", "q2_late", "q6_early"])
def test_criterion_07_decay_regimes(case, ctx_q2, ctx_q6, pot9):
    ctx = ctx_q2 if case.startswith("q2") else ctx_q6
    tau = lifetime(ctx.pole_set)
    t = np.linspace(0.01 * tau, 8 * tau, 12000)
    S = survival_series(pot9, ctx.initial_state, t, 40, context=ctx).S
    if case == "q2_early":
        slope = _fit_slope(t, S, 0.2 * tau, 0.8 * tau)
        target = -ctx.pole_set.by_index(2).width
    elif case == "q6_early":
        slope = _fit_slope(t, S, 0.2 * tau, 0.8 * tau)
        target = -ctx.pole_set.by_index(6).width
    else:
        slope = _fit_slope(t, S, 3 * tau, 6 * tau)
        target = -ctx.pole_set.by_index(1).width
    assert slope == pytest.approx(target, rel=0.05), (
        f"{case}: fitted slope {slope:.3f} vs target {target:.3f} "
        f"(ratio {slope / target:.3f}). For q=2 the Gamma_2 -> Gamma_1 "
        f"probability handover happens near 4.2 tau, inside the stated "
        f"[3, 6] tau window, so the fitted slope there is an average of the "
        f"two regimes; the clean Gamma_1 window is [5, 8] tau (tested in "
        f"test_expansion).")
    _ok(7, f"{case}: slope {slope:.3f} matches {target:.3f} within 5%")


def test_criterion_08_transition_time_and_power_law(ctx_ss, pot9):
    tau = lifetime(ctx_ss.pole_set)
    t_tr = transition_time(ctx_ss.overlaps, ctx_ss.pole_set)
    assert 24 * tau <= t_tr <= 30 * tau
    t = np.geomspace(50 * tau, 100 * tau, 200)
    S = survival_series(pot9, ctx_ss.initial_state, t, 40, context=ctx_ss).S
    slope = np.polyfit(np.log(t), np.log(S), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)
    _ok(8, f"t_tr = {t_tr / tau:.2f} tau in [24, 30]; log-log slope {slope:.4f}")


def test_criterion_09_oscillatory_decay(ctx_ss, pot9):
    tau = lifetime(ctx_ss.pole_set)
    # (a) at least 3 local maxima of S on (0, 2 tau]
    t2 = np.linspace(2 * tau / 2000, 2 * tau, 2000)
    S2 = survival_series(pot9, ctx_ss.initial_state, t2, 40, context=ctx_ss).S
    n_max = sum(1 for i in range(1, len(S2) - 1)
                if S2[i] > S2[i - 1] and S2[i] > S2[i + 1])
    assert n_max >= 3
    # (b) dominant beat frequency after dividing out the best-fit exponential.
    # The DFT runs on (0, 1 tau], the window where the 4<->5 beat dominates;
    # past ~1 tau slower interference pairs take over the detrended spectrum.
    t1 = np.linspace(tau / 2000, tau, 2000)
    S1 = survival_series(pot9, ctx_ss.initial_state, t1, 40, context=ctx_ss).S
    resid = S1 / np.exp(np.polyval(np.polyfit(t1, np.log(S1), 1), t1))
    sig = (resid - resid.mean()) * np.hanning(len(resid))
    F = np.abs(np.fft.rfft(sig, n=32 * len(sig)))
    freqs = np.fft.rfftfreq(32 * len(sig), d=t1[1] - t1[0])
    mask = freqs >= 2 / (t1[-1] - t1[0])
    f_peak = freqs[mask][np.argmax(F[mask])]
    e4 = ctx_ss.pole_set.by_index(4).resonance_position
    e5 = ctx_ss.pole_set.by_index(5).resonance_position
    f_ref = (e5 - e4) / (2 * math.pi)
    assert f_peak == pytest.approx(f_ref, rel=0.10)
    # (c) the power-law tail is negligible in the oscillatory regime
    _, a_exp, a_tail = survival_amplitude(ctx_ss.overlaps, ctx_ss.pole_set, tau)
    tail_fraction = abs(a_tail) / abs(a_exp + a_tail)
    assert tail_fraction < 1e-3
    _ok(9, f"{n_max} maxima; beat {f_peak:.2f} vs (E5-E4)/2pi = {f_ref:.2f}; "
           f"tail fraction at tau = {tail_fraction:.1e}")


@pytest.mark.parametrize("state_name", ["q1", "q2", "q6", "kc"])
def test_criterion_10_oracle_agreement(state_name, ctx_q1, ctx_q2, ctx_q6, ctx_ss):
    ctx = {"q1": ctx_q1, "q2": ctx_q2, "q6": ctx_q6, "kc": ctx_ss}[state_name]
    tau = lifetime(ctx.pole_set)
    grid = np.linspace(0.5 * tau, 5 * tau, 41)
    worst, worst_t = 0.0, 0.0
    for t in grid:
        a_exp, _, _ = survival_amplitude(ctx.overlaps, ctx.pole_set, float(t), 40)
        a_or = survival_amplitude_exact(ctx.potential, ctx.initial_state, float(t), 40)
        rel = abs(abs(a_or) ** 2 - abs(a_exp) ** 2) / abs(a_or) ** 2
        if rel > worst:
            worst, worst_t = rel, t / tau
    assert worst < 0.01, (
        f"{state_name}: worst |S_exp - S_exact|/S_exact = {worst:.3f} at "
        f"t = {worst_t:.2f} tau. The t^(-3/2) term of the expansion is an "
        f"asymptotic approximation of the exact ray integral; in the "
        f"exponential-to-constant handover of this state it is ~30% wrong "
        f"about its own (small) value, which exceeds 1% of S near the "
        f"interference dips. The oracle itself is certified to ~1e-12 by the "
        f"tilted-contour referee in test_oracle.")
    _ok(10, f"{state_name}: expansion vs exact within {worst:.2%} on [0.5, 5] tau")


def test_criterion_10_delta_resolution(pot9):
    # S_exact(t_min) = 1 +- 1e-3 at each state's delta-resolution scale.
    # Box states dephase slowly; the spectral-singularity state has a jump at
    # the shell (infinite energy spread), so S - 1 decays only like sqrt(t)
    # and the check needs t = 3e-7 and ~10^4 residue terms.
    t0 = time.perf_counter()
    for init, t_check, n in ((box_state(1), 2e-4, 80), (box_state(2), 2e-4, 80),
                             (box_state(6), 1e-4, 80)):
        s = abs(survival_amplitude_exact(pot9, init, t_check, n, t_min=1e-4)) ** 2
        assert s == pytest.approx(1.0, abs=1e-3)
    ss = SineInitialState.from_wavenumber(B_REF)
    s = abs(survival_amplitude_exact(pot9, ss, 3e-7, 10000, t_min=1e-7)) ** 2
    assert s == pytest.approx(1.0, abs=1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(10, f"S_exact -> 1 at the delta-resolution scale for all four states "
            f"({elapsed:.1f}s)")


def test_criterion_11_structural_identities(ps40, basis40, pot9):
    assert max(abs(jost_function(p.k, pot9)) for p in ps40) < 1e-10
    assert np.max(np.abs(normalization_residual(basis40.k, basis40.A, pot9))) < 1e-10
    for p in range(1, 6):
        st = basis40.state(p)
        num = residue_at_pole(st.pole.k, 0.3, 0.6, pot9)
        assert abs(num - st(0.3) * st(0.6) / (2 * st.pole.k)) < 1e-8
    k_probe = 2.0 + 0j
    exact = green_function(0.3, 0.6, k_probe, pot9)
    rel = abs(green_expansion(basis40, 0.3, 0.6, k_probe, 40) - exact) / abs(exact)
    assert rel < 1e-3
    _ok(11, f"Jost zeros, normalization, residues, pole expansion (rel {rel:.1e})")


def test_criterion_12_property_suite(ctx_q1, pot9, tmp_path):
    # sign-flip invariance of S(t)
    flipped = OverlapSet(initial_state=ctx_q1.overlaps.initial_state,
                         C=-ctx_q1.overlaps.C, quadrature=ctx_q1.overlaps.quadrature)
    t_probe = 0.9
    assert survival_amplitude(flipped, ctx_q1.pole_set, t_probe)[0] == \
        survival_amplitude(ctx_q1.overlaps, ctx_q1.pole_set, t_probe)[0]
    # byte-identical reruns through the CLI
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli_main(["poles", "--n", "6", "--out", str(out1)])
    cli_main(["poles", "--n", "6", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # Green symmetry at 1e-12
    for r, rp in ((0.2, 0.8), (0.5, 0.6), (0.9, 0.1)):
        assert abs(green_function(r, rp, 1.1 + 0.3j, pot9)
                   - green_function(rp, r, 1.1 + 0.3j, pot9)) < 1e-12
    _ok(12, "sign-flip invariance, determinism, Green symmetry")
