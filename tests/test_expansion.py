import cmath
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import lambertw

from deltashell import (DeltaShellPotential, OverlapSet, PoleSet, SineInitialState, box_state,
                        build_basis, build_expansion, closure_sum, find_poles, find_singularity,
                        green_expansion, lifetime, poles, sum_rule_defect, survival_amplitude,
                        survival_amplitude_exact, survival_series, tail_coefficient,
                        transition_time, two_pole_amplitude, wavefunction)
from deltashell.errors import DeltaShellError, NoTransitionError
from deltashell.expansion import ETA, _overlap_quadrature, _overlaps, build_overlaps

from reference_values import REFERENCE_BOX_DOMINANCE, REFERENCE_OVERLAPS_SS


def logslope(t, S, t1, t2):
    m = (t >= t1) & (t <= t2)
    return np.polyfit(t[m], np.log(S[m]), 1)[0]


def _quad_overlap(k, A, init):
    f = lambda r: init.N_c * math.sin(init.k_c * r) * A * cmath.sin(k * r)
    return quad(f, 0.0, init.a, complex_func=True, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0], ids=["a0.5", "a1", "a2"])
@pytest.mark.parametrize("b", [3.0, 4.5 * math.pi, 60.0], ids=["b3", "b4.5pi", "b60"])
def test_overlap_closed_form_vs_quadrature(b, a):
    """Closed form and the Gauss-Legendre rule against scipy's adaptive quad,
    over the first 60 proper states and 10 improper ones, for k_c a = 9 pi/2.
    """
    pot = DeltaShellPotential(b=b, a=a)
    init = SineInitialState.from_wavenumber(4.5 * math.pi / a, a)
    basis = build_basis(find_poles(pot, 60, 10))
    k, A = basis.k, basis.A
    ref = np.array([_quad_overlap(kp, Ap, init) for kp, Ap in zip(k, A)])
    closed, _ = _overlaps(k, A, init)
    gauss = _overlap_quadrature(k, A, init)
    assert np.max(np.abs(closed - ref)) < 1e-12
    assert np.max(np.abs(gauss - ref)) < 1e-12


def test_overlap_fallback_provenance(ctx_ss):
    # the singular pole sits at k = -k_c exactly: closed form is 0/0 there
    init = ctx_ss.initial_state
    singular, regular = ctx_ss.basis.state(-5), ctx_ss.basis.state(5)
    k = np.array([singular.pole.k, regular.pole.k])
    _, near = _overlaps(k, np.array([singular.A, regular.A]), init)
    assert near.tolist() == [True, False]
    assert ctx_ss.overlaps.provenance[4] == ("quadrature", "closed_form")


def test_reference_overlap_table(ctx_ss):
    for p, (rem, imm, rep, imp) in REFERENCE_OVERLAPS_SS.items():
        c2p = ctx_ss.overlaps.c(p) * ctx_ss.overlaps.c(p)
        c2m = ctx_ss.overlaps.c(-p) * ctx_ss.overlaps.c(-p)
        assert c2p.real == pytest.approx(rep, abs=2e-4)
        assert c2p.imag == pytest.approx(imp, abs=2e-4)
        assert c2m.real == pytest.approx(rem, abs=2e-4)
        assert c2m.imag == pytest.approx(imm, abs=2e-4)


def test_box_state_dominant_coefficients(ctx_q1, ctx_q2, ctx_q6):
    for q, ctx in ((1, ctx_q1), (2, ctx_q2), (6, ctx_q6)):
        c2 = ctx.overlaps.c(q) * ctx.overlaps.c(q)
        assert c2.real == pytest.approx(REFERENCE_BOX_DOMINANCE[q], abs=1e-3)


def test_conjugate_overlap_equals_overlap(ctx_q1):
    # psi is real, so the conjugated overlap coincides; cross-check by quadrature
    st = ctx_q1.basis.state(2)
    c = ctx_q1.overlaps.c(2)
    init = ctx_q1.initial_state
    re = quad(lambda r: (np.conj(init.amplitude(r)) * st(r)).real, 0, 1, epsabs=1e-13)[0]
    im = quad(lambda r: (np.conj(init.amplitude(r)) * st(r)).imag, 0, 1, epsabs=1e-13)[0]
    assert abs(complex(re, im) - c) < 1e-9


def test_closure_box_states(ctx_q1, ctx_q2, ctx_q6):
    for ctx in (ctx_q1, ctx_q2, ctx_q6):
        defect40 = abs(closure_sum(ctx.overlaps, 40) - 1)
        defect10 = abs(closure_sum(ctx.overlaps, 10) - 1)
        assert defect40 < 1e-4
        assert defect40 <= defect10


def test_closure_boundary_anomaly(ctx_ss, pot9):
    """States with psi(a) != 0 converge to 1 + i psi(a)^2/(2b), not to 1."""
    psi_a = ctx_ss.initial_state.amplitude(pot9.a)
    anomaly_limit = 1 + 0.5j * psi_a ** 2 / pot9.b
    s40 = closure_sum(ctx_ss.overlaps, 40)
    assert abs(s40 - anomaly_limit) < 0.01
    assert abs(s40 - 1) > 0.06  # an order of magnitude off the naive limit
    # trend toward the anomalous limit
    assert abs(s40 - anomaly_limit) < abs(closure_sum(ctx_ss.overlaps, 10) - anomaly_limit)


def test_survival_amplitude_validation(ctx_q1):
    with pytest.raises(ValueError):
        survival_amplitude(ctx_q1.overlaps, ctx_q1.pole_set, -0.3)


def test_survival_series_matches_pointwise(ctx_q1, pot9):
    tau = lifetime(ctx_q1.pole_set)
    grid = np.linspace(0.3 * tau, 3 * tau, 7)
    series = survival_series(pot9, ctx_q1.initial_state, grid, 40, context=ctx_q1)
    for i, t in enumerate(grid):
        A, A_exp, A_tail = survival_amplitude(ctx_q1.overlaps, ctx_q1.pole_set, float(t))
        assert series.A[i] == pytest.approx(A, rel=1e-12)
        assert series.A_exp[i] == pytest.approx(A_exp, rel=1e-12)
        assert series.A_tail[i] == pytest.approx(A_tail, rel=1e-12)
        assert series.S[i] == pytest.approx(abs(A) ** 2, rel=1e-12)
        # the per-pole loop over E_p and Gamma_p that the array kernel replaced
        loop = sum(ctx_q1.overlaps.c(p) * ctx_q1.overlaps.c(p) * cmath.exp(
            -1j * pole.resonance_position * t - pole.width * t / 2)
            for p, pole in enumerate(ctx_q1.pole_set.proper, start=1))
        assert A_exp == pytest.approx(loop, rel=1e-12)
    assert np.all(series.S >= 0)
    # a one-point grid gives the scalar value
    one = survival_series(pot9, ctx_q1.initial_state, grid[2:3], 40, context=ctx_q1)
    assert one.A[0] == pytest.approx(series.A[2], rel=1e-12)


def test_survival_series_grid_validation(ctx_q1, pot9):
    with pytest.raises(ValueError):
        survival_series(pot9, ctx_q1.initial_state, [0.0, 0.1], context=ctx_q1)
    with pytest.raises(ValueError):
        survival_series(pot9, ctx_q1.initial_state, [0.2, 0.1], context=ctx_q1)


def test_sign_flip_invariance(ctx_q1):
    """u_p -> -u_p flips every C_p but leaves pair products and S(t) unchanged."""
    flipped = OverlapSet(initial_state=ctx_q1.overlaps.initial_state,
                         C=-ctx_q1.overlaps.C, quadrature=ctx_q1.overlaps.quadrature)
    t = 0.8
    a0 = survival_amplitude(ctx_q1.overlaps, ctx_q1.pole_set, t)[0]
    a1 = survival_amplitude(flipped, ctx_q1.pole_set, t)[0]
    assert a0 == a1
    for p in (1, -3, 5):
        assert flipped.c(p) * flipped.c(p) == ctx_q1.overlaps.c(p) * ctx_q1.overlaps.c(p)


def test_wavefunction_consistency_with_survival(ctx_q1):
    """Overlap of psi(r, t) with psi(r, 0) reproduces A(t)."""
    tau = lifetime(ctx_q1.pole_set)
    t = 1.3 * tau
    A_direct = survival_amplitude(ctx_q1.overlaps, ctx_q1.pole_set, t)[0]
    init = ctx_q1.initial_state

    def integrand_re(r):
        return (init.amplitude(r) * wavefunction(ctx_q1, r, t)).real

    def integrand_im(r):
        return (init.amplitude(r) * wavefunction(ctx_q1, r, t)).imag

    re = quad(integrand_re, 0, 1, epsabs=1e-12, limit=200)[0]
    im = quad(integrand_im, 0, 1, epsabs=1e-12, limit=200)[0]
    assert abs(complex(re, im) - A_direct) < 1e-8


def test_wavefunction_basics(ctx_q1):
    assert wavefunction(ctx_q1, 0.0, 0.7) == 0
    with pytest.raises(ValueError):
        wavefunction(ctx_q1, 1.2, 0.7)
    with pytest.raises(ValueError):
        wavefunction(ctx_q1, 0.5, 0.0)


NAN, INF = math.nan, math.inf
# one non-finite or out-of-range input per call, and the text its ValueError names it by
INVALID_INPUTS = {
    "potential_a_inf": (lambda ctx: DeltaShellPotential(b=1.0, a=INF), "a=inf"),
    "potential_b_inf": (lambda ctx: DeltaShellPotential(b=INF), "b=inf"),
    "state_k_c_nan": (lambda ctx: SineInitialState(k_c=NAN, N_c=1.0), "k_c=nan"),
    "state_N_c_negative": (lambda ctx: SineInitialState(k_c=1.0, N_c=-1.0), "N_c=-1.0"),
    "state_from_wavenumber_inf": (lambda ctx: SineInitialState.from_wavenumber(INF), "k_c=inf"),
    "box_state_a_negative": (lambda ctx: box_state(1, -1.0), "a=-1.0"),
    "wavefunction_r_negative": (lambda ctx: wavefunction(ctx, -0.5, 1.0), "r=-0.5"),
    "wavefunction_r_nan": (lambda ctx: wavefunction(ctx, NAN, 1.0), "r=nan"),
    "wavefunction_t_nan": (lambda ctx: wavefunction(ctx, 0.5, NAN), "t=nan"),
    "survival_amplitude_t_nan": (
        lambda ctx: survival_amplitude(ctx.overlaps, ctx.pole_set, NAN), "t=nan"),
    "survival_series_t_inf": (lambda ctx: survival_series(
        ctx.potential, ctx.initial_state, [1.0, INF], context=ctx), "t=inf"),
    "two_pole_amplitude_t_negative": (
        lambda ctx: two_pole_amplitude(ctx.overlaps, ctx.pole_set, -1.0), "t=-1.0"),
    "oracle_t_inf": (lambda ctx: survival_amplitude_exact(
        ctx.potential, ctx.initial_state, INF), "t=inf"),
    "oracle_t_nan": (lambda ctx: survival_amplitude_exact(
        ctx.potential, ctx.initial_state, NAN), "t=nan"),
    "scan_bracket_inf": (lambda ctx: find_singularity(1.0, -5, 13.0, INF), "[13.0, inf]"),
}


@pytest.mark.parametrize("entry", list(INVALID_INPUTS))
def test_invalid_input_is_refused_by_name(ctx_q1, entry):
    """Each call gets a ValueError that names the bad value, where it used to
    return a number (or NaN), run into a solver, or raise "math domain error".
    """
    call, named = INVALID_INPUTS[entry]
    with pytest.raises(ValueError) as exc:
        call(ctx_q1)
    assert named in str(exc.value)


def test_survival_series_refuses_a_context_built_for_other_inputs(ctx_q1, pot9):
    """A context carries the amplitudes and the lifetime of the inputs it was
    built for, so a series labelled with other inputs is refused.
    """
    grid = [1.0, 2.0]
    with pytest.raises(ValueError, match="context was built for"):
        survival_series(DeltaShellPotential(b=10.0), ctx_q1.initial_state, grid, context=ctx_q1)
    with pytest.raises(ValueError, match="context was built for"):
        survival_series(pot9, box_state(3), grid, context=ctx_q1)
    same = survival_series(DeltaShellPotential(b=pot9.b), box_state(1), grid, context=ctx_q1)
    assert same.lifetime == lifetime(ctx_q1.pole_set)


# every entry point that truncates the pole sums at N pairs, on a 10-pair context
TRUNCATED = {
    "survival_series": lambda ctx, N: survival_series(ctx.potential, ctx.initial_state,
                                                      [0.5], N, context=ctx),
    "survival_amplitude": lambda ctx, N: survival_amplitude(ctx.overlaps, ctx.pole_set, 0.5, N),
    "closure_sum": lambda ctx, N: closure_sum(ctx.overlaps, N),
    "tail_coefficient": lambda ctx, N: tail_coefficient(ctx.overlaps, ctx.pole_set, N),
    "wavefunction": lambda ctx, N: wavefunction(ctx, 0.5, 0.5, N),
    "sum_rule_defect": lambda ctx, N: sum_rule_defect(ctx.basis, 0.3, 0.6, -1, N),
    "green_expansion": lambda ctx, N: green_expansion(ctx.basis, 0.3, 0.6, 2.0, N),
}


@pytest.fixture(scope="module")
def ctx10(pot9):
    return build_expansion(pot9, box_state(1), 10)


@pytest.mark.parametrize("N", [-3, 0, 11, 2.0])
@pytest.mark.parametrize("entry", list(TRUNCATED))
def test_truncation_outside_the_held_pairs_is_rejected(ctx10, entry, N):
    """N must be an integer with 1 <= N <= n_pairs: a negative N no longer
    drops pairs from the end, N = 0 no longer returns an empty sum and
    N > n_pairs no longer raises IndexError.
    """
    with pytest.raises(ValueError, match=r"N must be an integer in \[1, 10\]"):
        TRUNCATED[entry](ctx10, N)
    TRUNCATED[entry](ctx10, 10)


def test_cached_arrays_are_read_only_and_views_match_them(ctx_q1, pot9):
    """The arrays a pole set, a basis and an overlap set hold, and the cached
    proper-pole solve they share, refuse writes; every view equals its array
    element bit for bit and is built once.
    """
    ps, basis, ov = ctx_q1.pole_set, ctx_q1.basis, ctx_q1.overlaps
    arrays = [poles._proper_poles(pot9, 40), ps.k_proper, ps.k_improper,
              basis.k, basis.A, basis.B, ov.C, ov.quadrature]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = x[1]
    n = ps.n_proper

    def same(views, array):
        return np.array(views, dtype=array.dtype).tobytes() == array.tobytes()

    assert same([p.k for p in ps], np.concatenate((ps.k_proper, ps.k_improper)))
    assert [p.index for p in ps] == list(range(1, n + 1)) + list(range(-1, -n - 1, -1))
    states = basis.proper + basis.improper
    assert same([st.pole.k for st in states], basis.k)
    assert same([st.A for st in states], basis.A)
    assert same([st.B for st in states], basis.B)
    assert same(ov.proper, ov.C[0]) and same(ov.improper, ov.C[1])
    assert same([ov.c(-p) for p in range(1, 41)], ov.C[1])
    assert ps.proper is ps.proper and basis.state(3) is basis.state(3)
    assert basis.state(-2).pole is ps.by_index(-2)
    # a set built from a caller's array keeps its own copy
    k = np.array(ps.k_proper)
    copy = poles.PoleSet(pot9, k, ps.k_improper)
    k[0] = 0
    assert copy.k_proper[0] == ps.k_proper[0]


def test_sums_and_times_build_no_views(pot9):
    """Overlaps, the survival series, the closure and two-pole sums and the
    transition time read the arrays: no Pole, ResonantState or overlap-tuple
    view is cached on a fresh context's pole set, basis or overlap sets.
    """
    ctx = build_expansion(pot9, box_state(2), 40)
    ov = build_overlaps(ctx.basis, ctx.initial_state)
    tau = lifetime(ctx.pole_set)
    survival_series(pot9, ctx.initial_state, np.linspace(0.5, 5, 50) * tau, 40, context=ctx)
    closure_sum(ov, 40)
    two_pole_amplitude(ov, ctx.pole_set, tau)
    transition_time(ctx.overlaps, ctx.pole_set)
    for obj in (ctx.pole_set, ctx.basis, ctx.overlaps, ov):
        cached = {"proper", "improper", "_states", "provenance"} & set(vars(obj))
        assert not cached, f"{type(obj).__name__} built {sorted(cached)}"


def test_wavefunction_single_pole_profile(ctx_q1):
    """At a few lifetimes only the p = 1 term survives: |psi|^2 tracks |u_1|^2."""
    tau = lifetime(ctx_q1.pole_set)
    r = np.linspace(0.05, 0.95, 19)
    psi = np.array([wavefunction(ctx_q1, float(x), 3 * tau) for x in r])
    u1 = np.array([ctx_q1.basis.state(1)(float(x)) for x in r])
    ratio = np.abs(psi) ** 2 / np.abs(u1) ** 2
    ratio /= ratio.mean()
    assert np.max(np.abs(ratio - 1)) < 0.05


def test_exponential_regime_purity(ctx_q1):
    tau = lifetime(ctx_q1.pole_set)
    t = np.linspace(2 * tau, 5 * tau, 400)
    series_S = survival_series(ctx_q1.potential, ctx_q1.initial_state, t, 40,
                               context=ctx_q1).S
    c1 = abs(ctx_q1.overlaps.c(1) * ctx_q1.overlaps.c(1))
    g1 = ctx_q1.pole_set.by_index(1).width
    pure = c1 ** 2 * np.exp(-g1 * t)
    assert np.max(np.abs(series_S - pure) / series_S) < 0.05


def test_decay_slopes_q2(ctx_q2, pot9):
    tau = lifetime(ctx_q2.pole_set)
    g1 = ctx_q2.pole_set.by_index(1).width
    g2 = ctx_q2.pole_set.by_index(2).width
    t = np.linspace(0.01 * tau, 9 * tau, 12000)
    S = survival_series(pot9, ctx_q2.initial_state, t, 40, context=ctx_q2).S
    early = logslope(t, S, 0.2 * tau, 0.8 * tau)
    assert early == pytest.approx(-g2, rel=0.05)
    # the Gamma_2 -> Gamma_1 probability handover sits near 4.2 tau for this
    # state, so the clean Gamma_1 window is [5, 8] tau (about two beats of the
    # residual interference)
    late = logslope(t, S, 5 * tau, 8 * tau)
    assert late == pytest.approx(-g1, rel=0.05)


def test_decay_slopes_q6(ctx_q6, pot9):
    tau = lifetime(ctx_q6.pole_set)
    g1 = ctx_q6.pole_set.by_index(1).width
    g6 = ctx_q6.pole_set.by_index(6).width
    t = np.linspace(0.01 * tau, 7 * tau, 12000)
    S = survival_series(pot9, ctx_q6.initial_state, t, 40, context=ctx_q6).S
    assert logslope(t, S, 0.2 * tau, 0.8 * tau) == pytest.approx(-g6, rel=0.05)
    assert logslope(t, S, 3 * tau, 6 * tau) == pytest.approx(-g1, rel=0.05)


def test_long_time_power_law(ctx_ss, pot9):
    tau = lifetime(ctx_ss.pole_set)
    t = np.geomspace(50 * tau, 100 * tau, 200)
    S = survival_series(pot9, ctx_ss.initial_state, t, 40, context=ctx_ss).S
    slope = np.polyfit(np.log(t), np.log(S), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)


def test_two_pole_amplitude(ctx_ss):
    tau = lifetime(ctx_ss.pole_set)
    t = np.linspace(0.2 * tau, 1.5 * tau, 1500)
    two = np.abs([two_pole_amplitude(ctx_ss.overlaps, ctx_ss.pole_set, float(x))
                  for x in t]) ** 2
    # oscillatory with a decaying envelope
    n_max = sum(1 for i in range(1, len(two) - 1)
                if two[i] > two[i - 1] and two[i] > two[i + 1])
    assert n_max >= 3
    assert two[-1] < two[0]
    # beat frequency from the detrended spectrum matches (E5 - E4) / 2 pi to 1%
    lnS = np.log(two)
    resid = lnS - np.polyval(np.polyfit(t, lnS, 1), t)
    resid = (resid - resid.mean()) * np.hanning(len(resid))
    F = np.abs(np.fft.rfft(resid, n=32 * len(resid)))
    freqs = np.fft.rfftfreq(32 * len(resid), d=t[1] - t[0])
    e4 = ctx_ss.pole_set.by_index(4).resonance_position
    e5 = ctx_ss.pole_set.by_index(5).resonance_position
    f_ref = (e5 - e4) / (2 * math.pi)
    f_peak = freqs[np.argmax(F)]
    assert f_peak == pytest.approx(f_ref, rel=0.01)


def test_two_pole_tracks_full_oscillation(ctx_ss, pot9):
    """The full S(t) carries beats from several pole pairs (the two-pole form
    is only qualitative: it reproduces the dominant frequency, not the maxima
    count).
    """
    tau = lifetime(ctx_ss.pole_set)
    t = np.linspace(tau / 1500, tau, 1500)
    S = survival_series(pot9, ctx_ss.initial_state, t, 40, context=ctx_ss).S
    two = np.abs([two_pole_amplitude(ctx_ss.overlaps, ctx_ss.pole_set, float(x))
                  for x in t]) ** 2

    def dominant(sig):
        lnS = np.log(sig)
        resid = lnS - np.polyval(np.polyfit(t, lnS, 1), t)
        resid = (resid - resid.mean()) * np.hanning(len(resid))
        F = np.abs(np.fft.rfft(resid, n=32 * len(resid)))
        freqs = np.fft.rfftfreq(32 * len(resid), d=t[1] - t[0])
        mask = freqs >= 2 / (t[-1] - t[0])
        return freqs[mask][np.argmax(F[mask])]

    assert dominant(S) == pytest.approx(dominant(two), rel=0.10)


def test_full_window_spectrum_structure(ctx_ss, pot9):
    """Over the full [0, 2 tau] window the detrended spectrum is a forest of
    beat lines: the 4<->5 line sits within a few percent of (E5-E4)/2pi as a
    clear in-band peak, but slower-decaying pairs (4<->3, 4<->1) dominate the
    late part of the window, so it is not the global maximum there.
    """
    tau = lifetime(ctx_ss.pole_set)
    t = np.linspace(2 * tau / 2000, 2 * tau, 2000)
    S = survival_series(pot9, ctx_ss.initial_state, t, 40, context=ctx_ss).S
    resid = S / np.exp(np.polyval(np.polyfit(t, np.log(S), 1), t))
    sig = (resid - resid.mean()) * np.hanning(len(resid))
    sig -= sig.mean()
    F = np.abs(np.fft.rfft(sig, n=32 * len(sig)))
    freqs = np.fft.rfftfreq(32 * len(sig), d=t[1] - t[0])
    e4 = ctx_ss.pole_set.by_index(4).resonance_position
    e5 = ctx_ss.pole_set.by_index(5).resonance_position
    f_ref = (e5 - e4) / (2 * math.pi)
    band = (freqs > 0.9 * f_ref) & (freqs < 1.1 * f_ref)
    i_band = np.argmax(F[band])
    # a genuine interior peak of the band within 10% of the two-pole beat
    assert 0 < i_band < band.sum() - 1
    assert freqs[band][i_band] == pytest.approx(f_ref, rel=0.10)


def test_lifetime(ps10, ctx_q1):
    tau = lifetime(ps10)
    assert tau == pytest.approx(1 / 2.2993, rel=1e-3)
    assert tau * min(p.width for p in ps10.proper) == pytest.approx(1.0, rel=1e-14)
    assert min(ps10.proper, key=lambda p: p.width).index == 1


def test_transition_time(ctx_ss, ctx_q1):
    tau = lifetime(ctx_ss.pole_set)
    t_tr = transition_time(ctx_ss.overlaps, ctx_ss.pole_set)
    assert 24 * tau < t_tr < 30 * tau
    t_tr_q1 = transition_time(ctx_q1.overlaps, ctx_q1.pole_set)
    assert 20 * tau < t_tr_q1 < 40 * tau


def test_transition_time_scale_invariance(ctx_q1):
    """Doubling all pair products rescales both sides equally."""
    doubled = OverlapSet(initial_state=ctx_q1.overlaps.initial_state,
                         C=math.sqrt(2) * ctx_q1.overlaps.C,
                         quadrature=ctx_q1.overlaps.quadrature)
    t0 = transition_time(ctx_q1.overlaps, ctx_q1.pole_set)
    t1 = transition_time(doubled, ctx_q1.pole_set)
    assert t1 == pytest.approx(t0, rel=1e-9)


def test_transition_time_no_crossing():
    """At b = 0.02 the q = 1 exponential and power-law terms do not cross in [1, 200] tau."""
    ctx = build_expansion(DeltaShellPotential(b=0.02, a=1.0), box_state(1), 10)
    with pytest.raises(NoTransitionError, match=r"\[1.0, 200.0\] lifetimes"):
        transition_time(ctx.overlaps, ctx.pole_set)


TRANSITION_STATES = {"q1": box_state(1), "q2": box_state(2), "q3": box_state(3),
                     "q6": box_state(6), "kc": SineInitialState.from_wavenumber(4.5 * math.pi)}


@functools.lru_cache(maxsize=None)
def _basis_at(b):
    return build_basis(find_poles(DeltaShellPotential(b=b, a=1.0), 40, 40))


@pytest.mark.parametrize("state", list(TRANSITION_STATES))
@pytest.mark.parametrize("b", [3.0, 4.5 * math.pi, 10.0, 30.0, 100.0, 224.0],
                         ids=["b3", "b4.5pi", "b10", "b30", "b100", "b224"])
def test_transition_time_matches_lambert_w(b, state):
    """Referee: 1.5 ln t - G_1 t/2 = d, with d = ln|eta D| - ln|C_1^2|, has the
    closed-form roots t = -(3/G_1) W_k(-(G_1/3) e^{2d/3}): the early crossing on
    branch k = 0 and the late one on k = -1. transition_time returns the late
    root whenever it lies in [tau, 200 tau], also when the early one does (b3-q6,
    late = 6.27 tau), and raises otherwise.
    """
    basis = _basis_at(b)
    poles, coeffs = basis.pole_set, build_overlaps(basis, TRANSITION_STATES[state])
    tau, g1 = lifetime(poles), poles.by_index(1).width
    c1 = coeffs.c(1)
    d = math.log(abs(ETA * tail_coefficient(coeffs, poles))) - math.log(abs(c1 * c1))
    arg = -(g1 / 3) * math.exp(2 * d / 3)
    late = -(3 / g1) * lambertw(arg, -1).real
    if arg >= -1 / math.e and tau <= late <= 200 * tau:
        assert transition_time(coeffs, poles) == pytest.approx(late, rel=1e-12, abs=0)
    else:
        with pytest.raises(NoTransitionError):
            transition_time(coeffs, poles)


def test_tail_coefficient_summation_order(ctx_q1):
    # fixed order: one numpy sum over the (2, N) array of terms, row 0 proper
    # and row 1 improper; the same expression written out gives the same bits
    ps, C = ctx_q1.pole_set, ctx_q1.overlaps.C
    k = np.stack((ps.k_proper[:40], ps.k_improper[:40]))
    assert tail_coefficient(ctx_q1.overlaps, ps) == complex(np.sum(C * C / (2 * k ** 3)))
    assert closure_sum(ctx_q1.overlaps, 40) == complex(np.sum(C * C)) / 2


def test_lifetime_comes_from_the_slowest_pole_above_the_ray():
    """At b = 0.02 the first proper pole lies below the rotated ray (arg k_1 = -47.8 deg)
    and gives no exponential at any time, so tau = 1/Gamma_2, not 1/Gamma_1 = 0.0305.
    """
    ps = find_poles(DeltaShellPotential(b=0.02, a=1.0), 5, 5)
    k = ps.k_proper
    assert np.angle(k[0]) < -math.pi / 4 < np.angle(k[1])
    assert lifetime(ps) == 1.0 / (4.0 * k[1].real * -k[1].imag)
    with pytest.raises(DeltaShellError, match="N = 1 "):
        lifetime(PoleSet(ps.potential, k[:1], ps.k_improper[:1]))
