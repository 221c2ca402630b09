import cmath
import importlib.util
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from deltashell import (GAMMA_ROTATION, DeltaShellPotential, SineInitialState,
                        box_state, expansion, find_poles, green_function,
                        jost_function, lifetime, oracle, poles, propagator, residue_at_pole,
                        resolvent_matrix_element, survival_amplitude, survival_amplitude_exact,
                        verify)
from deltashell.errors import CompletenessError, DeltaShellError, NearPoleError, QuadratureError
from deltashell.expansion import _overlap_quadrature
from deltashell.oracle import _ray_integral
from deltashell.poles import _acceptance_bound, _proper_poles

from reference_values import lambert_w_proper_poles

# intensities x initial states x times of the ray-integral referee sweep
SWEEP_B = (3.0, 4.5 * math.pi, 30.0, 60.0, 200.0)
SWEEP_STATES = {"q1": box_state(1), "q2": box_state(2), "q6": box_state(6),
                "kc": SineInitialState.from_wavenumber(4.5 * math.pi),
                "kc17": SineInitialState.from_wavenumber(17.3)}
SWEEP_T = (0.05, 0.1, 0.3, 1.0, 3.0, 10.0)

REFEREE = Path(__file__).resolve().parents[1] / "perfbench" / "referee.py"
# a = 1: below this b the first proper pole lies under the rotated ray, arg k_1 < -pi/4
B_RAY = 0.031862217066770185
RAY_T = np.array([0.05, 0.1, 0.5, 1.0])


@pytest.fixture(scope="module")
def referee():
    """perfbench's Lambert W + Moshinsky-function referee, loaded unedited."""
    spec = importlib.util.spec_from_file_location("perfbench_referee", REFEREE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _box1_referee(referee, b):
    """(A, error estimate) of the q = 1 box state at a = 1 on RAY_T, 4000 pole pairs deep."""
    return referee.Survival(b, 1.0, math.pi, math.sqrt(2.0), 4000).amplitude(RAY_T)


def test_jost_zero_at_poles(ps40, pot9):
    assert max(abs(jost_function(p.k, pot9)) for p in ps40) < 1e-10


def test_jost_origin_and_limits(pot9):
    b, a = pot9.b, pot9.a
    assert jost_function(0.0, pot9) == 1 - 1j * b * a
    # small-k behaviour follows the Taylor expansion of the removable point
    k_small = 1e-5
    series = 1 - 1j * b * a + a * a * b * k_small + (2j / 3) * b * a ** 3 * k_small ** 2
    assert abs(jost_function(k_small, pot9) - series) < 1e-12
    # weak shell: F -> 1 uniformly
    weak = DeltaShellPotential(b=1e-9, a=a)
    assert abs(jost_function(2.0, weak) - 1) < 1e-8
    # large real k: F - 1 = O(b/k)
    assert abs(jost_function(100.0, pot9) - 1) < pot9.b / 100.0


def test_green_symmetry(pot9):
    rs = np.linspace(0.1, 0.9, 10)
    for k in (0.7 + 0.2j, 2.0 + 0j, -1.3 + 0.8j, 3.7 - 0.4j, 0.15 + 0j):
        for r in rs:
            for rp in rs:
                g1 = green_function(float(r), float(rp), k, pot9)
                g2 = green_function(float(rp), float(r), k, pot9)
                assert abs(g1 - g2) < 1e-12


def test_green_boundary_conditions(pot9):
    k = 2.0 + 0.3j
    assert green_function(0.0, 0.5, k, pot9) == 0
    # outgoing log-derivative at the shell, one-sided difference from outside
    h = 1e-7
    g0 = green_function(1.0, 0.5, k, pot9)
    deriv = (green_function(1.0 + h, 0.5, k, pot9) - g0) / h
    assert abs(deriv - 1j * k * g0) < 1e-5 * abs(g0)


def test_green_distributional_identity(pot9):
    """(k^2 - H) G = delta(r - r'): away from r' and the shell, the second
    derivative must cancel k^2 G; the finite-difference residual vanishes
    quadratically with the step.
    """
    k, rp = 1.7 + 0.4j, 0.62
    r = 0.31
    res = []
    for h in (1e-3, 5e-4):
        lap = (green_function(r + h, rp, k, pot9) - 2 * green_function(r, rp, k, pot9)
               + green_function(r - h, rp, k, pot9)) / h ** 2
        res.append(abs(lap + k * k * green_function(r, rp, k, pot9)))
    assert res[0] < 1e-2
    assert res[1] < res[0] / 3  # ~h^2 decay


def test_green_exterior_region(pot9):
    # both points beyond the shell: regular solution continued past the jump
    k = 1.3 + 0.1j
    g = green_function(1.2, 1.4, k, pot9)
    g_swap = green_function(1.4, 1.2, k, pot9)
    assert abs(g - g_swap) < 1e-12
    assert np.isfinite(g.real) and np.isfinite(g.imag)


def test_green_near_pole_error(ps10, pot9):
    with pytest.raises(NearPoleError):
        green_function(0.3, 0.6, ps10.by_index(1).k, pot9)


def test_residue_identity(ps10, basis40, pot9):
    for p in range(1, 6):
        st = basis40.state(p)
        num = residue_at_pole(st.pole.k, 0.3, 0.6, pot9)
        assert abs(num - st(0.3) * st(0.6) / (2 * st.pole.k)) < 1e-8


def test_resolvent_large_k_limit(pot9):
    """k^2 <psi|(k^2-H)^{-1}|psi> -> <psi|psi> = 1 away from the spectrum."""
    from deltashell import SineInitialState
    init = box_state(1)
    for k in (300 + 300j, 500j):
        val = k * k * resolvent_matrix_element(k, pot9, init)
        assert abs(val - 1) < 2e-2
    init_ss = SineInitialState.from_wavenumber(4.5 * math.pi)
    val = ((1000 + 1000j) ** 2) * resolvent_matrix_element(1000 + 1000j, pot9, init_ss)
    assert abs(val - 1) < 2e-2


def test_resolvent_matches_brute_double_integral(pot9):
    """Closed-form matrix element against nested quadrature of psi G psi."""
    init = box_state(2)
    k = 2.0 + 0.5j

    def inner(rp):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            g1 = quad(lambda r: (init.amplitude(r) * green_function(r, rp, k, pot9)).real,
                      0, 1, points=[rp], epsabs=1e-11, limit=200)[0]
            g2 = quad(lambda r: (init.amplitude(r) * green_function(r, rp, k, pot9)).imag,
                      0, 1, points=[rp], epsabs=1e-11, limit=200)[0]
        return complex(g1, g2) * init.amplitude(rp)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda rp: inner(rp).real, 0, 1, epsabs=1e-9, limit=200)[0]
        im = quad(lambda rp: inner(rp).imag, 0, 1, epsabs=1e-9, limit=200)[0]
    assert abs(complex(re, im) - resolvent_matrix_element(k, pot9, init)) < 1e-8


def test_propagator_delta_resolution(pot9):
    """Applying g at tiny t to the initial state returns it: A -> 1."""
    init = box_state(1)
    val = survival_amplitude_exact(pot9, init, 2e-4, N=80, t_min=1e-4)
    assert abs(val) == pytest.approx(1.0, abs=1e-3)


def test_propagator_residue_sum_saturates(pot9):
    tau = 1 / 2.2993614900940784
    g10 = propagator(0.3, 0.6, 5 * tau, pot9, N=10)
    g40 = propagator(0.3, 0.6, 5 * tau, pot9, N=40)
    assert abs(g40 - g10) < 1e-6


def test_propagator_matches_long_time_expansion(pot9, ctx_q1):
    """At 30 lifetimes the power-law kernel tracks the exact one.

    The residual difference is the next order of the asymptotic series,
    measured at 3.4% here and decaying like 1/t.
    """
    from deltashell.expansion import ETA
    tau = lifetime(ctx_q1.pole_set)
    t = 30 * tau
    g_exact = propagator(0.3, 0.6, t, pot9, N=40)
    basis = ctx_q1.basis
    tail = 0j
    g_exp = 0j
    for p in range(1, 41):
        st_m, st_p = basis.state(-p), basis.state(p)
        tail += st_m(0.3) * st_m(0.6) / (2 * st_m.pole.k ** 3)
        tail += st_p(0.3) * st_p(0.6) / (2 * st_p.pole.k ** 3)
        g_exp += st_p(0.3) * st_p(0.6) * cmath.exp(-1j * st_p.pole.k ** 2 * t)
    g_exp -= ETA * tail * t ** -1.5
    assert abs(g_exact - g_exp) / abs(g_exact) < 5e-2


def test_propagator_validation(pot9):
    with pytest.raises(ValueError):
        propagator(0.3, 0.6, 0.01, pot9)  # below t_min
    with pytest.raises(ValueError):
        propagator(1.5, 0.6, 1.0, pot9)


def test_quadrature_error_gate(pot9, monkeypatch):
    monkeypatch.setattr(oracle, "RAY_PANELS", 3)
    monkeypatch.setattr(oracle, "RAY_MAX_ERROR", 1e-12)
    with pytest.raises(QuadratureError):
        propagator(0.3, 0.6, 0.06, pot9, N=10)


def test_free_limit_ray_against_image_formula():
    """b -> 0: the rotated-ray quadrature alone must reproduce the Dirichlet
    half-line propagator; this pins the 1/pi normalization and orientation.
    """
    pot = DeltaShellPotential(b=1e-12, a=1.0)
    for (r, rp, t) in [(0.3, 0.6, 0.1), (0.5, 0.5, 0.06), (0.2, 0.9, 1.0)]:
        g_ray = propagator(r, rp, t, pot, N=0)
        pref = 1 / cmath.sqrt(4j * math.pi * t)
        g_img = pref * (cmath.exp(1j * (r - rp) ** 2 / (4 * t))
                        - cmath.exp(1j * (r + rp) ** 2 / (4 * t)))
        assert abs(g_ray - g_img) < 1e-8


def test_tilted_contour_referee(pot9, ctx_q6):
    """Independent evaluation of the same Laplace inversion on a contour that
    hugs the spectrum (plus the explicit second-quadrant eigenvalue terms)
    must match the rotated-ray oracle. This certifies the residue bookkeeping
    of the ray representation to near machine precision.
    """
    init = ctx_q6.initial_state
    tau = lifetime(ctx_q6.pole_set)
    t = 0.75 * tau
    delta = 0.0087
    smax = math.sqrt(42.0 / (t * math.sin(2 * delta)))
    w_r = cmath.exp(-1j * delta)
    w_l = cmath.exp(1j * (math.pi - delta))

    def ray_piece(w):
        def f_re(s):
            k = s * w
            v = resolvent_matrix_element(k, pot9, init) * cmath.exp(-1j * k * k * t) * 2 * k * w
            return v.real

        def f_im(s):
            k = s * w
            v = resolvent_matrix_element(k, pot9, init) * cmath.exp(-1j * k * k * t) * 2 * k * w
            return v.imag

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            re = quad(f_re, 0, smax, epsabs=1e-12, epsrel=1e-10, limit=20000)[0]
            im = quad(f_im, 0, smax, epsabs=1e-12, epsrel=1e-10, limit=20000)[0]
        return complex(re, im)

    hairpin = (-ray_piece(w_r) + ray_piece(w_l)) / (2j * math.pi)
    # second-quadrant poles are bound-state-like complex eigenvalues above
    # this contour; they enter explicitly here (the rotated ray hides them)
    eigen = 0j
    for st in ctx_q6.basis.improper:
        k = st.pole.k
        if k.imag > abs(k.real) * math.tan(delta):
            c = _overlap_quadrature(np.array([k]), np.array([st.A]), init)[0]
            eigen += c * c * cmath.exp(-1j * k * k * t)
    tilted = hairpin + eigen
    ray = survival_amplitude_exact(pot9, init, t, N=60)
    assert abs(tilted - ray) < 1e-9


def test_extended_pole_tail(pot9):
    k = _proper_poles(pot9, 300)
    assert k.shape == (300,)
    assert np.all(np.diff(k.real) > 2)
    ref = lambert_w_proper_poles(pot9.b, pot9.a, 300)
    np.testing.assert_allclose(k, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0], ids=["a0.25", "a1", "a4"])
@pytest.mark.parametrize("b", [0.05, 0.3, 3.0, 4.5 * math.pi, 30.0, 224.0, 1000.0],
                         ids=["b0.05", "b0.3", "b3", "b4.5pi", "b30", "b224", "b1000"])
def test_oracle_poles_against_referees(b, a):
    """The seeded, winding-certified proper poles against the Lambert W roots
    and against the pole equation in 50-digit arithmetic at every root.
    """
    pot = DeltaShellPotential(b=b, a=a)
    for n in (1, 40, 300):
        k = _proper_poles(pot, n)
        np.testing.assert_allclose(k, lambert_w_proper_poles(b, a, n), rtol=1e-13, atol=0)
    with mpmath.workdps(50):
        exact = [abs(2 * z - b * (mpmath.exp(2j * z * a) - 1))
                 for z in (mpmath.mpc(kk.real, kk.imag) for kk in k)]
    assert np.all(np.array(exact, dtype=float) < _acceptance_bound(k, pot.b, pot.a))


def test_oracle_poles_reject_a_corrupted_certificate(monkeypatch):
    """A winding count that disagrees with the solved roots is a typed error,
    for the oracle and for find_poles, which share the proper-family solve.
    A cached pole set skips its certificate, so the cache is cleared first.
    """
    pot = DeltaShellPotential(b=2.5, a=1.0)
    _proper_poles.cache_clear()
    for n in (1, 40):
        monkeypatch.setattr(poles, "count_roots_in_rectangle", lambda rect, pot, n=n: n + 1)
        with pytest.raises(CompletenessError, match="winding count"):
            _proper_poles(pot, n)
        with pytest.raises(CompletenessError, match="winding count .* proper rectangle"):
            find_poles(pot, n, 1)


def test_verification_solves_the_poles_once(monkeypatch):
    """run_verification's one find_poles call feeds the expansion; the oracle
    check reuses its cached proper poles, so the proper rectangle
    [0, 40.5 pi] x [-2.315, 0] is counted once. The statuses stay all-pass.
    """
    calls, rects = [], []
    count = poles.count_roots_in_rectangle

    def counted(*args):
        calls.append(args)
        return poles.find_poles(*args)

    def recorded(rect, pot):
        rects.append(rect)
        return count(rect, pot)

    # every binding run_verification could reach, so a second solve anywhere is counted
    for mod in (verify, expansion, oracle):
        if hasattr(mod, "find_poles"):
            monkeypatch.setattr(mod, "find_poles", counted)
    monkeypatch.setattr(poles, "count_roots_in_rectangle", recorded)
    _proper_poles.cache_clear()
    results = verify.run_verification(DeltaShellPotential(b=20.0, a=1.0))
    assert len(calls) == 1
    proper = [r for r in rects if r[:2] == (0.0, 40.5 * math.pi)]
    assert len(proper) == 1 and proper[0][2:] == pytest.approx((-2.315, 0.0), abs=1e-3)
    assert len(results) == 7 and all(r.status == "pass" for r in results)


def test_exact_long_time_cube_law(pot9, ctx_ss):
    """The inverse-cube decay emerges from the exact contour integral alone."""
    from deltashell import lifetime as _lifetime
    tau = _lifetime(ctx_ss.pole_set)
    ts = np.geomspace(50 * tau, 100 * tau, 12)
    S = [abs(survival_amplitude_exact(pot9, ctx_ss.initial_state, float(t), N=10)) ** 2
         for t in ts]
    slope = np.polyfit(np.log(ts), np.log(S), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)


def test_exact_reproduces_oscillation_phases(pot9, ctx_ss):
    """The exact survival probability rings in phase with the expansion: at
    each beat maximum of the expansion the exact value exceeds both adjacent
    expansion-minima locations.
    """
    from deltashell import lifetime as _lifetime
    from deltashell import survival_series
    tau = _lifetime(ctx_ss.pole_set)
    t = np.linspace(0.2 * tau, 2 * tau, 1200)
    S = survival_series(pot9, ctx_ss.initial_state, t, 40, context=ctx_ss).S
    i_max = [i for i in range(1, len(S) - 1) if S[i] > S[i - 1] and S[i] > S[i + 1]]
    i_min = [i for i in range(1, len(S) - 1) if S[i] < S[i - 1] and S[i] < S[i + 1]]
    assert len(i_max) >= 8

    def s_exact(i):
        return abs(survival_amplitude_exact(pot9, ctx_ss.initial_state,
                                            float(t[i]), N=40)) ** 2

    for im in i_max[1:6]:
        lower = max(j for j in i_min if j < im)
        upper = min(j for j in i_min if j > im)
        peak = s_exact(im)
        assert peak > s_exact(lower)
        assert peak > s_exact(upper)


def test_gauss_kronrod_constants():
    """K15 integrates x^d on [-1, 1] exactly through degree 22, G7 through 13."""
    x, wk, wg = expansion.GK_NODES, expansion.GK_KRONROD, expansion.GK_GAUSS
    assert np.all(np.diff(x) > 0) and np.count_nonzero(wg) == 7
    exact = [2 / (d + 1) if d % 2 == 0 else 0.0 for d in range(25)]
    for d in range(23):
        assert x ** d @ wk == pytest.approx(exact[d], abs=1e-15)
    for d in range(14):
        assert x ** d @ wg == pytest.approx(exact[d], abs=1e-15)
    assert abs(x ** 24 @ wk - exact[24]) > 1e-9
    assert abs(x ** 14 @ wg - exact[14]) > 1e-5


@pytest.mark.parametrize("tol", [{}, {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 4000}],
                         ids=["default", "tight"])
def test_quad_error_estimate_is_honest(tol):
    """e^{-x^2} cos(40 x) over [-6, 6] is sqrt(pi) e^{-400}: all cancellation."""
    value, estimate = expansion.quad(lambda x: np.exp(-x * x) * np.cos(40 * x), -6.0, 6.0,
                                     **tol)
    assert abs(value - math.sqrt(math.pi) * math.exp(-400)) <= estimate


def test_quad_limit_caps_panels():
    """x^{-1/2} on [0, 1] never meets a 1e-14 bound; the panel count stops at limit."""
    sizes = []

    def f(x):
        sizes.append(x.size)
        return x ** -0.5

    value, estimate = expansion.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=0.0, limit=40)
    assert sizes[0] == 15 and max(sizes) <= 15 * 40
    assert estimate > 1e-14 and value == pytest.approx(2.0, rel=1e-2)
    # breakpoints alone may exceed the limit: those panels stay, none is split
    sizes.clear()
    expansion.quad(f, 0.0, 1.0, points=[0.25, 0.5, 0.75], epsabs=1e-14, epsrel=0.0, limit=2)
    assert sizes == [60]


@pytest.mark.parametrize("b", SWEEP_B)
def test_ray_integral_against_scipy_quad(b, monkeypatch):
    """The Gauss-Kronrod ray integral against QUADPACK's scalar adaptive rule."""
    from scipy.integrate import quad as scipy_quad
    pot = DeltaShellPotential(b=b, a=1.0)
    monkeypatch.setattr(oracle, "RAY_EPSABS", 1e-14)
    monkeypatch.setattr(oracle, "RAY_EPSREL", 1e-13)
    for init in SWEEP_STATES.values():
        for t in SWEEP_T:
            def integrand(z):
                if z == 0.0:
                    return 0j
                return z * math.exp(-z * z * t) * resolvent_matrix_element(
                    GAMMA_ROTATION * z, pot, init)

            Z = math.sqrt(oracle.RAY_CUTOFF / t)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                ref = scipy_quad(integrand, -Z, Z, complex_func=True, points=[0.0],
                                 epsabs=oracle.RAY_EPSABS, epsrel=oracle.RAY_EPSREL,
                                 limit=oracle.RAY_PANELS)[0] / math.pi
            ray = _ray_integral(lambda k: resolvent_matrix_element(k, pot, init), t,
                                oracle.T_MIN)
            assert abs(ray - ref) < 1e-14, (init.k_c, t)


def test_oracle_sweep_raises_no_warning(pot9):
    """No numpy RuntimeWarning anywhere on the sweep, nor at the delta-resolution
    times, where |z| reaches 630-11500 on the ray and an unguarded branch of
    the resolvent would overflow.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in SWEEP_B:
            pot = DeltaShellPotential(b=b, a=1.0)
            for init in SWEEP_STATES.values():
                for t in SWEEP_T:
                    assert np.isfinite(survival_amplitude_exact(pot, init, t))
        for init, t in ((box_state(6), 1e-4), (SWEEP_STATES["kc"], 3e-7)):
            assert np.isfinite(survival_amplitude_exact(pot9, init, t, 80, t_min=1e-7))


def test_array_kernels_match_scalar_calls(pot9):
    """Array arguments give the scalar values elementwise (numpy's array and
    0-d loops may differ in the last bit); scalars give a complex.
    """
    k = np.array([0.7 + 0.2j, 2.0 + 0j, -1.3 + 0.8j, 3.7 - 0.4j, 1e-6 + 0j, 0j])
    init = box_state(2)
    for r, rp in [(0.3, 0.6), (0.0, 0.5), (0.4, 1.3), (1.2, 1.4)]:
        np.testing.assert_allclose([green_function(r, rp, kk, pot9) for kk in k],
                                   green_function(r, rp, k, pot9), rtol=1e-15, atol=0)
    # beyond the shell phi keeps full accuracy as k -> 0: G+(1.2, 1.4; 1e-6) in 40
    # digits, phi(r > a) matched to sin(ka)/k as p e^{ik(r-a)} + q e^{-ik(r-a)}
    with mpmath.workdps(40):
        kk, b, r, rp = (mpmath.mpf(x) for x in (1e-6, pot9.b, 1.2, 1.4))
        s, c = mpmath.sin(kk), mpmath.cos(kk)
        p_out, q_out = ((s / kk + sign * (-1j * c / kk - b * s / kk ** 2)) / 2 for sign in (1, -1))
        phi = p_out * mpmath.exp(1j * kk * (r - 1)) + q_out * mpmath.exp(-1j * kk * (r - 1))
        jost = 1 - b / (2 * kk) * mpmath.expm1(2j * kk)
        exact = complex(-phi * mpmath.exp(1j * kk * rp) / jost)
    assert abs(green_function(1.2, 1.4, 1e-6, pot9) - exact) < 1e-15 * abs(exact)
    np.testing.assert_allclose([jost_function(kk, pot9) for kk in k],
                               jost_function(k, pot9), rtol=1e-15, atol=0)
    np.testing.assert_allclose([resolvent_matrix_element(kk, pot9, init) for kk in k[:-1]],
                               resolvent_matrix_element(k[:-1], pot9, init), rtol=1e-15, atol=0)
    assert type(green_function(0.3, 0.6, 2.0, pot9)) is complex
    assert type(jost_function(2.0, pot9)) is complex
    assert type(resolvent_matrix_element(2.0, pot9, init)) is complex
    with pytest.raises(NearPoleError):
        green_function(0.3, 0.6, np.array([2.0, find_poles(pot9, 1, 1).proper[0].k]), pot9)
    with pytest.raises(ValueError):
        resolvent_matrix_element(k, pot9, init)  # k = 0 is removable, not evaluated


def test_oracle_sums_only_the_residues_above_the_ray(referee):
    """A proper pole below the rotated ray is carried by the ray integral; adding its
    residue too gave S = 20.65 at b = 0.0317, t = 0.05, where the referee has 0.879.
    Gate: perfbench's oracle gate, 2e-9 + 3 x the referee's estimate, on A.
    """
    for b in (0.0317, 0.0320, 0.02, 0.005):
        pot = DeltaShellPotential(b=b, a=1.0)
        A = np.array([survival_amplitude_exact(pot, box_state(1), float(t)) for t in RAY_T])
        A_ref, est = _box1_referee(referee, b)
        assert np.all(np.abs(A - A_ref) <= 2e-9 + 3 * est), b


def test_propagator_below_the_ray_integrates_to_the_survival_amplitude(referee):
    """<psi_0| g(t) |psi_0> by a 24-node Gauss-Legendre rule in r and r' at b = 0.02,
    where k_1 lies below the ray, against the referee's A(t = 0.1).
    """
    pot, t = DeltaShellPotential(b=0.02, a=1.0), 0.1
    x, w = np.polynomial.legendre.leggauss(24)
    r = (x + 1) / 2
    i, j = np.triu_indices(24)
    g = np.zeros((24, 24), dtype=complex)
    g[i, j] = g[j, i] = [propagator(float(r[p]), float(r[q]), t, pot) for p, q in zip(i, j)]
    weighted = w / 2 * box_state(1).amplitude(r)
    A_ref, est = _box1_referee(referee, 0.02)
    assert abs(weighted @ g @ weighted - A_ref[1]) <= 2e-9 + 3 * est[1]


def test_oracle_across_the_ray_threshold_matches_the_referee_or_refuses(referee):
    """Within |b/B_RAY - 1| <= 1e-3 the first pole nears the ray and so the ray
    integrand's path: each call returns the referee's amplitude or raises, never a
    silent wrong number.
    """
    returned = 0
    for rel in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3):
        b = B_RAY * (1 + rel)
        A_ref, est = _box1_referee(referee, b)
        for t, a_ref, e in zip(RAY_T, A_ref, est):
            try:
                A = survival_amplitude_exact(DeltaShellPotential(b=b, a=1.0), box_state(1), t)
            except DeltaShellError:
                continue
            returned += 1
            assert abs(A - a_ref) <= 2e-9 + 3 * e, (b, t)
    assert returned >= 8  # away from the ray the values are there to check


@settings(max_examples=100, deadline=None)
@given(log_b=st.floats(math.log(1e-3), math.log(300.0)), a=st.sampled_from([0.5, 1.0, 2.0]),
       q=st.integers(1, 6), t=st.floats(0.05, 5.0))
def test_oracle_amplitude_is_bounded_across_the_ray_threshold(log_b, a, q, t):
    """|A(t)| <= 1 for the dissipative shell, on both sides of ab = B_RAY; the draws
    the threshold gate refuses (|ab/B_RAY - 1| < 1e-3) are skipped.
    """
    b = math.exp(log_b)
    assume(abs(a * b / B_RAY - 1) >= 1e-3)
    A = survival_amplitude_exact(DeltaShellPotential(b=b, a=a), box_state(q, a), t)
    assert abs(A) <= 1 + 1e-9
