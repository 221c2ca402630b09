"""Exact, expansion-free reference dynamics.

Closed-form outgoing Green's function and Jost function for the shell (the
Jost factor is poles._jost_factor, the winding counts' integrand), the
exact propagator as a proper-pole residue sum plus a rotated-ray quadrature

    g(r,r';t) = sum_{p>=1, arg k_p > -pi/4} u_p(r) u_p(r') e^{-i k_p^2 t}
              + (1/pi) * integral_{-inf}^{inf} G+(r,r'; gamma z) e^{-z^2 t} z dz,

gamma = sqrt(-i) = e^{-i pi/4}, and the exact survival amplitude with the
spatial integrals done in closed form so only the single z quadrature
remains. The rotated ray hides the second-quadrant eigenvalue terms of the
non-self-adjoint Hamiltonian: rotating the spectral hairpin onto the ray
sweeps those poles with residues exactly cancelling their explicit
discrete-spectrum contributions, which is why only proper poles appear. Turning
the real axis onto the ray crosses only the sector between them, so only the
proper poles above the ray (poles._above_ray) give residues; the ray integral
carries the others.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .basis import _state_products, normalization_coefficient
from .errors import NearPoleError, QuadratureError
from .model import DeltaShellPotential, SineInitialState
from .poles import _above_ray, _jost_factor, _proper_poles, _readonly
from .expansion import (_check_times, _overlap_quadrature, _overlaps, _pole_sum,
                        _scalar_or_array, quad)

GAMMA_ROTATION = cmath.exp(-1j * math.pi / 4)  # sqrt(-i), principal branch
NEAR_POLE_TOL = 1e-13
RAY_CUTOFF = 40.0  # the ray ends at |z| = sqrt(RAY_CUTOFF / t), where e^{-z^2 t} = e^{-40}
T_MIN = 0.05          # default smallest supported propagation time
RAY_EPSABS = 1e-13    # the ray quadrature's absolute and relative targets
RAY_EPSREL = 1e-11
RAY_PANELS = 4000     # Gauss-Kronrod panels per ray integral at t >= T_MIN
RAY_MAX_ERROR = 1e-9  # estimated-error gate


def jost_function(k, pot: DeltaShellPotential):
    """F(k) = 1 - (b/2k)(e^{2ika} - 1); zeros coincide with the pole equation roots.

    Takes a scalar (returns a complex) or an array of k. The removable value
    at the origin, F(0) = 1 - i b a, is returned explicitly.
    """
    return _scalar_or_array(_jost_factor(np.asarray(k, dtype=complex), pot.a, pot.b))


def _phi_regular(k, r: float, pot: DeltaShellPotential):
    """Regular solution with phi(0) = 0, phi'(0) = 1 (delta jump matched for r > a)."""
    a, b = pot.a, pot.b
    k = np.asarray(k, dtype=complex)
    zero = k == 0
    kk = np.where(zero, 1, k)
    if r <= a:
        return _scalar_or_array(np.where(zero, r, np.sin(kk * r) / kk))
    # the free solution plus the kick -i b phi(a) from the jump, free of 1/k^2 cancellation
    outside = np.sin(kk * r) / kk - 1j * b * np.sin(kk * a) * np.sin(kk * (r - a)) / (kk * kk)
    # zero-energy limit past the jump at k = 0
    return _scalar_or_array(np.where(zero, a + (1 - 1j * b * a) * (r - a), outside))


def _f_jost_solution(k, r: float, pot: DeltaShellPotential):
    """Jost solution, purely outgoing e^{ikr} beyond the shell."""
    k = np.asarray(k, dtype=complex)
    f = np.exp(1j * k * r)
    if r < pot.a:
        f = f * _jost_factor(k, pot.a - r, pot.b)
    return _scalar_or_array(f)


def green_function(r: float, rp: float, k, pot: DeltaShellPotential):
    """G+(r, r'; k) = -phi(k, r_<) f(k, r_>) / F(k), at a scalar k or an array of k."""
    if r < 0 or rp < 0:
        raise ValueError("coordinates must be non-negative")
    k = np.asarray(k, dtype=complex)
    F = _jost_factor(k, pot.a, pot.b)
    if np.any(np.abs(F) < NEAR_POLE_TOL):
        i = np.argmin(np.abs(F))
        raise NearPoleError(f"Jost function vanishes at k={k.flat[i]} to "
                            f"{np.abs(F).flat[i]:.1e}")
    rlo, rhi = (r, rp) if r <= rp else (rp, r)
    return _scalar_or_array(-_phi_regular(k, rlo, pot) * _f_jost_solution(k, rhi, pot) / F)


def residue_at_pole(pole_k, r: float, rp: float, pot: DeltaShellPotential):
    """Numerical residue of G+ at a pole, or at an array of poles, by a
    midpoint-trapezoid rule on 128 nodes of the circle of radius 0.05 around it.
    """
    ring = 0.05 * np.exp(2j * math.pi * (np.arange(128) + 0.5) / 128)
    G = green_function(r, rp, np.add.outer(pole_k, ring), pot)
    return _scalar_or_array(np.sum(G * ring, axis=-1) / 128)


def _ray_integral(f, t: float, t_min: float) -> complex:
    """(1/pi) integral_{-Z}^{Z} f(gamma z) e^{-z^2 t} z dz on the rotated ray, Z^2 = RAY_CUTOFF/t.

    f takes the array of ray points gamma z; z = 0 is a breakpoint and never a node.
    The ray grows like t^{-1/2}, and so does the panel cap: RAY_PANELS at t >= T_MIN.
    """
    _check_times(t, t_min)
    Z = math.sqrt(RAY_CUTOFF / t)
    limit = math.ceil(RAY_PANELS * max(1.0, math.sqrt(T_MIN / t)))
    value, estimate = quad(lambda z: z * np.exp(-z * z * t) * f(GAMMA_ROTATION * z),
                           -Z, Z, points=[0.0], epsabs=RAY_EPSABS, epsrel=RAY_EPSREL,
                           limit=limit)
    if estimate > RAY_MAX_ERROR:
        raise QuadratureError(f"contour quadrature error estimate {estimate:.2e} exceeds "
                              f"{RAY_MAX_ERROR:.2e}")
    return complex(value) / math.pi


@lru_cache(maxsize=16)
def _state_arrays(pot: DeltaShellPotential, n: int):
    """(k_p, A_p) of the first n proper states above the ray as read-only arrays (cached)."""
    k = _proper_poles(pot, n)
    k = _readonly(k[_above_ray(k)])
    return k, _readonly(normalization_coefficient(k, pot))


def propagator(r: float, rp: float, t: float, pot: DeltaShellPotential,
               N: int = 40, t_min: float = T_MIN) -> complex:
    """Exact retarded propagator g(r, r'; t) for r, r' <= a.

    Sums the residues of the first N proper poles above the ray; terms beyond the
    e^{-Gamma_p t} cutoff contribute nothing, so N = 40 is converged for t of order
    the lifetime. N = 0 skips the residue sum (free-particle-like potentials).
    Times below t_min raise ValueError.
    """
    if r > pot.a or rp > pot.a:
        raise ValueError("propagator supported inside the interaction region")
    ray = _ray_integral(lambda k: green_function(r, rp, k, pot), t, t_min)
    k, A = _state_arrays(pot, N)
    return _pole_sum(_state_products(k, A, r, rp), k, t) + ray


def resolvent_matrix_element(k, pot: DeltaShellPotential, init: SineInitialState):
    """I(k) = <psi|(k^2 - H)^{-1}|psi> for the sine state, in closed form.

    Built by solving (k^2 - H) chi = psi with chi(0) = 0 and outgoing
    matching at the shell; all spatial integrals are elementary. Takes a
    scalar (returns a complex) or an array of k. Evaluated in an
    exponential-scaled form so no overflow occurs anywhere on the rotated ray
    (k = 0 itself is excluded; the ray integrand vanishes there anyway).
    """
    b, a = pot.b, pot.a
    kc, Nc = init.k_c, init.N_c
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise ValueError("k = 0 is a removable point; evaluate nearby instead")
    den = k * k - kc * kc
    sc, cc = math.sin(kc * a), math.cos(kc * a)
    drive = Nc * (kc * cc - 1j * (k + b) * sc) / den  # T_c - i(k+b) S_c
    alpha_plus = 0.5 * (-k * sc - 1j * kc * cc)
    alpha_minus = 0.5 * (-k * sc + 1j * kc * cc)
    # |e^{2ika}| > 1 below the real axis: there divide numerator and denominator
    # by e^{2ika}; each branch gets k = 0 in place of the other's arguments
    lower = (k * a).imag < 0
    q = np.exp(-2j * np.where(lower, k, 0) * a)
    e2 = np.expm1(2j * np.where(lower, 0, k) * a)  # e^{2ika} - 1, stable near the origin
    core = np.where(lower, -2 * (alpha_plus + q * alpha_minus) / (2 * k * q + b * (q - 1)),
                    -2 * ((alpha_plus + alpha_minus) + e2 * alpha_plus) / (2 * k - b * e2))
    sine_norm = a / 2 - math.sin(2 * kc * a) / (4 * kc)
    return _scalar_or_array(drive * Nc * core / den + Nc * Nc * sine_norm / den)


@lru_cache(maxsize=32)
def _oracle_overlaps(pot: DeltaShellPotential, init: SineInitialState, n: int):
    """Squared overlaps c_p^2 of the initial state with the states of _state_arrays(pot, n).

    The first 60 are computed by quadrature (independent of the expansion
    module's closed form); the deep tail, which only matters for
    sub-lifetime completeness checks, uses the closed form.
    """
    k, A = _state_arrays(pot, n)
    c = np.concatenate([_overlap_quadrature(k[:60], A[:60], init),
                        _overlaps(k[60:], A[60:], init)[0]])
    return _readonly(c * c)  # cached and shared between calls


def survival_amplitude_exact(pot: DeltaShellPotential, init: SineInitialState, t: float,
                             N: int = 40, t_min: float = T_MIN) -> complex:
    """A(t) = <psi(0)| g(t) |psi(0)> with the double space integral done analytically:
    the residue sum over the first N proper poles above the ray plus the ray integral.
    Times below t_min raise ValueError.
    """
    ray = _ray_integral(lambda k: resolvent_matrix_element(k, pot, init), t, t_min)
    return _pole_sum(_oracle_overlaps(pot, init, N), _state_arrays(pot, N)[0], t) + ray
