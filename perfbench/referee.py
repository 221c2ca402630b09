"""Independent referees for the delta-shell benchmark.

Nothing here imports deltashell. The poles come from the Lambert W function:
with u = 2k + b the pole equation 2k - b (e^{2ika} - 1) = 0 becomes
w e^w = z, w = -i a u, z = -i a b e^{-iab}, so every root is
k_m = (i W_m(z) / a - b) / 2 for one branch m of W. The resonant-state
normalization and the overlaps are the elementary integrals written out
directly (not the simplified closed forms the package uses), and the
survival amplitude is the Moshinsky-function pole expansion of
Garcia-Calderon, Mateos & Moshinsky, PRL 74, 337 (1995):

    A(t) = sum_{p = +-1 .. +-N} C_p^2 * (1/2) w(-i e^{-i pi/4} k_p sqrt(t)),

with w the Faddeeva function.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import lambertw, wofz

EPS = 2.220446049250313e-16
ROT = np.exp(-0.25j * math.pi)
ETA = 1.0 / np.sqrt(4j * math.pi)   # the t^{-3/2} coefficient's prefactor, principal branch


def residual_noise_floor(k, b, a):
    """Rounding noise of the pole residual at k in double precision.

    The phase 2|k|a of e^{2ika} carries a relative rounding error of a few
    ulps, so the exponential term's absolute error grows like |k|.
    """
    k = np.asarray(k)
    e = np.abs(np.exp(2j * k * a))
    return EPS * (2 * np.abs(k) + b * (1 + e) * (2 * np.abs(k) * a + 2))


@lru_cache(maxsize=256)
def poles(b: float, a: float, n: int):
    """(proper, improper) first n poles of each family, sorted by |Re k|.

    Cached: the arrays returned are shared and must not be modified.

    proper: Re k > 0 (fourth quadrant); improper: Re k < 0 (second and third
    quadrants, and the real axis at a spectral singularity).
    """
    z = -1j * a * b * np.exp(-1j * a * b)
    lo = -(n + int(a * b / (2 * math.pi)) + 6)
    hi = n + 6
    k = (1j * lambertw(z, np.arange(lo, hi + 1)) / a - b) / 2
    # polish on the pole equation itself (two Newton steps; W is already
    # accurate to a few ulps, this only removes the rounding of u -> k)
    for _ in range(2):
        e2 = np.exp(2j * k * a)
        f = 2 * k - b * (e2 - 1)
        fp = 2 - 2j * a * b * e2
        k = k - f / fp
    k = k[np.abs(k) * a > 1e-6]  # the removable zero at k = 0 is not a pole
    proper = np.sort_complex(k[k.real > 0])
    improper = k[k.real < 0]
    improper = improper[np.argsort(-improper.real)]
    if proper.size < n + 1 or improper.size < n + 1:
        raise RuntimeError(f"Lambert W branches gave {proper.size}+{improper.size} poles, "
                           f"need {n + 1} per family")
    return proper[:n], improper[:n]


def _lifetime(k1):
    """1 / Gamma_1 with Gamma_1 = -2 Im(k_1^2), k_1 the first proper pole."""
    return 1.0 / (-2 * (k1 ** 2).imag)


def lifetime(b, a):
    return _lifetime(poles(b, a, 1)[0][0])


def _sin_over(x, a):
    """sin(x a) / x, continued through x = 0."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x * a) < 1e-4
    xs = np.where(small, 1.0, x)
    y = (x * a) ** 2
    return np.where(small, a * (1 - y / 6 * (1 - y / 20)), np.sin(xs * a) / xs)


def state_amplitude_sq(k, a):
    """A_p^2 from the normalization  int_0^a A^2 sin^2(kr) dr + i A^2 sin^2(ka)/(2k) = 1."""
    k = np.asarray(k, dtype=complex)
    interior = a / 2 - np.sin(2 * k * a) / (4 * k)
    surface = 1j * np.sin(k * a) ** 2 / (2 * k)
    return 1.0 / (interior + surface)


def sine_overlap(k, a, k_c):
    """int_0^a sin(k_c r) sin(k r) dr."""
    k = np.asarray(k, dtype=complex)
    return 0.5 * (_sin_over(k - k_c, a) - _sin_over(k + k_c, a))


def overlap_sq(k, a, k_c, n_c, amp_sq=None):
    """C_p^2 = (int_0^a N_c sin(k_c r) A_p sin(k_p r) dr)^2; A_p^2 from the
    normalization integral unless given."""
    if amp_sq is None:
        amp_sq = state_amplitude_sq(k, a)
    return n_c * n_c * amp_sq * sine_overlap(k, a, k_c) ** 2


def moshinsky_terms(k, c2, t):
    """C_p^2 (1/2) w(-i e^{-i pi/4} k_p sqrt(t)), shape k.shape + (len(t),)."""
    return c2[..., None] * 0.5 * wofz(-1j * ROT * k[..., None] * np.sqrt(t))


class Survival:
    """Moshinsky-function survival amplitude for one (b, a, k_c, N_c).

    The pole table is solved once to depth n_ref pairs; row 0 of k and c2 is
    the proper family, row 1 the improper one.
    """

    def __init__(self, b, a, k_c, n_c, n_ref):
        self.n_ref = n_ref
        kp, km = poles(b, a, n_ref)
        self.k = np.stack([kp, km])                       # (2, n_ref)
        self.c2 = overlap_sq(self.k, a, k_c, n_c)
        self.psi_a = n_c * math.sin(k_c * a)

    def lifetime(self):
        return _lifetime(self.k[0, 0])

    def partial_amplitudes(self, t, depths):
        """A(t) truncated at each depth in `depths` (pairs), shape (len(depths), len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        terms = moshinsky_terms(self.k, self.c2, t)         # (2, n, T)
        csum = np.cumsum(terms.sum(axis=0), axis=0)        # (n, T)
        return np.stack([csum[d - 1] for d in depths])

    def amplitude(self, t):
        """(A, estimated absolute error of A) at depth n = n_ref.

        For psi(a) = 0 the truncation remainder falls like N^-3 and the
        estimate is |A(n) - A(n/2)|. For psi(a) != 0 it falls like 1/N, so the
        value is Richardson-extrapolated, 2 A(n) - A(n/2), and the estimate is
        the change of that extrapolation from depth n/2.
        """
        n = self.n_ref
        if abs(self.psi_a) < 1e-9:
            a_n, a_h = self.partial_amplitudes(t, [n, n // 2])
            return a_n, np.abs(a_n - a_h)
        a_n, a_h, a_q = self.partial_amplitudes(t, [n, n // 2, n // 4])
        r_n, r_h = 2 * a_n - a_h, 2 * a_h - a_q
        return r_n, np.abs(r_n - r_h)

    def closure(self, n):
        return 0.5 * self.c2[:, :n].sum()


def exact_residuals(ks, b, a, dps=50):
    """|2k - b(e^{2ika} - 1)| at the given double-precision k, evaluated with mpmath."""
    import mpmath as mp
    out = []
    with mp.workdps(dps):
        bb, aa = mp.mpf(b), mp.mpf(a)
        for k in ks:
            kk = mp.mpc(float(k.real), float(k.imag))
            out.append(float(abs(2 * kk - bb * (mp.exp(2j * kk * aa) - 1))))
    return np.array(out)


def residual_gate(k, b, a):
    """The acceptance the package documents for a returned pole: residual below
    max(1e-12, 8 x noise floor), plus the noise of evaluating it in double precision."""
    return np.maximum(1e-12, 10 * residual_noise_floor(k, b, a))


def exp_tail_amplitude(k, c2, t):
    """The exponential + t^{-3/2} expansion the package documents, from given poles.

    k and c2 have shape (2, N): row 0 the proper family, row 1 the improper one.
    """
    t = np.asarray(t, dtype=float)
    a_exp = (c2[0, :, None] * np.exp(-1j * (k[0, :, None] ** 2) * t)).sum(axis=0)
    d = (c2 / (2 * k ** 3)).sum()
    return a_exp - ETA * d * t ** -1.5


def transition_time(k, c2):
    """Root of log|C_1^2| - G_1 t/2 = log|eta D| - 1.5 log t on [tau, 200 tau], by bisection."""
    g1 = 4 * k[0, 0].real * -k[0, 0].imag
    lhs = math.log(abs(c2[0, 0]))
    rhs = math.log(abs(ETA * (c2 / (2 * k ** 3)).sum()))
    gap = lambda t: (lhs - g1 * t / 2) - (rhs - 1.5 * math.log(t))  # noqa: E731
    lo, hi = 1 / g1, 200 / g1
    if gap(lo) * gap(hi) > 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def beat_frequency(t, S, f_max):
    """Dominant frequency of S(t) after dividing out its best-fit exponential.

    t may be non-uniform: a Hann-windowed discrete Fourier sum with trapezoid
    weights, scanned on a fine grid from two cycles per window up to f_max.
    """
    t, S = np.asarray(t, float), np.asarray(S, float)
    resid = S / np.exp(np.polyval(np.polyfit(t, np.log(S), 1), t))
    dt = np.gradient(t)
    span = t[-1] - t[0]
    win = 0.5 - 0.5 * np.cos(2 * math.pi * (t - t[0]) / span)
    sig = (resid - np.average(resid, weights=dt)) * win * dt
    f = np.linspace(2 / span, f_max, 4000)
    power = np.abs(np.exp(2j * math.pi * np.outer(f, t)) @ sig)
    return float(f[np.argmax(power)])
