"""Resonant-state expansion of the decay dynamics.

Survival amplitude (both pole families, real initial states):

    A(t) =  sum_{p>=1} C_p Cbar_p e^{-i E_p t} e^{-G_p t / 2}
          - eta * sum_{p>=1} [ C_{-p}Cbar_{-p}/(2 k_{-p}^3)
                             + C_p Cbar_p/(2 k_p^3) ] * t^{-3/2}

with eta = (4 pi i)^{-1/2} on the principal branch. The expansion is a
long-time / exponential-regime representation; output below ~0.1 lifetimes is
extrapolation. Every sum reads the (k, C) arrays of the pole and overlap sets,
truncated to N pairs by one check (basis._pair_count).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .basis import ResonantBasis, _pair_count, build_basis
from .errors import DeltaShellError, NoTransitionError
from .model import DeltaShellPotential, SineInitialState
from .poles import PoleSet, _above_ray, _readonly, find_poles

ETA = 1.0 / cmath.sqrt(4j * math.pi)  # = e^{-i pi/4} / (2 sqrt(pi))
OVERLAP_FALLBACK_REL = 1e-6


# QUADPACK's 7/15-point Gauss-Kronrod pair on [-1, 1] (Piessens et al. 1983):
# Kronrod nodes and weights from the outermost node to the centre; the Gauss
# nodes are every second one, starting at the second.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
# the 15 nodes in ascending order, with the Kronrod weights and the Gauss weights
# (zero off the 7 Gauss nodes)
GK_NODES = np.concatenate([-np.array(_XK), np.array(_XK[-2::-1])])
GK_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
GK_GAUSS = np.concatenate([_WG, _WG[-2::-1]])


def quad(func, a, b, points=(), epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """(integral of func over [a, b], error estimate) by adaptive 7/15-point Gauss-Kronrod.

    func maps an array of real nodes to an array of real or complex values;
    each pass calls it once, on the 15 nodes of every open panel. The panels
    start at [a, b] cut at the breakpoints `points` inside it. A panel's
    error estimate is |K15 - G7|; while the summed estimate exceeds
    max(epsabs, epsrel |total|), every panel above its share of that bound
    (in proportion to its length) is bisected, largest estimate first, as long
    as the panel count stays within `limit`. The rest are kept as they are.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = np.unique([a, b, *(p for p in points if a < p < b)])
    lo, hi = edges[:-1], edges[1:]
    n_panels, kept_value, kept_error = lo.size, 0.0, 0.0
    while lo.size:
        half = (hi - lo) / 2
        nodes = ((lo + half)[:, None] + half[:, None] * GK_NODES).ravel()
        f = np.asarray(func(nodes)).reshape(lo.size, GK_NODES.size)
        kronrod = half * (f @ GK_KRONROD)
        error = np.abs(half * (f @ (GK_KRONROD - GK_GAUSS)))
        total, total_error = kept_value + kronrod.sum(), kept_error + error.sum()
        bound = max(epsabs, epsrel * abs(total))
        if total_error <= bound:
            return total, total_error
        over = np.flatnonzero(error > bound * (hi - lo) / (b - a))
        split = np.zeros(lo.size, dtype=bool)
        split[over[np.argsort(-error[over])][:max(limit - n_panels, 0)]] = True
        kept_value = kept_value + kronrod[~split].sum()
        kept_error = kept_error + error[~split].sum()
        mid = (lo + half)[split]
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        n_panels += mid.size
    return kept_value, kept_error


def _check_times(t, floor: float = 0.0):
    """Raise ValueError unless t (a scalar or an array) is finite, > 0 and >= floor everywhere."""
    x = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(x) & (x > 0) & (x >= floor))
    if bad.any():
        raise ValueError(f"need a finite time t > 0{f' and t >= {floor}' if floor else ''}, "
                         f"got t={x[bad][0]}")


def _scalar_or_array(x):
    """A complex for a 0-d result, the array otherwise."""
    return x if np.ndim(x) else complex(x)


def _pole_sum(w, k, t):
    """sum_p w_p e^{-i k_p^2 t} at a scalar t, or the array of sums on an array of times."""
    return _scalar_or_array(np.exp(np.multiply.outer(t, -1j * k * k)) @ w)


def _overlap_quadrature(k, A, init: SineInitialState):
    """integral_0^a psi(r,0) A_p sin(k_p r) dr for arrays k_p, A_p by one Gauss-Legendre rule.

    Independent of the closed form. The integrand is entire in r and
    oscillates at most at |k_p| + k_c over [0, a]; that sets the node count,
    with 16 nodes to spare.
    """
    h = init.a / 2
    n_nodes = int((np.max(np.abs(k), initial=0) + init.k_c) * h) + 16
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    r = h * (x + 1)
    return h * A * (np.sin(np.multiply.outer(k, r)) @ (w * init.amplitude(r)))


def _overlaps(k, A, init: SineInitialState):
    """C_p for arrays k_p, A_p, and the mask of the C_p done by quadrature.

    Uses the closed form
        N_c A_p [-k_p sin(k_c a) cos(k_p a) + k_c sin(k_p a) cos(k_c a)] / (k_p^2 - k_c^2)
    and falls back to quadrature when k_p^2 is within 1e-6 k_c^2 of k_c^2,
    where the closed form cancels catastrophically (this happens for the
    spectral-singularity pole when the initial state is tuned to it).
    """
    kc, a = init.k_c, init.a
    den = k * k - kc * kc
    near = np.abs(den) < OVERLAP_FALLBACK_REL * kc * kc
    num = -k * math.sin(kc * a) * np.cos(k * a) + kc * np.sin(k * a) * math.cos(kc * a)
    c = init.N_c * A * num / np.where(near, 1.0, den)
    if near.any():
        c[near] = _overlap_quadrature(k[near], A[near], init)
    return c, near


@dataclass(frozen=True, eq=False)
class OverlapSet:
    """Overlaps C (read-only, (2, N): row 0 C_p, row 1 C_{-p}, p = 1..N) of one initial state
    and the mask of those done by quadrature; proper, improper, c(p) and provenance are
    views, built once. For the real sine states used here Cbar_p = C_p: C_p Cbar_p = C_p^2.
    """

    initial_state: SineInitialState
    C: np.ndarray
    quadrature: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", _readonly(self.C))
        object.__setattr__(self, "quadrature", _readonly(self.quadrature, bool))

    @cached_property
    def proper(self) -> tuple:
        return tuple(self.C[0].tolist())

    @cached_property
    def improper(self) -> tuple:
        return tuple(self.C[1].tolist())

    @cached_property
    def provenance(self) -> tuple:
        tag = ("closed_form", "quadrature")  # per p: (how C_{-p} was done, how C_p was)
        return tuple((tag[m], tag[p]) for p, m in zip(*self.quadrature.tolist()))

    def c(self, p: int) -> complex:
        if p > 0:
            return self.proper[p - 1]
        if p < 0:
            return self.improper[-p - 1]
        raise ValueError("index 0 is reserved")

    @property
    def n_pairs(self) -> int:
        return self.C.shape[1]


def build_overlaps(basis: ResonantBasis, init: SineInitialState) -> OverlapSet:
    return OverlapSet(init, *_overlaps(*basis._arrays(basis.n_pairs), init))


def _pair_sum(coeffs: OverlapSet, N: int, divisor=1) -> complex:
    """sum_{p=+-1..+-N} C_p Cbar_p / divisor_p as one numpy sum over the (2, N) terms."""
    c = coeffs.C[:, :N]
    return complex(np.sum(c * c / divisor))


def closure_sum(coeffs: OverlapSet, N: int) -> complex:
    """(1/2) sum_{p=1..N} [C_p Cbar_p + C_{-p} Cbar_{-p}].

    The exact limit is 1 for initial states vanishing at the shell; states
    with psi(a) != 0 converge to 1 + i psi(a)^2/(2b) instead (boundary-corner
    anomaly of the closure relation).
    """
    return _pair_sum(coeffs, _pair_count(N, coeffs.n_pairs)) / 2


def tail_coefficient(coeffs: OverlapSet, poles: PoleSet, N: Optional[int] = None) -> complex:
    """D = sum_{p=1..N} [C_{-p}Cbar_{-p}/(2 k_{-p}^3) + C_p Cbar_p/(2 k_p^3)].

    The t^{-3/2} amplitude is -eta * D * t^{-3/2}.
    """
    N = _pair_count(N, coeffs.n_pairs)
    k = np.stack((poles.k_proper[:N], poles.k_improper[:N]))
    return _pair_sum(coeffs, N, 2 * k ** 3)


def survival_amplitude(coeffs: OverlapSet, poles: PoleSet, t: float,
                       N: Optional[int] = None):
    """(A, A_exp, A_tail) at a positive time, or on an array of positive times."""
    _check_times(t)
    N = _pair_count(N, coeffs.n_pairs)
    A_tail = -ETA * tail_coefficient(coeffs, poles, N) * t ** -1.5
    c = coeffs.C[0, :N]
    A_exp = _pole_sum(c * c, poles.k_proper[:N], t)
    return A_exp + A_tail, A_exp, A_tail


@dataclass
class SurvivalSeries:
    """Survival data on a time grid with the per-term breakdown retained."""

    potential: DeltaShellPotential
    initial_state: SineInitialState
    lifetime: float
    t: np.ndarray
    A: np.ndarray
    A_exp: np.ndarray
    A_tail: np.ndarray

    @property
    def S(self) -> np.ndarray:
        return np.abs(self.A) ** 2

    @property
    def S_exp_only(self) -> np.ndarray:
        return np.abs(self.A_exp) ** 2

    @property
    def S_tail_only(self) -> np.ndarray:
        return np.abs(self.A_tail) ** 2

    @property
    def t_over_tau(self) -> np.ndarray:
        return self.t / self.lifetime


@dataclass(frozen=True)
class ExpansionContext:
    """Poles, states and overlaps for one (potential, initial state, N) triple."""

    potential: DeltaShellPotential
    initial_state: SineInitialState
    pole_set: PoleSet
    basis: ResonantBasis
    overlaps: OverlapSet


def build_expansion(pot: DeltaShellPotential, init: SineInitialState,
                    N: int = 40) -> ExpansionContext:
    pole_set = find_poles(pot, N, N)
    basis = build_basis(pole_set)
    overlaps = build_overlaps(basis, init)
    return ExpansionContext(pot, init, pole_set, basis, overlaps)


def survival_series(pot: DeltaShellPotential, init: SineInitialState,
                    t_grid, N: int = 40,
                    context: Optional[ExpansionContext] = None) -> SurvivalSeries:
    """S(t) = |A(t)|^2 on a strictly increasing positive grid; a context must be pot and init's."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all(np.diff(t_grid) > 0):
        raise ValueError(f"time grid must be non-empty and strictly increasing, got "
                         f"{t_grid.size} times from {t_grid[:1]} to {t_grid[-1:]}")
    _check_times(t_grid[0])  # before any solve; survival_amplitude checks the whole grid
    if context is None:
        context = build_expansion(pot, init, N)
    elif context.potential != pot or context.initial_state != init:
        raise ValueError(f"context was built for {context.potential} and "
                         f"{context.initial_state}, not for {pot} and {init}")
    tau = lifetime(context.pole_set)
    A, A_exp, A_tail = survival_amplitude(context.overlaps, context.pole_set, t_grid, N)
    return SurvivalSeries(potential=pot, initial_state=init, lifetime=tau,
                          t=t_grid, A=A, A_exp=A_exp, A_tail=A_tail)


def wavefunction(context: ExpansionContext, r: float, t: float,
                 N: Optional[int] = None) -> complex:
    """psi(r, t) for 0 <= r <= a from the resonant expansion."""
    if not 0 <= r <= context.potential.a:
        raise ValueError(f"need 0 <= r <= a={context.potential.a}, got r={r}")
    _check_times(t)
    coeffs, basis = context.overlaps, context.basis
    N = _pair_count(N, coeffs.n_pairs)
    psi = 0j
    for p in range(1, N + 1):
        st = basis.state(p)
        pole = st.pole
        psi += coeffs.c(p) * st(r) * cmath.exp(
            -1j * pole.resonance_position * t - pole.width * t / 2)
    tail = 0j
    for p in range(1, N + 1):
        st_m, st_p = basis.state(-p), basis.state(p)
        tail += coeffs.c(-p) * st_m(r) / (2 * st_m.pole.k ** 3)
        tail += coeffs.c(p) * st_p(r) / (2 * st_p.pole.k ** 3)
    return psi - ETA * tail * t ** -1.5


def two_pole_amplitude(coeffs: OverlapSet, poles: PoleSet, t: float) -> complex:
    """Interference of the p = 4, 5 terms alone:
    C_4^2 e^{-i E_4 t - G_4 t/2} + C_5^2 e^{-i E_5 t - G_5 t/2}.
    """
    if coeffs.n_pairs < 5 or poles.n_proper < 5:
        raise ValueError("two-pole approximation needs coefficients for p = 4, 5")
    _check_times(t)
    c = coeffs.C[0, 3:5]
    return _pole_sum(c * c, poles.k_proper[3:5], t)


def _slowest_exponential(poles: PoleSet) -> int:
    """Index into k_proper of the least Gamma_p = 4 alpha_p beta_p among the proper poles
    above the rotated ray, the ones that give an exponential (p = 1 unless ab < 0.0319).
    """
    k = poles.k_proper
    gamma = np.where(_above_ray(k), 4.0 * k.real * -k.imag, np.inf)
    if not np.isfinite(gamma).any():
        raise DeltaShellError(f"none of the N = {k.size} proper poles lies above the rotated ray")
    return int(np.argmin(gamma))


def lifetime(poles: PoleSet) -> float:
    """1 / Gamma_p of the slowest proper pole that gives an exponential (_slowest_exponential)."""
    k = complex(poles.k_proper[_slowest_exponential(poles)])
    return 1.0 / (4.0 * k.real * -k.imag)


def transition_time(coeffs: OverlapSet, poles: PoleSet,
                    bracket_in_lifetimes=(1.0, 200.0)) -> float:
    """Time where the slowest exponential term (lifetime's pole) equals the power-law term.

    Solves |C_1 Cbar_1| e^{-G_1 t/2} = |eta D| t^{-3/2} by bisection down to
    1e-12 tau; past this time S(t) follows the t^{-3} law. The log gap of
    the two sides is concave with its maximum at t = 3/G_1, so bisecting on
    the part of the bracket [tau, 200 tau] past that maximum finds the late
    crossing, also when the early one lies in the bracket too.
    """
    lo, hi = bracket_in_lifetimes
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"need a finite bracket 0 < lo < hi, got {bracket_in_lifetimes}")
    p = _slowest_exponential(poles)
    k1, c1 = complex(poles.k_proper[p]), complex(coeffs.C[0, p])
    g1 = 4.0 * k1.real * -k1.imag
    tau = 1.0 / g1
    lhs_amp = abs(c1 * c1)
    rhs_amp = abs(ETA * tail_coefficient(coeffs, poles))
    if lhs_amp == 0 or rhs_amp == 0:
        raise NoTransitionError("degenerate term amplitudes")

    def gap(t):
        return (math.log(lhs_amp) - g1 * t / 2) - (math.log(rhs_amp) - 1.5 * math.log(t))

    lo, hi = lo * tau, hi * tau
    lo = max(lo, min(3 / g1, hi))
    gap_lo = gap(lo)
    if gap_lo * gap(hi) > 0:
        raise NoTransitionError(
            f"no exponential/power-law crossing in [{bracket_in_lifetimes[0]}, "
            f"{bracket_in_lifetimes[1]}] lifetimes")
    while hi - lo > 1e-12 * tau:
        mid = 0.5 * (lo + hi)
        if gap_lo * gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
