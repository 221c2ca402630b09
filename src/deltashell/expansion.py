"""Resonant-state expansion of the decay dynamics.

Survival amplitude (both pole families, real initial states):

    A(t) =  sum_{p>=1} C_p Cbar_p e^{-i E_p t} e^{-G_p t / 2}
          - eta * sum_{p>=1} [ C_{-p}Cbar_{-p}/(2 k_{-p}^3)
                             + C_p Cbar_p/(2 k_p^3) ] * t^{-3/2}

with eta = (4 pi i)^{-1/2} on the principal branch. The expansion is a
long-time / exponential-regime representation; output below ~0.1 lifetimes is
extrapolation.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import ResonantBasis, ResonantState, build_basis
from .errors import NoTransitionError
from .model import DeltaShellPotential, SineInitialState
from .poles import PoleSet, find_poles

ETA = 1.0 / cmath.sqrt(4j * math.pi)  # = e^{-i pi/4} / (2 sqrt(pi))
OVERLAP_FALLBACK_REL = 1e-6


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad with IntegrationWarning silenced: callers gate on the error estimate.

    scipy.integrate is imported on the first call, so importing the package
    loads no scipy; only the oracle's ray integral calls this.
    """
    from scipy.integrate import IntegrationWarning, quad as scipy_quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return scipy_quad(func, a, b, **kwargs)


def _pole_sum(w, k, t):
    """sum_p w_p e^{-i k_p^2 t} at a scalar t, or the array of sums on an array of times."""
    out = np.exp(np.multiply.outer(t, -1j * k * k)) @ w
    return out if np.ndim(out) else complex(out)


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


def overlap_coefficient(state: ResonantState, init: SineInitialState) -> complex:
    """C_p = integral_0^a psi(r,0) u_p(r) dr, in closed form where it is well conditioned."""
    c, _ = _overlaps(np.array([state.pole.k]), np.array([state.A]), init)
    return complex(c[0])


@dataclass(frozen=True)
class OverlapSet:
    """Overlap coefficients of one initial state against both pole families.

    For the real-valued sine states used here Cbar_p (the conjugate-state
    overlap) equals C_p identically, so a single array per family is stored
    and pair products are C_p^2.
    """

    initial_state: SineInitialState
    proper: tuple          # C_p, p = 1..N
    improper: tuple        # C_{-p}, p = 1..N
    provenance: tuple      # per-p ("improper_tag", "proper_tag")

    def c(self, p: int) -> complex:
        if p > 0:
            return self.proper[p - 1]
        if p < 0:
            return self.improper[-p - 1]
        raise ValueError("index 0 is reserved")

    def cbar(self, p: int) -> complex:
        # psi(r,0) is real, so the conjugated overlap coincides with c(p)
        return self.c(p)

    def pair_product(self, p: int) -> complex:
        return self.c(p) * self.cbar(p)

    @property
    def n_pairs(self) -> int:
        return min(len(self.proper), len(self.improper))


def build_overlaps(basis: ResonantBasis, init: SineInitialState) -> OverlapSet:
    k, A = basis._arrays(basis.n_pairs)
    c, near = _overlaps(k, A, init)
    tag = ("closed_form", "quadrature")
    return OverlapSet(initial_state=init, proper=tuple(complex(x) for x in c[0]),
                      improper=tuple(complex(x) for x in c[1]),
                      provenance=tuple((tag[m], tag[p]) for p, m in zip(*near.tolist())))


def _ordered_pair_sum(coeffs: OverlapSet, N: int, divisor) -> complex:
    """sum_{p=1..N} [C_{-p}Cbar_{-p}/divisor(-p) + C_p Cbar_p/divisor(p)].

    Summation order fixed: ascending p, improper before proper, in Python
    complex arithmetic, so the result is reproducible to the last bit.
    """
    if N > coeffs.n_pairs:
        raise ValueError(f"only {coeffs.n_pairs} coefficient pairs available")
    total = 0j
    for p in range(1, N + 1):
        total += coeffs.pair_product(-p) / divisor(-p)
        total += coeffs.pair_product(p) / divisor(p)
    return total


def closure_sum(coeffs: OverlapSet, N: int) -> complex:
    """(1/2) sum_{p=1..N} [C_p Cbar_p + C_{-p} Cbar_{-p}].

    The exact limit is 1 for initial states vanishing at the shell; states
    with psi(a) != 0 converge to 1 + i psi(a)^2/(2b) instead (boundary-corner
    anomaly of the closure relation).
    """
    return _ordered_pair_sum(coeffs, N, lambda p: 1) / 2


def tail_coefficient(coeffs: OverlapSet, poles: PoleSet, N: Optional[int] = None) -> complex:
    """D = sum_{p=1..N} [C_{-p}Cbar_{-p}/(2 k_{-p}^3) + C_p Cbar_p/(2 k_p^3)].

    The t^{-3/2} amplitude is -eta * D * t^{-3/2}.
    """
    if N is None:
        N = coeffs.n_pairs
    return _ordered_pair_sum(coeffs, N, lambda p: 2 * poles.by_index(p).k ** 3)


def _amplitude(coeffs: OverlapSet, poles: PoleSet, t, N: Optional[int]):
    """(A, A_exp, A_tail) at a scalar time or on an array of times."""
    if N is None:
        N = coeffs.n_pairs
    A_tail = -ETA * tail_coefficient(coeffs, poles, N) * t ** -1.5
    c = np.array(coeffs.proper[:N])
    A_exp = _pole_sum(c * c, np.array([p.k for p in poles.proper[:N]]), t)
    return A_exp + A_tail, A_exp, A_tail


def survival_amplitude(coeffs: OverlapSet, poles: PoleSet, t: float,
                       N: Optional[int] = None):
    """(A, A_exp, A_tail) at a single positive time."""
    if t <= 0:
        raise ValueError("the expansion represents t > 0 only")
    return _amplitude(coeffs, poles, t, N)


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
    source: str = "expansion"

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
    """S(t) = |A(t)|^2 on a strictly increasing positive grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing and positive")
    if context is None:
        context = build_expansion(pot, init, N)
    tau = lifetime(context.pole_set)
    A, A_exp, A_tail = _amplitude(context.overlaps, context.pole_set, t_grid, N)
    return SurvivalSeries(potential=pot, initial_state=init, lifetime=tau,
                          t=t_grid, A=A, A_exp=A_exp, A_tail=A_tail)


def wavefunction(context: ExpansionContext, r: float, t: float,
                 N: Optional[int] = None) -> complex:
    """psi(r, t) for r <= a from the resonant expansion."""
    if r > context.potential.a:
        raise ValueError("expansion is valid for r <= a")
    if t <= 0:
        raise ValueError("the expansion represents t > 0 only")
    coeffs, basis = context.overlaps, context.basis
    if N is None:
        N = coeffs.n_pairs
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
    c = np.array(coeffs.proper[3:5])
    return _pole_sum(c * c, np.array([poles.by_index(p).k for p in (4, 5)]), t)


def lifetime(poles: PoleSet) -> float:
    """1 / Gamma_min over the proper family (Gamma_1 for this model)."""
    if not poles.proper:
        raise ValueError("lifetime needs at least one proper pole")
    return 1.0 / min(p.width for p in poles.proper)


def transition_time(coeffs: OverlapSet, poles: PoleSet,
                    bracket_in_lifetimes=(1.0, 200.0)) -> float:
    """Time where the slowest exponential term equals the power-law term.

    Solves |C_1 Cbar_1| e^{-G_1 t/2} = |eta D| t^{-3/2} by bracketed
    bisection on [tau, 200 tau] down to 1e-12 tau; past this time S(t)
    follows the t^{-3} law.
    """
    tau = lifetime(poles)
    g1 = poles.by_index(1).width
    lhs_amp = abs(coeffs.pair_product(1))
    rhs_amp = abs(ETA * tail_coefficient(coeffs, poles))
    if lhs_amp == 0 or rhs_amp == 0:
        raise NoTransitionError("degenerate term amplitudes")

    def gap(t):
        return (math.log(lhs_amp) - g1 * t / 2) - (math.log(rhs_amp) - 1.5 * math.log(t))

    lo, hi = bracket_in_lifetimes[0] * tau, bracket_in_lifetimes[1] * tau
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
