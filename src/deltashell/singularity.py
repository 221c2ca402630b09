"""Spectral-singularity location by tracing a pole family in the intensity b.

A spectral singularity is an intensity b* at which an improper pole reaches
the real k axis, making the continuum solution there singular (a real zero of
the Jost function). A scan solves no pole table: it starts from the one pole
it follows, certified at the bottom of the bracket by two winding counts,
solves that family at every sample of the b grid by one array Newton from the
family's asymptote (poles._seeds, poles._newton), keeps the grid and the roots
as the trajectory's arrays b and k, and solves for the crossing (b*, k*) by a
bordered Newton iteration, to the last ulp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CompletenessError, NoCrossingError, SolverError, TrajectoryLostError
from .model import DeltaShellPotential
from .poles import (BETA_MARGIN, Pole, _acceptance_bound, _newton, _proper_poles, _readonly,
                    _seeds, count_roots_in_rectangle, newton_polish, pole_equation_derivative,
                    pole_equation_residual)

CROSSING_MAX_ITER = 50
CROSSING_ULPS = 4  # convergence and bracket slack of the crossing, in ulp of b


@dataclass(eq=False)
class PoleTrajectory:
    """One pole family's positions k (complex) at the monotone intensities b (float), as
    read-only 1-D arrays of one length, plus any axis crossing (b_star, k_star).
    """

    family: int
    a: float
    b: np.ndarray
    k: np.ndarray
    crossing: Optional[tuple] = None

    def __post_init__(self):
        self.b, self.k = _readonly(self.b, float), _readonly(self.k)


def track_pole(pot0: DeltaShellPotential, pole0: Pole, b_from: float, b_to: float,
               steps: int) -> PoleTrajectory:
    """pole0's family at the `steps` intensities np.linspace(b_from, b_to, steps).

    Sample 0 is seeded from pole0.k, every other sample from the family's
    asymptote at its b (_seeds), and one array Newton (_newton) polishes them
    all under the acceptance rule find_poles applies. TrajectoryLostError is
    raised if Newton does not converge, or if any sample, the first included,
    ends more than half the pole spacing, pi/(2a), from the family's asymptote
    at its b: pole0 or a seed then belongs to another family. The bound is
    not taken between neighbouring samples, which may lie further apart than
    pi/(2a) on one family. The trajectory holds the grid as b and Newton's
    roots as k.
    """
    if steps < 2 and b_from != b_to:
        raise ValueError("need at least 2 steps")
    a, family = pot0.a, pole0.index
    b = np.linspace(b_from, b_to, steps if b_from != b_to else 1)
    asymptote = _seeds(family, b, a)
    try:
        k = _newton(np.append(pole0.k, asymptote[1:]), b, a)
    except SolverError as exc:
        raise TrajectoryLostError(f"family {family} on [{b_from}, {b_to}]: {exc}") from None
    lost = np.abs(k - asymptote) > math.pi / (2 * a)
    if lost.any():
        i = np.argmax(lost)
        raise TrajectoryLostError(f"family {family}: the sample at b={b[i]} ended at {k[i]}, "
                                  f"more than pi/(2a) from the family's asymptote")
    return PoleTrajectory(family=family, a=a, b=b, k=k)


def find_singularity(a: float, family: int, b_lo: float, b_hi: float,
                     steps: int = 21) -> tuple:
    """(b*, k*) where the tracked family's pole meets the real axis.

    The family is identified by its signed index at b = b_lo (_start_pole),
    tracked to b_hi by track_pole, and the crossing is solved by a bordered
    Newton iteration (_locate_crossing). Raises NoCrossingError when the
    trajectory keeps a single sign of Im k across the bracket, and
    CompletenessError when the start pole's index cannot be certified.
    """
    return _locate_crossing(_trajectory(a, family, b_lo, b_hi, steps))


def _trajectory(a: float, family: int, b_lo: float, b_hi: float, steps: int) -> PoleTrajectory:
    """The family's pole tracked from b_lo to b_hi, identified by its index at b_lo."""
    if not 0 < b_lo < b_hi < math.inf:
        raise ValueError(f"need a finite bracket 0 < b_lo < b_hi, got [{b_lo}, {b_hi}]")
    pot0 = DeltaShellPotential(b=b_lo, a=a)
    return track_pole(pot0, _start_pole(pot0, family), b_lo, b_hi, steps)


def _start_pole(pot: DeltaShellPotential, family: int) -> Pole:
    """The pole of the given signed index at pot, certified without a pole table.

    A proper family takes the last of the seeded, winding-certified proper
    poles. An improper family -n is seeded by _seeds and polished by
    newton_polish; two winding counts over |Im k| <= max(BETA_MARGIN,
    a |Im k0| + 1)/a certify its index: the strip Re k0 +- pi/(4a) holds
    exactly one root, and [Re k0 + pi/(4a), 0] exactly the n - 1 improper
    poles nearer the origin. The depth is find_poles' BETA_MARGIN/a unless
    k0 lies deeper, as family -n does at small ab, where a |Im k0| grows like
    (1/2) ln(2 n pi/(ab)).
    """
    if family > 0:
        return Pole(family, complex(_proper_poles(pot, family)[-1]))
    if family == 0:
        raise ValueError("need a nonzero signed pole index, got family=0")
    n = -family
    k0 = newton_polish(complex(_seeds(family, pot.b, pot.a)), pot)
    half = math.pi / (4 * pot.a)
    depth = max(BETA_MARGIN, pot.a * abs(k0.imag) + 1) / pot.a
    if not k0.real + half < 0:
        raise CompletenessError(f"family {family}: seeded root {k0} lies outside the "
                                f"certified region Re k < {-half:.6g}")
    strip = count_roots_in_rectangle((k0.real - half, k0.real + half, -depth, depth), pot)
    inner = count_roots_in_rectangle((k0.real + half, 0.0, -depth, depth), pot)
    if strip != 1 or inner != n - 1:
        raise CompletenessError(f"family {family}: winding counts {strip} in the strip "
                                f"around {k0} and {inner} nearer the origin, expected 1 "
                                f"and {n - 1}")
    return Pole(index=family, k=k0)


def _locate_crossing(traj: PoleTrajectory) -> tuple:
    """Solve the trajectory's first crossing of the real axis for (b*, k*); sets traj.crossing.

    At a spectral singularity k = x is real, so F(b, x) = 2x - b(e^{2ixa} - 1)
    = 0 is two real equations in the two real unknowns, with
    F_x = 2 - 2iab e^{2ixa} and F_b = -(e^{2ixa} - 1): a bordered 2x2 real
    Newton system (Keller 1977; Allgower & Georg 1990). It takes the first
    sample with Im k exactly 0 (the last one included) as the crossing, or
    the first two samples whose Im k changes sign, if they come before it,
    as a seed by linear interpolation. With neither, the first sample within
    rounding noise of the axis, |Im k| |F_x| <= _acceptance_bound (a bracket
    end at b*, say), is the seed, bracketed by its neighbours. It stops once
    a step moves b and x by at most CROSSING_ULPS ulp. Raises NoCrossingError
    if no sample crosses, an iterate leaves the bracket by more than
    CROSSING_ULPS ulp, or the iteration does not converge.
    """
    a, y = traj.a, traj.k.imag
    hit = np.flatnonzero((y == 0) | np.append(y[:-1] * y[1:] < 0, False))
    on_axis = hit.size == 0
    if on_axis:
        slope = np.abs(2 - 2j * a * traj.b * np.exp(2j * traj.k * a))
        hit = np.flatnonzero(np.abs(y) * slope <= _acceptance_bound(traj.k, traj.b, a))
    if hit.size == 0:
        raise NoCrossingError(f"family {traj.family}: Im k keeps one sign on "
                              f"[{traj.b[0]}, {traj.b[-1]}]")
    i = hit[0]
    b1, k1 = float(traj.b[i]), complex(traj.k[i])
    if k1.imag == 0.0:
        traj.crossing = (b1, k1.real)
        return b1, k1.real
    if on_axis:
        b, x = b1, k1.real
        lo, hi = sorted(traj.b[[max(i - 1, 0), min(i + 1, y.size - 1)]].tolist())
    else:
        b2, k2 = float(traj.b[i + 1]), complex(traj.k[i + 1])
        t = k1.imag / (k1.imag - k2.imag)
        b, x = b1 + t * (b2 - b1), k1.real + t * (k2.real - k1.real)
        lo, hi = min(b1, b2), max(b1, b2)
    slack = CROSSING_ULPS * math.ulp(hi)
    for _ in range(CROSSING_MAX_ITER):
        pot = DeltaShellPotential(b=b, a=a)
        f, f_x = pole_equation_residual(x, pot), pole_equation_derivative(x, pot)
        f_b = (f - 2 * x) / b  # -(e^{2ixa} - 1)
        det = f_b.real * f_x.imag - f_x.real * f_b.imag
        db = (f_x.real * f.imag - f.real * f_x.imag) / det
        dx = (f.real * f_b.imag - f_b.real * f.imag) / det
        b, x = b + db, x + dx
        if not lo - slack <= b <= hi + slack:
            raise NoCrossingError(f"family {traj.family}: crossing Newton left the bracket "
                                  f"[{lo}, {hi}] at b={b}")
        if abs(db) <= CROSSING_ULPS * math.ulp(b) and abs(dx) <= CROSSING_ULPS * math.ulp(x):
            break
    else:
        raise NoCrossingError(f"family {traj.family}: crossing Newton did not converge "
                              f"near b={b}, k={x}")
    pot = DeltaShellPotential(b=b, a=a)
    residual = abs(pole_equation_residual(x, pot))
    if residual >= _acceptance_bound(x, b, a):
        raise NoCrossingError(f"family {traj.family}: crossing residual {residual:.2e} "
                              f"above the acceptance bound at b={b}")
    traj.crossing = (b, x)
    return b, x
