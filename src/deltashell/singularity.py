"""Spectral singularities: their closed form, and a pole family traced in the intensity b.

A spectral singularity is an intensity b* at which an improper pole reaches
the real k axis, making the continuum solution there singular (a real zero of
the Jost function). find_singularity returns it from its closed form and
solves nothing. A trajectory, the picture of the approach and the closed
form's referee, starts from the one pole it follows, certified at the bottom
of the bracket by two winding counts, solves that family at every sample of
the b grid by one array Newton from the family's asymptote (poles._seeds,
poles._newton), and keeps the grid and the roots as its arrays b and k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError, NoCrossingError, SolverError, TrajectoryLostError
from .model import DeltaShellPotential, _positive
from .poles import (BETA_MARGIN, Pole, _newton, _proper_poles, _readonly, _seeds,
                    count_roots_in_rectangle, newton_polish)

_PI_E40 = 31415926535897932384626433832795028841972  # pi * 10**40, rounded


@dataclass(eq=False)
class PoleTrajectory:
    """One pole family's positions k (complex) at the monotone intensities b (float), as
    read-only 1-D arrays of one length.
    """

    family: int
    a: float
    b: np.ndarray
    k: np.ndarray

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


def find_singularity(a: float, family: int, b_lo: float, b_hi: float) -> tuple:
    """(b*, k*) where the family's pole meets the real axis, from the closed form.

    A real root x != 0 of 2x = b(e^{2ixa} - 1) needs sin 2xa = 0 and cos 2xa =
    -1, so x = -b = -(2m - 1) pi/(2a): every crossing lies on the negative real
    axis, where no proper pole lies. There -(1 + 2k/b) = 1, so family -n's seed
    map k = -n pi/a - (i/2a)(log(-(1 + 2k/b)) + i pi) (poles._seeds) fixes k*
    exactly when m = n. b* = (2n - 1) pi/(2a) is a ratio of integers (pi to 40
    digits over a's exact ratio), which int division rounds correctly. Raises
    NoCrossingError for a proper family or a b* outside [b_lo, b_hi]; the
    tests referee the expression with the traced trajectory (_trajectory).
    """
    _check_scan(a, family, b_lo, b_hi)
    b_star = math.nan
    if family < 0:
        p, q = float(a).as_integer_ratio()
        try:
            b_star = (-2 * int(family) - 1) * _PI_E40 * q / (2 * p * 10 ** 40)
        except OverflowError:  # beyond the largest float, so above any finite b_hi
            b_star = math.inf
    if not b_lo <= b_star <= b_hi:
        raise NoCrossingError(f"family {family}: Im k keeps one sign on [{b_lo}, {b_hi}]")
    return b_star, -b_star


def _check_scan(a: float, family: int, b_lo: float, b_hi: float):
    """Refuse a bracket that is not 0 < b_lo < b_hi < inf, a bad a, or family 0."""
    if not 0 < b_lo < b_hi < math.inf:
        raise ValueError(f"need a finite bracket 0 < b_lo < b_hi, got [{b_lo}, {b_hi}]")
    _positive(a=a)
    if family == 0:
        raise ValueError("need a nonzero signed pole index, got family=0")


def _trajectory(a: float, family: int, b_lo: float, b_hi: float, steps: int) -> PoleTrajectory:
    """The family's pole tracked from b_lo to b_hi, identified by its index at b_lo."""
    _check_scan(a, family, b_lo, b_hi)
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
