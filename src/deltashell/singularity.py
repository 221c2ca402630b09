"""Spectral-singularity location by pole-trajectory continuation in the intensity b.

A spectral singularity is an intensity b* at which an improper pole reaches
the real k axis, making the continuum solution there singular (a real zero of
the Jost function).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import NoCrossingError, SolverError, TrajectoryLostError
from .model import DeltaShellPotential
from .poles import Pole, find_poles, newton_polish

STEP_UNDERFLOW_FACTOR = 2 ** 20
IM_TOL = 1e-10


@dataclass
class PoleTrajectory:
    """Samples of one pole family's position as b varies, plus any axis crossing."""

    family: int
    a: float
    samples: list = field(default_factory=list)  # (b, k) pairs, b monotone
    crossing: Optional[tuple] = None             # (b_star, k_star)

    @property
    def crosses_real_axis(self) -> bool:
        signs = {1 if k.imag > 0 else -1 for _, k in self.samples if abs(k.imag) > IM_TOL}
        return len(signs) == 2 or self.crossing is not None


def track_pole(pot0: DeltaShellPotential, pole0: Pole, b_from: float, b_to: float,
               steps: int) -> PoleTrajectory:
    """Continuation in b: the previous root seeds Newton at the next intensity.

    The step is halved whenever Newton fails or the root jumps by more than
    half the local inter-pole spacing (pi/(2a)); underflow below
    (b_to - b_from)/2^20 raises TrajectoryLostError. Each sample is accepted
    by newton_polish's rule, the same one find_poles applies.
    """
    if steps < 2 and b_from != b_to:
        raise ValueError("need at least 2 steps")
    a = pot0.a
    traj = PoleTrajectory(family=pole0.index, a=a)
    k = newton_polish(pole0.k, DeltaShellPotential(b=b_from, a=a))
    traj.samples.append((b_from, k))
    if b_from == b_to:
        return traj
    jump_bound = math.pi / (2 * a)
    min_step = abs(b_to - b_from) / STEP_UNDERFLOW_FACTOR
    b = b_from
    step = (b_to - b_from) / (steps - 1)
    while (b_to - b) * math.copysign(1.0, b_to - b_from) > 1e-15:
        h = step
        while True:
            if abs(h) < min_step:
                raise TrajectoryLostError(f"continuation step underflow near b={b}")
            b_next = b + h
            if (b_to - b_next) * math.copysign(1.0, b_to - b_from) < 0:
                b_next = b_to
            try:
                k_next = newton_polish(k, DeltaShellPotential(b=b_next, a=a))
            except SolverError:
                h /= 2
                continue
            if abs(k_next - k) > jump_bound:
                h /= 2
                continue
            break
        b, k = b_next, k_next
        traj.samples.append((b, k))
    return traj


def find_singularity(a: float, family: int, b_lo: float, b_hi: float,
                     steps: int = 21, n_poles: Optional[int] = None) -> tuple:
    """(b*, k*) where the tracked family's pole meets the real axis.

    The family is identified by its signed index at b = b_lo; bisection on
    Im k(b) refines the crossing to |Im k*| < 1e-10. Raises NoCrossingError
    when the trajectory keeps a single sign of Im k across the bracket.
    """
    return _locate_crossing(_trajectory(a, family, b_lo, b_hi, steps, n_poles))


def _trajectory(a: float, family: int, b_lo: float, b_hi: float, steps: int,
                n_poles: Optional[int] = None) -> PoleTrajectory:
    """The family's pole tracked from b_lo to b_hi, identified by its index at b_lo."""
    if not (b_hi > b_lo > 0):
        raise ValueError(f"bad bracket [{b_lo}, {b_hi}]")
    if n_poles is None:
        n_poles = max(abs(family) + 1, 2)
    pot0 = DeltaShellPotential(b=b_lo, a=a)
    pole0 = find_poles(pot0, n_poles, n_poles).by_index(family)
    return track_pole(pot0, pole0, b_lo, b_hi, steps)


def _locate_crossing(traj: PoleTrajectory) -> tuple:
    """Bisect the trajectory's sign change of Im k to (b*, k*); sets traj.crossing."""
    for (b1, k1), (b2, k2) in zip(traj.samples[:-1], traj.samples[1:]):
        if k1.imag == 0.0:
            traj.crossing = (b1, k1.real)
            return b1, k1.real
        if k1.imag * k2.imag < 0:
            break
    else:
        raise NoCrossingError(f"family {traj.family}: Im k keeps one sign on "
                              f"[{traj.samples[0][0]}, {traj.samples[-1][0]}]")
    for _ in range(201):  # 200 halvings reach rounding width; the last polishes its midpoint
        bm = 0.5 * (b1 + b2)
        km = newton_polish(k1, DeltaShellPotential(b=bm, a=traj.a))
        if abs(km.imag) < IM_TOL:
            traj.crossing = (bm, km.real)
            return bm, km.real
        if km.imag * k1.imag > 0:
            b1, k1 = bm, km
        else:
            b2 = bm
    raise NoCrossingError(f"bisection stalled at b={bm}, Im k={km.imag:.2e}")
