"""Domain types for the absorptive delta-shell system.

Units are hbar = 2m = 1 throughout, so energies are squared wavenumbers
(E = k^2) and the Hamiltonian reads H = -d^2/dr^2 - i b delta(r - a) on the
half line r >= 0 with u(0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DeltaShellPotential:
    """Purely absorptive shell V(r) = -i b delta(r - a), b > 0."""

    b: float
    a: float = 1.0

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"intensity must be positive, got b={self.b}")
        if not self.a > 0:
            raise ValueError(f"shell radius must be positive, got a={self.a}")


def normalization_constant(k_c: float, a: float) -> float:
    """Normalization of sin(k_c r) on [0, a]: sqrt(2/a) / sqrt(1 - sin(2 k_c a)/(2 k_c a))."""
    if not k_c > 0:
        raise ValueError(f"k_c must be positive, got {k_c}")
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    x = 2.0 * k_c * a
    return math.sqrt(2.0 / a) / math.sqrt(1.0 - math.sin(x) / x)


@dataclass(frozen=True)
class SineInitialState:
    """Normalized truncated sine: psi(r, 0) = N_c sin(k_c r) for r <= a, zero outside.

    The state models only the interior portion of a decaying wave; nothing
    outside the shell is represented, and the interior part carries unit norm.
    """

    k_c: float
    N_c: float
    a: float = 1.0

    @classmethod
    def from_wavenumber(cls, k_c: float, a: float = 1.0) -> "SineInitialState":
        return cls(k_c=k_c, N_c=normalization_constant(k_c, a), a=a)

    def amplitude(self, r):
        """psi(r, 0); accepts scalars or arrays."""
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.a, self.N_c * np.sin(self.k_c * r), 0.0)
        return out if out.ndim else float(out)

    __call__ = amplitude


def box_state(q: int, a: float = 1.0) -> SineInitialState:
    """Infinite-box mode q: k_c = q pi / a with the exact normalization sqrt(2/a)."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"box mode number must be a positive integer, got {q}")
    return SineInitialState(k_c=q * math.pi / a, N_c=math.sqrt(2.0 / a), a=a)
