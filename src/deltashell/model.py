"""Domain types for the absorptive delta-shell system.

Units are hbar = 2m = 1 throughout, so energies are squared wavenumbers
(E = k^2) and the Hamiltonian reads H = -d^2/dr^2 - i b delta(r - a) on the
half line r >= 0 with u(0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _positive(**values):
    """Require each named value to be finite and positive; the error names the first one not."""
    for name, x in values.items():
        if not 0 < x < math.inf:
            raise ValueError(f"need a finite positive {name}, got {name}={x}")


@dataclass(frozen=True)
class DeltaShellPotential:
    """Purely absorptive shell V(r) = -i b delta(r - a), b > 0."""

    b: float
    a: float = 1.0

    def __post_init__(self):
        _positive(b=self.b, a=self.a)


def normalization_constant(k_c: float, a: float) -> float:
    """Normalization of sin(k_c r) on [0, a]: sqrt(2/a) / sqrt(1 - sin(2 k_c a)/(2 k_c a))."""
    _positive(k_c=k_c, a=a)
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

    def __post_init__(self):
        _positive(a=self.a, k_c=self.k_c, N_c=self.N_c)

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
    _positive(a=a)
    return SineInitialState(k_c=q * math.pi / a, N_c=math.sqrt(2.0 / a), a=a)
