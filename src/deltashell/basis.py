"""Normalized resonant states u_p(r) and the closure/sum-rule diagnostics.

Resonant states satisfy the stationary equation with a purely outgoing
boundary condition u'(a) = i k_p u(a) and carry the non-Hermitian
normalization  integral_0^a u_p^2 dr + i u_p(a)^2 / (2 k_p) = 1
(note u^2, not |u|^2). A ResonantBasis holds read-only arrays k, A and B over
both families; its ResonantState objects are views, built once per basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DeltaShellPotential
from .poles import Pole, PoleSet, _readonly


def _pair_count(N, n_pairs: int) -> int:
    """N (n_pairs if N is None), checked to be an integer with 1 <= N <= n_pairs."""
    N = n_pairs if N is None else N
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or not 1 <= N <= n_pairs:
        raise ValueError(f"N must be an integer in [1, {n_pairs}], got {N!r}")
    return int(N)


def normalization_coefficient(k, pot: DeltaShellPotential):
    """Interior amplitudes A_p fixing the outgoing-state normalization, over an array of k_p.

    Closed form valid at roots of the pole equation:
        A_p^2 = 2(-i b a - 2 i k a) / (a (1 - i b a - 2 i k a)),
    taken on the principal square-root branch. Downstream observables only
    use products u_p(r) u_p(r'), which are branch independent. At a root of
    f(k) = 2k - b (e^{2ika} - 1) the denominator is a f'(k)/2, which vanishes
    only at k = -b/2 - i/(2a). That point is never a root, since there
    |a f|^2 = 1 + x e (x e - 2 sin x) >= 1 with x = ab, so every pole is
    simple and the denominator never vanishes.
    """
    b, a = pot.b, pot.a
    return np.sqrt(2 * (-1j * b * a - 2j * k * a) / (a * (1 - 1j * b * a - 2j * k * a)))


def normalization_residual(k, A, pot: DeltaShellPotential):
    """Defect of the outgoing normalization over arrays k_p, A_p, by the closed-form integral."""
    a = pot.a
    interior = a / 2 - np.sin(2 * k * a) / (4 * k)
    surface = 1j * np.sin(k * a) ** 2 / (2 * k)
    return A * A * (interior + surface) - 1.0


@dataclass(frozen=True)
class ResonantState:
    """One normalized resonant state: A_p sin(k_p r) inside, B_p e^{i k_p r} outside."""

    pole: Pole
    potential: DeltaShellPotential
    A: complex
    B: complex

    def eval(self, r):
        """u_p(r) for scalar or array r >= 0; branches agree at r = a by construction."""
        r = np.asarray(r, dtype=float)
        k, a = self.pole.k, self.potential.a
        inside = self.A * np.sin(k * r)
        outside = self.B * np.exp(1j * k * r)
        out = np.where(r <= a, inside, outside)
        return out if out.ndim else complex(out)

    __call__ = eval


class ResonantBasis:
    """Both families' states as read-only arrays k, A and B (p = 1..n_proper, then p = -1,
    -2, ...); proper, improper and state(p) give ResonantState views, built once per basis."""

    def __init__(self, pole_set: PoleSet):
        self.pole_set = pole_set
        self.potential = pot = pole_set.potential
        self.n_proper = n = pole_set.n_proper
        k = np.concatenate((pole_set.k_proper, pole_set.k_improper))
        self.n_pairs = min(n, k.size - n)
        A = normalization_coefficient(k, pot)
        self.k, self.A, self.B = (_readonly(x) for x in (
            k, A, A * np.sin(k * pot.a) * np.exp(-1j * k * pot.a)))

    @cached_property
    def _states(self) -> tuple:
        return tuple(ResonantState(pole, self.potential, A, B) for pole, A, B in
                     zip(self.pole_set, self.A.tolist(), self.B.tolist()))

    @cached_property
    def proper(self) -> tuple:
        return self._states[:self.n_proper]

    @cached_property
    def improper(self) -> tuple:
        return self._states[self.n_proper:]

    def state(self, p: int) -> ResonantState:
        if p > 0:
            return self.proper[p - 1]
        if p < 0:
            return self.improper[-p - 1]
        raise ValueError("state index 0 is reserved")

    def _arrays(self, N):
        """(k_p, A_p) for p = +-1..+-N as (2, N) arrays, row 0 proper, row 1 improper."""
        N, n = _pair_count(N, self.n_pairs), self.n_proper
        return np.stack((self.k[:N], self.k[n:n + N])), np.stack((self.A[:N], self.A[n:n + N]))


def build_basis(pole_set: PoleSet) -> ResonantBasis:
    return ResonantBasis(pole_set)


def _state_products(k, A, r: float, rp: float):
    """u_p(r) u_p(r') = A_p^2 sin(k_p r) sin(k_p r') for r, r' <= a, over arrays k_p, A_p."""
    return A * np.sin(k * r) * A * np.sin(k * rp)


def _interior_products(basis: ResonantBasis, r: float, rp: float, N: int):
    """(k_p, u_p(r) u_p(r')) over p = +-1..+-N; the states are complete only for r, r' <= a."""
    if r > basis.potential.a or rp > basis.potential.a:
        raise ValueError("pole sums over the states hold only inside the interaction region")
    k, A = basis._arrays(N)
    return k, _state_products(k, A, r, rp)


def sum_rule_defect(basis: ResonantBasis, r: float, rp: float, order: int, N: int) -> complex:
    """Partial sum over p = -N..N (p != 0) of u_p(r) u_p(r') k_p^order.

    order -1 and +1 have exact limit 0; order 0 has distributional limit
    2 delta(r - r'). Raw symmetric partial sums converge slowly for order -1,
    and for orders 0 and +1 only under a weight exp(-eps k_p^2), the damping
    the contour rotation supplies.
    """
    if order not in (-1, 0, 1):
        raise ValueError(f"order must be -1, 0 or +1, got {order}")
    if r == basis.potential.a and rp == basis.potential.a:
        raise ValueError("expansion is invalid at r = r' = a")
    k, uu = _interior_products(basis, r, rp, N)
    return complex(np.sum(uu * k ** order))


def green_expansion(basis: ResonantBasis, r: float, rp: float, k: complex, N: int) -> complex:
    """Truncated pole expansion of the outgoing Green's function:
    sum over p = -N..N of u_p(r) u_p(r') / (2 k_p (k - k_p)).
    """
    kp, uu = _interior_products(basis, r, rp, N)
    return complex(np.sum(uu / (2 * kp * (k - kp))))
