"""Normalized resonant states u_p(r) and the closure/sum-rule diagnostics.

Resonant states satisfy the stationary equation with a purely outgoing
boundary condition u'(a) = i k_p u(a) and carry the non-Hermitian
normalization  integral_0^a u_p^2 dr + i u_p(a)^2 / (2 k_p) = 1
(note u^2, not |u|^2).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .model import DeltaShellPotential
from .poles import Pole, PoleSet


def normalization_coefficient(pole: Pole, pot: DeltaShellPotential) -> complex:
    """Interior amplitude A_p fixing the outgoing-state normalization.

    Closed form valid at roots of the pole equation:
        A_p^2 = 2(-i b a - 2 i k a) / (a (1 - i b a - 2 i k a)),
    taken on the principal square-root branch. Downstream observables only
    use products u_p(r) u_p(r'), which are branch independent. At a root of
    f(k) = 2k - b (e^{2ika} - 1) the denominator is a f'(k)/2, which vanishes
    only at k = -b/2 - i/(2a). That point is never a root, since there
    |a f|^2 = 1 + x e (x e - 2 sin x) >= 1 with x = ab, so every pole is
    simple and the denominator never vanishes.
    """
    b, a, k = pot.b, pot.a, pole.k
    return cmath.sqrt(2 * (-1j * b * a - 2j * k * a) / (a * (1 - 1j * b * a - 2j * k * a)))


@dataclass(frozen=True)
class ResonantState:
    """One normalized resonant state: A_p sin(k_p r) inside, B_p e^{i k_p r} outside."""

    pole: Pole
    potential: DeltaShellPotential
    A: complex
    B: complex

    @classmethod
    def build(cls, pole: Pole, pot: DeltaShellPotential) -> "ResonantState":
        A = normalization_coefficient(pole, pot)
        B = A * cmath.sin(pole.k * pot.a) * cmath.exp(-1j * pole.k * pot.a)
        return cls(pole=pole, potential=pot, A=A, B=B)

    def eval(self, r):
        """u_p(r) for scalar or array r >= 0; branches agree at r = a by construction."""
        r = np.asarray(r, dtype=float)
        k, a = self.pole.k, self.potential.a
        inside = self.A * np.sin(k * r)
        outside = self.B * np.exp(1j * k * r)
        out = np.where(r <= a, inside, outside)
        return out if out.ndim else complex(out)

    __call__ = eval

    def normalization_residual(self) -> complex:
        """Defect of the outgoing-normalization condition, from the closed-form sin^2 integral."""
        k, a = self.pole.k, self.potential.a
        interior = a / 2 - cmath.sin(2 * k * a) / (4 * k)
        surface = 1j * cmath.sin(k * a) ** 2 / (2 * k)
        return self.A * self.A * (interior + surface) - 1.0


class ResonantBasis:
    """The two pole families as normalized states, addressable by signed index."""

    def __init__(self, pole_set: PoleSet):
        self.pole_set = pole_set
        self.potential = pole_set.potential
        self.proper = tuple(ResonantState.build(p, pole_set.potential)
                            for p in pole_set.proper)
        self.improper = tuple(ResonantState.build(p, pole_set.potential)
                              for p in pole_set.improper)
        pairs = (self.proper[:self.n_pairs], self.improper[:self.n_pairs])
        self._k = np.array([[st.pole.k for st in fam] for fam in pairs], dtype=complex)
        self._A = np.array([[st.A for st in fam] for fam in pairs], dtype=complex)

    def state(self, p: int) -> ResonantState:
        if p > 0:
            return self.proper[p - 1]
        if p < 0:
            return self.improper[-p - 1]
        raise ValueError("state index 0 is reserved")

    def _arrays(self, N: int):
        """(k_p, A_p) for p = +-1..+-N as (2, N) arrays, row 0 proper, row 1 improper."""
        if N > self.n_pairs:
            raise ValueError(f"basis holds {len(self.proper)}+{len(self.improper)} states, "
                             f"asked for N={N}")
        return self._k[:, :N], self._A[:, :N]

    @property
    def n_pairs(self) -> int:
        return min(len(self.proper), len(self.improper))


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
    2 delta(r - r'). Raw symmetric partial sums converge slowly for order -1
    and only in the distributional (damped) sense for orders 0 and +1; see
    gaussian_damped_sum_rule for the regularized version.
    """
    if order not in (-1, 0, 1):
        raise ValueError(f"order must be -1, 0 or +1, got {order}")
    if r == basis.potential.a and rp == basis.potential.a:
        raise ValueError("expansion is invalid at r = r' = a")
    k, uu = _interior_products(basis, r, rp, N)
    return complex(np.sum(uu * k ** order))


def gaussian_damped_sum_rule(basis: ResonantBasis, r: float, rp: float, order: int,
                             N: int, eps: float) -> complex:
    """Sum rule with weight exp(-eps k_p^2), the damping the contour rotation supplies."""
    k, uu = _interior_products(basis, r, rp, N)
    return complex(np.sum(uu * k ** order * np.exp(-eps * k * k)))


def green_expansion(basis: ResonantBasis, r: float, rp: float, k: complex, N: int) -> complex:
    """Truncated pole expansion of the outgoing Green's function:
    sum over p = -N..N of u_p(r) u_p(r') / (2 k_p (k - k_p)).
    """
    kp, uu = _interior_products(basis, r, rp, N)
    return complex(np.sum(uu / (2 * kp * (k - kp))))
