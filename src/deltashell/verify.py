"""Self-verification suite: each check compares two separately computed quantities.

pole_equation_residual      solved roots vs the pole equation, against find_poles'
                            acceptance bound (the one check restating its construction)
state_normalization         closed-form A_p vs the normalization integral at k_p
green_residue_identity      contour residue of the closed-form G+ vs u_p u_p / (2 k_p)
green_pole_expansion        pole expansion of G+ at k = 2/a vs its closed form
sum_rule_inverse_k_trend    order -1 sum rule partial sum at N vs at N = 10
closure_sum                 sum of C_p^2 vs its limit 1 + i psi(a)^2/(2b)
oracle_expansion_agreement  the expansion's S(t) vs the oracle's

A check outside its domain (truncation, resonance width) reports "inconclusive".
Some fail in part of b (at a = 1, the sum-rule trend for b >= 156). Identities
that hold by construction (Jost zeros, state continuity and jump, symmetry and
boundary values of G+) are pinned by tests/test_basis.py, tests/test_oracle.py
and tests/test_acceptance.py's criteria 11 and 12 instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _state_products, green_expansion, normalization_residual, sum_rule_defect
from .expansion import build_expansion, closure_sum, lifetime, survival_amplitude
from .model import DeltaShellPotential, SineInitialState, box_state
from .oracle import T_MIN, green_function, residue_at_pole, survival_amplitude_exact
from .poles import _acceptance_bound, _pole_equation


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    value: float
    threshold: float
    note: str = ""

    def as_dict(self):
        return {"name": self.name, "status": self.status, "value": self.value,
                "threshold": self.threshold, "note": self.note}


def _gate(name, value, threshold, note="") -> CheckResult:
    status = "pass" if value < threshold else "fail"
    return CheckResult(name, status, float(value), float(threshold), note)


def run_verification(pot: DeltaShellPotential, init: SineInitialState | None = None,
                     n: int = 40) -> list[CheckResult]:
    if init is None:
        init = box_state(1, pot.a)
    ctx = build_expansion(pot, init, n)
    k, A = ctx.basis.k, ctx.basis.A  # both families
    a = pot.a
    results = []

    residual = np.abs(_pole_equation(k, pot.b, a)[0])
    results.append(_gate(
        "pole_equation_residual", np.max(residual / _acceptance_bound(k, pot.b, pot.a)), 1.0,
        note="worst |residual| / max(1e-12, 8 x noise floor), find_poles' acceptance rule"))

    norm = np.abs(normalization_residual(k, A, pot))
    near_real = np.abs(k.imag) <= 1e-3
    results.append(_gate("state_normalization", norm[~near_real].max(), 1e-10))
    if near_real.any():
        results.append(_gate("state_normalization_near_real", norm[near_real].max(), 1e-8,
                             note="looser tolerance for nearly real poles"))

    m = min(5, ctx.basis.n_proper)
    num = residue_at_pole(k[:m], 0.3 * a, 0.6 * a, pot)
    res_dev = np.abs(num - _state_products(k[:m], A[:m], 0.3 * a, 0.6 * a) / (2 * k[:m])).max()
    results.append(_gate("green_residue_identity", res_dev, 1e-8))

    if n >= 40:
        k_probe = 2.0 / a
        exact = green_function(0.3 * a, 0.6 * a, k_probe, pot)
        approx = green_expansion(ctx.basis, 0.3 * a, 0.6 * a, k_probe, 40)
        results.append(_gate("green_pole_expansion", abs(approx - exact) / abs(exact), 1e-3))
    else:
        results.append(CheckResult("green_pole_expansion", "inconclusive", math.nan, 1e-3,
                                   note=f"needs n >= 40 pole pairs, have {n}"))

    if n >= 20:
        d10 = abs(sum_rule_defect(ctx.basis, 0.5 * a, 0.5 * a, -1, 10))
        dn = abs(sum_rule_defect(ctx.basis, 0.5 * a, 0.5 * a, -1, n))
        status = "pass" if dn <= d10 else "fail"
        results.append(CheckResult("sum_rule_inverse_k_trend", status, dn, d10,
                                   note="partial sums must not grow past N=10"))
    else:
        results.append(CheckResult("sum_rule_inverse_k_trend", "inconclusive", math.nan,
                                   math.nan, note=f"needs n >= 20 pole pairs, have {n}"))

    psi_a = init.amplitude(init.a)
    closure_limit = 1 + 0.5j * psi_a ** 2 / pot.b
    defect_n = abs(closure_sum(ctx.overlaps, n) - closure_limit)
    defect_10 = abs(closure_sum(ctx.overlaps, min(10, n)) - closure_limit)
    status = "pass" if (defect_n < 0.05 and defect_n <= defect_10 + 0.01) else "fail"
    results.append(CheckResult("closure_sum", status, defect_n, 0.05,
                               note="limit includes the boundary term i psi(a)^2/(2b)"))

    tau = lifetime(ctx.pole_set)
    k1 = complex(k[0])  # R1 = E_1 / Gamma_1 = (alpha^2 - beta^2) / (4 alpha beta)
    r1 = (k1.real ** 2 - k1.imag ** 2) / (4.0 * k1.real * -k1.imag)
    t_check = max(3 * tau, 1.2 * T_MIN)
    if r1 > 3:
        a_exp, _, _ = survival_amplitude(ctx.overlaps, ctx.pole_set, t_check, min(n, 40))
        a_or = survival_amplitude_exact(pot, init, t_check)
        rel = abs(abs(a_or) ** 2 - abs(a_exp) ** 2) / abs(a_or) ** 2
        results.append(_gate("oracle_expansion_agreement", rel, 0.05,
                             note=f"survival probability at t = {t_check:.3g}"))
    else:
        results.append(CheckResult(
            "oracle_expansion_agreement", "inconclusive", math.nan, 0.05,
            note=f"broad-resonance regime (R1 = {r1:.2f} <= 3); expansion not "
                 "expected to be quantitative"))

    return results
