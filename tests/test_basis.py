import cmath
import math

import numpy as np
import pytest

from deltashell import (DeltaShellPotential, basis, build_basis, errors, green_expansion,
                        green_function, normalization_coefficient, pole_equation_residual,
                        sum_rule_defect)
from deltashell.basis import _interior_products, normalization_residual
from deltashell.poles import pole_equation_derivative


def gaussian_damped_sum_rule(basis, r, rp, order, N, eps):
    """Sum rule with weight exp(-eps k_p^2), the damping the contour rotation supplies."""
    k, uu = _interior_products(basis, r, rp, N)
    return complex(np.sum(uu * k ** order * np.exp(-eps * k * k)))


def test_normalization_residuals(basis40, pot9):
    residual = np.abs(normalization_residual(basis40.k, basis40.A, pot9))
    tol = np.where(np.abs(basis40.k.imag) < 1e-3, 1e-8, 1e-10)
    assert np.all(residual < tol)


def test_normalization_coefficient_matches_state(ps10, pot9):
    A = normalization_coefficient(ps10.by_index(1).k, pot9)
    assert A == pytest.approx(build_basis(ps10).state(1).A)


def test_exceptional_point_is_never_a_pole(ps10, pot9):
    """The normalization denominator a (1 - i b a - 2 i k a) equals a f'(k)/2 at
    every root and vanishes only at k_x = -b/2 - i/(2a). There, with x = ab,
    |a f(k_x)|^2 = 1 + x e (x e - 2 sin x) >= 1 because e > 2 and sin x <= x:
    k_x is never a pole, every pole is simple, and no degenerate-normalization
    error path is needed.
    """
    for p in ps10:
        k, b, a = p.k, pot9.b, pot9.a
        assert a * (1 - 1j * b * a - 2j * k * a) == \
            pytest.approx(a * pole_equation_derivative(k, pot9) / 2, rel=1e-12)
    for b in np.geomspace(1e-3, 1e4, 29):
        for a in np.geomspace(0.1, 10, 9):
            k_x = complex(-b / 2, -1 / (2 * a))
            x = a * b
            bound = 1 + x * math.e * (x * math.e - 2 * math.sin(x))
            got = abs(a * pole_equation_residual(k_x, DeltaShellPotential(b=b, a=a))) ** 2
            assert got == pytest.approx(bound, rel=1e-9)
            assert bound >= 1
    assert not hasattr(errors, "DegenerateNormalizationError")
    assert not hasattr(basis, "DEGENERATE_TOL")


def test_state_vanishes_at_origin(basis40):
    for p in (1, 3, -2):
        assert basis40.state(p)(0.0) == 0


def test_state_continuity_at_shell(basis40, pot9):
    a = pot9.a
    for st in basis40.proper[:5] + basis40.improper[:5]:
        inside = st.A * cmath.sin(st.pole.k * a)
        outside = st.B * cmath.exp(1j * st.pole.k * a)
        assert abs(inside - outside) < 1e-12


def test_outgoing_condition_exact(basis40, pot9):
    # u'(a+) = i k u(a) holds identically for the exterior branch
    a, h = pot9.a, 1e-7
    st = basis40.state(2)
    deriv = (st(a + h) - st(a)) / h
    assert abs(deriv - 1j * st.pole.k * st(a)) < 1e-4 * abs(st(a))


def test_derivative_jump_from_finite_differences(basis40, pot9):
    # u'(a+) - u'(a-) = -i b u(a); central differences on each side, h -> h/2
    a, b = pot9.a, pot9.b
    st = basis40.state(1)
    for h in (1e-5, 5e-6):
        d_out = (st(a + 2 * h) - st(a)) / (2 * h)
        d_in = (st(a) - st(a - 2 * h)) / (2 * h)
        jump = d_out - d_in
        assert abs(jump + 1j * b * st(a)) < 2e-4
    # analytic branches give the jump to near machine precision
    k = st.pole.k
    jump_exact = 1j * k * st.B * cmath.exp(1j * k * a) - st.A * k * cmath.cos(k * a)
    assert abs(jump_exact + 1j * b * st.A * cmath.sin(k * a)) < 1e-10


def test_sign_flip_leaves_products_invariant(basis40):
    st = basis40.state(3)
    r, rp = 0.3, 0.7
    product = st(r) * st(rp)
    flipped = (-st(r)) * (-st(rp))
    assert product == flipped


def test_sum_rule_inverse_k(basis40):
    # frozen trend: |defect| decreasing in N and small at N = 40
    for (r, rp) in [(0.5, 0.5), (0.3, 0.7)]:
        d10 = abs(sum_rule_defect(basis40, r, rp, -1, 10))
        d40 = abs(sum_rule_defect(basis40, r, rp, -1, 40))
        assert d40 < 0.05
        assert d40 < d10
    assert abs(sum_rule_defect(basis40, 0.5, 0.5, -1, 40)) == pytest.approx(0.00507, abs=5e-4)
    assert abs(sum_rule_defect(basis40, 0.3, 0.7, -1, 40)) == pytest.approx(0.00436, abs=5e-4)


def test_sum_rules_orders_zero_and_plus_one_need_damping(basis40):
    """Raw symmetric partial sums for k^0 and k^+1 grow with N (the identities
    hold distributionally); the Gaussian damping the contour rotation supplies
    makes both collapse to zero.
    """
    raw0_10 = abs(sum_rule_defect(basis40, 0.3, 0.7, 0, 10))
    raw0_40 = abs(sum_rule_defect(basis40, 0.3, 0.7, 0, 40))
    assert raw0_40 > raw0_10  # divergent raw partial sums, documented behaviour
    assert abs(gaussian_damped_sum_rule(basis40, 0.3, 0.7, 0, 40, eps=0.003)) < 1e-3
    assert abs(gaussian_damped_sum_rule(basis40, 0.3, 0.7, 1, 40, eps=0.01)) < 1e-4


def test_sum_rule_validation(basis40, pot9):
    with pytest.raises(ValueError):
        sum_rule_defect(basis40, pot9.a, pot9.a, -1, 10)
    with pytest.raises(ValueError):
        sum_rule_defect(basis40, 0.3, 0.7, 2, 10)
    with pytest.raises(ValueError):
        sum_rule_defect(basis40, 0.3, 0.7, -1, 99)


def test_green_expansion_converges_to_closed_form(basis40, pot9):
    k = 2.0 + 0j
    exact = green_function(0.3, 0.6, k, pot9)
    rel40 = abs(green_expansion(basis40, 0.3, 0.6, k, 40) - exact) / abs(exact)
    rel10 = abs(green_expansion(basis40, 0.3, 0.6, k, 10) - exact) / abs(exact)
    assert rel40 < 1e-3
    assert rel40 < rel10


def test_eval_vectorized(basis40):
    st = basis40.state(1)
    r = np.linspace(0, 1.5, 31)
    vals = st(r)
    assert vals.shape == r.shape
    assert vals[0] == 0
