import math

import mpmath
import numpy as np
import pytest

from deltashell import (DeltaShellPotential, PoleTrajectory, find_poles, find_singularity,
                        jost_function, singularity, track_pole)
from deltashell.errors import CompletenessError, NoCrossingError
from deltashell.poles import _acceptance_bound, newton_polish, pole_equation_residual
from deltashell.singularity import _improper_seed, _locate_crossing, _start_pole

from reference_values import lambert_w_improper_poles

B_STAR = 4.5 * math.pi


def _closed_form(family, a):
    """b* = -k* = (2n - 1) pi / (2a) for family -n, correctly rounded."""
    with mpmath.workdps(40):
        return float((2 * abs(family) - 1) * mpmath.pi / (2 * a))


def test_track_pole_crossing():
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = find_poles(pot0, 6, 6).by_index(-5)
    traj = track_pole(pot0, pole0, 13.0, 15.0, steps=21)
    assert traj.crosses_real_axis
    signs = [k.imag > 0 for _, k in traj.samples]
    assert not signs[0] and signs[-1]  # rises through the axis as b grows
    for b, k in traj.samples:
        assert abs(pole_equation_residual(k, DeltaShellPotential(b=b))) < 1e-10


def test_track_pole_proper_family_stays_off_axis():
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = find_poles(pot0, 2, 2).by_index(1)
    traj = track_pole(pot0, pole0, 13.0, 15.0, steps=21)
    assert not traj.crosses_real_axis
    assert all(k.imag < -0.1 for _, k in traj.samples)


def test_track_pole_degenerate_range():
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = find_poles(pot0, 2, 2).by_index(1)
    traj = track_pole(pot0, pole0, 13.0, 13.0, steps=5)
    assert len(traj.samples) == 1
    assert not traj.crosses_real_axis


def test_find_singularity():
    b_star, k_star = find_singularity(1.0, -5, 13.0, 15.0)
    assert b_star == pytest.approx(B_STAR, abs=1e-6)
    assert k_star == pytest.approx(-B_STAR, abs=1e-6)
    pot_star = DeltaShellPotential(b=b_star)
    # a real-axis zero of the Jost function: the continuum solution is singular
    assert abs(jost_function(complex(k_star), pot_star)) < 1e-9


@pytest.mark.parametrize("a,family", [(1.0, -60), (0.5, -80), (1.0, -100)])
def test_find_singularity_far_family(a, family):
    """Family -n meets the axis where e^{2ika} = -1: b* = -k* = (2n - 1) pi / (2a).

    Far out the residual's noise floor exceeds 1e-10, so every trajectory
    sample must be accepted by newton_polish's noise-floor rule alone.
    """
    closed = (2 * abs(family) - 1) * math.pi / (2 * a)
    b_star, k_star = find_singularity(a, family, closed - 1, closed + 1)
    assert abs(b_star - closed) <= 4 * math.ulp(closed)
    assert abs(k_star + closed) <= 4 * math.ulp(closed)


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0], ids=["a0.25", "a1", "a4"])
def test_find_singularity_to_the_last_ulp(a):
    """Families -1 ... -60 on b* +- 1/a, and family -7 on [b*/2, 2 b*]: b* and
    k* within 4 ulp of the closed form, the pole equation below the
    acceptance bound every root meets.
    """
    cases = [(-n, _closed_form(-n, a) - 1 / a, _closed_form(-n, a) + 1 / a)
             for n in range(1, 61)]
    cases.append((-7, _closed_form(-7, a) / 2, 2 * _closed_form(-7, a)))
    for family, b_lo, b_hi in cases:
        closed = _closed_form(family, a)
        b_star, k_star = find_singularity(a, family, b_lo, b_hi)
        label = f"family {family}, a={a}, [{b_lo}, {b_hi}]"
        assert abs(b_star - closed) <= 4 * math.ulp(closed), label
        assert abs(k_star + closed) <= 4 * math.ulp(closed), label
        pot = DeltaShellPotential(b=b_star, a=a)
        assert abs(pole_equation_residual(complex(k_star), pot)) < \
            _acceptance_bound(k_star, pot), label


def test_crossing_newton_rejects_a_crossing_outside_its_bracket():
    """Two samples whose Im k changes sign seed the bordered Newton, which
    converges to b* = 9 pi/2, outside [13, 13.5]: NoCrossingError.
    """
    traj = PoleTrajectory(family=-5, a=1.0,
                          samples=[(13.0, complex(-14.13, -0.08)), (13.5, complex(-14.13, 0.01))])
    with pytest.raises(NoCrossingError, match="left the bracket"):
        _locate_crossing(traj)
    assert traj.crossing is None


def test_improper_seed_polishes_to_the_lambert_w_pole():
    """Seed + newton_polish lands on pole -n over 45 b x 5 a x 23 families,
    and at b = 9 pi/2, a = 2, where 1 + 2k/b passes near 0 (family -5).
    """
    families = list(range(1, 21)) + [30, 45, 60]
    grid = [(float(b), a) for b in np.geomspace(0.05, 1000, 45)
            for a in (0.25, 0.5, 1.0, 2.0, 4.0)] + [(4.5 * math.pi, 2.0)]
    for b, a in grid:
        pot = DeltaShellPotential(b=b, a=a)
        ref = lambert_w_improper_poles(b, a, max(families))
        for n in families:
            k = newton_polish(_improper_seed(pot, n), pot)
            assert k == pytest.approx(ref[n - 1], rel=1e-12), f"b={b!r} a={a} family -{n}"


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_start_pole_certificate_agrees_with_find_poles(a):
    """The two-count certificate picks the pole find_poles indexes -n, on a
    geometric (b, n) grid.
    """
    for b in np.geomspace(0.1, 300, 23):
        pot = DeltaShellPotential(b=float(b), a=a)
        for n in (1, 3, 8):
            pole = _start_pole(pot, -n)
            assert pole.index == -n
            assert pole.k == pytest.approx(find_poles(pot, n, n).by_index(-n).k, rel=1e-12)


def test_start_pole_rejects_a_patched_count(monkeypatch):
    """A winding count that disagrees with the seeded root's index is a typed error."""
    pot = DeltaShellPotential(b=13.0, a=1.0)
    count = singularity.count_roots_in_rectangle
    inner = lambda rect, p: count(rect, p) + (rect[1] == 0.0)  # noqa: E731
    for patched in (lambda rect, p: 2, lambda rect, p: 0, inner):
        monkeypatch.setattr(singularity, "count_roots_in_rectangle", patched)
        with pytest.raises(CompletenessError, match="winding counts"):
            find_singularity(1.0, -5, 13.0, 15.0)


def test_find_singularity_scan_direction_symmetry():
    up, _ = find_singularity(1.0, -5, 13.0, 15.0)
    down, _ = find_singularity(1.0, -5, 13.5, 14.8)
    assert abs(up - down) < 1e-9


def test_no_crossing_for_proper_family():
    with pytest.raises(NoCrossingError):
        find_singularity(1.0, 1, 13.0, 15.0)


def test_crossing_is_transversal():
    """Perturbing b away from b* moves the pole off the axis again."""
    b_star, _ = find_singularity(1.0, -5, 13.0, 15.0)
    for b in (b_star - 0.1, b_star + 0.1):
        ps = find_poles(DeltaShellPotential(b=b), 6, 6)
        assert abs(ps.by_index(-5).k.imag) > 1e-3


def test_solver_reproduces_crossing_pole():
    b_star, k_star = find_singularity(1.0, -5, 13.0, 15.0)
    ps = find_poles(DeltaShellPotential(b=b_star), 6, 6)
    assert abs(ps.by_index(-5).k - k_star) < 1e-8
    assert abs(ps.by_index(-5).k.imag) < 1e-10


def test_validation():
    with pytest.raises(ValueError):
        find_singularity(1.0, -5, 15.0, 13.0)
    with pytest.raises(ValueError):
        find_singularity(1.0, 0, 13.0, 15.0)
    with pytest.raises(TypeError):
        find_singularity(1.0, -5, 13.0, 15.0, 21, 6)  # n_poles is gone
