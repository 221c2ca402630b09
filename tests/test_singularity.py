import math

import pytest

from deltashell import (DeltaShellPotential, find_poles, find_singularity,
                        jost_function, track_pole)
from deltashell.errors import NoCrossingError
from deltashell.poles import pole_equation_residual

B_STAR = 4.5 * math.pi


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
    assert b_star == pytest.approx(closed, rel=1e-9)
    assert k_star == pytest.approx(-closed, rel=1e-12)


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
