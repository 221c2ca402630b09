import math

import mpmath
import numpy as np
import pytest

from deltashell import (DeltaShellPotential, find_poles, find_singularity, jost_function,
                        singularity, track_pole)
from deltashell.errors import CompletenessError, NoCrossingError, TrajectoryLostError
from deltashell.poles import Pole, _acceptance_bound, _newton, _seeds, pole_equation_residual
from deltashell.singularity import _start_pole, _trajectory

from reference_values import lambert_w_improper_poles, lambert_w_proper_poles

B_STAR = 4.5 * math.pi


def _closed_form(family, a):
    """b* = -k* = (2n - 1) pi / (2a) for family -n, correctly rounded."""
    with mpmath.workdps(40):
        return float((2 * abs(family) - 1) * mpmath.pi / (2 * a))


def test_track_pole_crossing():
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = find_poles(pot0, 6, 6).by_index(-5)
    traj = track_pole(pot0, pole0, 13.0, 15.0, steps=21)
    assert traj.k[0].imag < 0 < traj.k[-1].imag  # rises through the axis as b grows
    for b, k in zip(traj.b.tolist(), traj.k.tolist()):
        assert abs(pole_equation_residual(k, DeltaShellPotential(b=b))) < 1e-10


def test_track_pole_proper_family_stays_off_axis():
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = find_poles(pot0, 2, 2).by_index(1)
    traj = track_pole(pot0, pole0, 13.0, 15.0, steps=21)
    assert np.all(traj.k.imag < -0.1)


def test_track_pole_degenerate_range():
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = find_poles(pot0, 2, 2).by_index(1)
    traj = track_pole(pot0, pole0, 13.0, 13.0, steps=5)
    assert traj.b.tolist() == [13.0] and traj.k.shape == (1,)
    assert traj.k[0].imag < 0


def test_track_pole_samples_the_linspace_grid():
    """`steps` samples at np.linspace(b_from, b_to, steps): both ends exact, b rising,
    held as read-only float b and complex k arrays of one length.
    """
    pot0 = DeltaShellPotential(b=13.0)
    for family, b_to, steps in ((-5, 15.0, 21), (-5, 13.7, 8), (2, 14.3, 11)):
        traj = track_pole(pot0, _start_pole(pot0, family), 13.0, b_to, steps)
        assert traj.b.dtype == float and traj.k.dtype == complex
        assert traj.b.shape == traj.k.shape == (steps,)
        assert traj.b[0] == 13.0 and traj.b[-1] == b_to
        assert np.all(np.diff(traj.b) > 0)
        assert not traj.b.flags.writeable and not traj.k.flags.writeable


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_trajectory_samples_are_the_lambert_w_poles(a):
    """Families -1 ... -60 and +1 ... +5 traced over [b*/2, 2 b*] with 41 steps,
    b* = (2n - 1) pi/(2a) for family +-n: every sample is its family's Lambert W
    pole to rel 1e-12.
    """
    for family in list(range(-1, -61, -1)) + [1, 2, 3, 4, 5]:
        n = abs(family)
        referee = lambert_w_improper_poles if family < 0 else lambert_w_proper_poles
        b_star = _closed_form(family, a)
        ref = [referee(b, a, n)[n - 1] for b in np.linspace(b_star / 2, 2 * b_star, 41)]
        pot0 = DeltaShellPotential(b=b_star / 2, a=a)
        traj = track_pole(pot0, Pole(family, complex(ref[0])), b_star / 2, 2 * b_star, 41)
        np.testing.assert_allclose(traj.k, ref, rtol=1e-12, atol=0,
                                   err_msg=f"family {family}, a={a}")


def test_track_pole_loses_a_start_pole_of_another_family():
    """A start pole of family -4 labelled -5 lies a whole pole spacing from
    family -5's asymptote.
    """
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = Pole(-5, _start_pole(pot0, -4).k)
    with pytest.raises(TrajectoryLostError, match="b=13.0 .* from the family's asymptote"):
        track_pole(pot0, pole0, 13.0, 15.0, steps=21)


def test_track_pole_takes_coarse_steps_along_one_family():
    """Family -1 moves further than pi/(2a) between the 21 samples of
    [0.05, 1000]; each sample is still its Lambert W pole.
    """
    pot0 = DeltaShellPotential(b=0.05)
    traj = track_pole(pot0, _start_pole(pot0, -1), 0.05, 1000.0, 21)
    assert np.abs(np.diff(traj.k)).max() > math.pi / 2
    ref = [lambert_w_improper_poles(b, 1.0, 1)[0] for b in traj.b]
    np.testing.assert_allclose(traj.k, ref, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the NaN seeds
@pytest.mark.parametrize("name,patched,match", [
    ("_seeds", lambda index, b, a: _seeds(index - 1, b, a), "asymptote"),
    ("_newton", lambda k, b, a: _newton(k - math.pi / a, b, a), "asymptote"),
    ("_seeds", lambda index, b, a: np.full(np.shape(b), complex(np.nan)), "unconverged"),
], ids=["seeds_of_family_-6", "newton_onto_family_-6", "nan_seeds"])
def test_track_pole_rejects_a_lost_family(monkeypatch, name, patched, match):
    """Seeds of another family, a Newton that lands on another family and
    seeds Newton cannot converge from raise TrajectoryLostError.
    """
    pot0 = DeltaShellPotential(b=13.0)
    pole0 = _start_pole(pot0, -5)
    monkeypatch.setattr(singularity, name, patched)
    with pytest.raises(TrajectoryLostError, match=match):
        track_pole(pot0, pole0, 13.0, 15.0, steps=21)


def test_find_singularity():
    b_star, k_star = find_singularity(1.0, -5, 13.0, 15.0)
    assert b_star == pytest.approx(B_STAR, abs=1e-6)
    assert k_star == pytest.approx(-B_STAR, abs=1e-6)
    pot_star = DeltaShellPotential(b=b_star)
    # a real-axis zero of the Jost function: the continuum solution is singular
    assert abs(jost_function(complex(k_star), pot_star)) < 1e-9


@pytest.mark.parametrize("a,family", [(1.0, -60), (0.5, -80), (1.0, -100)])
def test_find_singularity_far_family(a, family):
    """Family -n meets the axis where e^{2ika} = -1: b* = -k* = (2n - 1) pi / (2a)."""
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
            _acceptance_bound(k_star, pot.b, pot.a), label


@pytest.mark.parametrize("family,b_hi", [(-10, 358.14), (-30, 1200.0)])
def test_find_singularity_from_small_ab(family, b_hi):
    """At b = 0.01, a = 0.25 the start pole of family -n lies below find_poles'
    depth BETA_MARGIN/a (a |Im k| = 5.05 for n = 10); the certificate's
    rectangles reach below it, and b*, k* come out within 4 ulp of the closed form.
    """
    a, n = 0.25, -family
    pole = _start_pole(DeltaShellPotential(b=0.01, a=a), family)
    assert pole.k == pytest.approx(lambert_w_improper_poles(0.01, a, n)[n - 1], rel=1e-14)
    closed = _closed_form(family, a)
    b_star, k_star = find_singularity(a, family, 0.01, b_hi)
    assert abs(b_star - closed) <= 4 * math.ulp(closed)
    assert abs(k_star + closed) <= 4 * math.ulp(closed)


@pytest.mark.parametrize("family,b_lo,b_hi", [(-5, B_STAR - 1.0, B_STAR),
                                               (-1, 0.5, math.pi / 2)])
def test_crossing_on_the_last_sample_is_found(family, b_lo, b_hi):
    """A bracket that ends at b* (within 1 ulp) holds the crossing: b*, k* within 4 ulp."""
    closed = _closed_form(family, 1.0)
    assert abs(b_hi - closed) <= math.ulp(closed)
    b_star, k_star = find_singularity(1.0, family, b_lo, b_hi)
    assert abs(b_star - closed) <= 4 * math.ulp(closed)
    assert abs(k_star + closed) <= 4 * math.ulp(closed)


def test_improper_seed_polishes_to_the_lambert_w_pole():
    """The improper seeds, polished by the array Newton, land on pole -n over
    45 b x 5 a x 23 families, and at b = 9 pi/2, a = 2, where 1 + 2k/b passes
    near 0 (family -5).
    """
    families = np.array(list(range(1, 21)) + [30, 45, 60])
    grid = [(float(b), a) for b in np.geomspace(0.05, 1000, 45)
            for a in (0.25, 0.5, 1.0, 2.0, 4.0)] + [(4.5 * math.pi, 2.0)]
    for b, a in grid:
        ref = lambert_w_improper_poles(b, a, families.max())[families - 1]
        k = _newton(_seeds(-families, b, a), b, a)
        np.testing.assert_allclose(k, ref, rtol=1e-12, atol=0, err_msg=f"b={b!r} a={a}")


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
            _trajectory(1.0, -5, 13.0, 15.0, 21)


def test_find_singularity_scan_direction_symmetry():
    up, _ = find_singularity(1.0, -5, 13.0, 15.0)
    down, _ = find_singularity(1.0, -5, 13.5, 14.8)
    assert abs(up - down) < 1e-9


def test_no_crossing_for_proper_family():
    with pytest.raises(NoCrossingError):
        find_singularity(1.0, 1, 13.0, 15.0)


@pytest.mark.parametrize("a", [0.3, 1.7, 3.3])
def test_find_singularity_is_correctly_rounded(a):
    """Where a is no power of two, b* and k* are +-(2n - 1) pi/(2a) correctly
    rounded (40-digit mpmath), for families -1 ... -60, -80, -100 and -1000.
    """
    for n in list(range(1, 61)) + [80, 100, 1000]:
        closed = _closed_form(-n, a)
        assert find_singularity(a, -n, closed - 1 / a, closed + 1 / a) == (closed, -closed), \
            f"family {-n}, a={a}"
    closed = _closed_form(-5, a)  # a numpy index is the same family
    assert find_singularity(a, np.int64(-5), closed - 1, closed + 1) == (closed, -closed)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_start_pole_at_the_closed_form_lies_on_it(a):
    """At b = b* the certified start pole of family -n, n = 1 ... 100, keeps
    its index and sits at k = -b* to rel 1e-12: the closed form is the
    package's own family -n.
    """
    for n in range(1, 101):
        b_star = _closed_form(-n, a)
        pole = _start_pole(DeltaShellPotential(b=b_star, a=a), -n)
        assert pole.index == -n
        assert pole.k == pytest.approx(-b_star, rel=1e-12), f"family {-n}, a={a}"


def test_trajectory_crosses_the_axis_at_the_closed_form():
    """Family -n traced on 21 samples of b* +- 1/a rises through the axis, and
    its first sign change of Im k lies on the two samples around b* (4 ulp of
    slack for the sample at b*, whose Im k is rounding noise): n = 1 ... 60 at
    a in {0.25, 1, 4}, and the far families -80 at a = 0.5 and -100 at a = 1,
    whose samples newton_polish's noise-floor rule alone accepts.
    """
    cases = [(a, -n) for a in (0.25, 1.0, 4.0) for n in range(1, 61)]
    for a, family in cases + [(0.5, -80), (1.0, -100)]:
        b_star = _closed_form(family, a)
        traj = _trajectory(a, family, b_star - 1 / a, b_star + 1 / a, 21)
        y, slack = traj.k.imag, 4 * math.ulp(b_star)
        i = np.flatnonzero(np.sign(y[1:]) != np.sign(y[:-1]))[0]
        label = f"family {family}, a={a}"
        assert y[0] < 0 < y[-1], label
        assert traj.b[i] - slack <= b_star <= traj.b[i + 1] + slack, label


@pytest.mark.parametrize("a,b_lo,b_hi", [(1.0, 13.0, 13.5), (1.0, 14.2, 15.0),
                                         (1e-310, 13.0, 15.0)],
                         ids=["below", "above", "beyond_the_largest_float"])
def test_no_crossing_outside_the_bracket(a, b_lo, b_hi):
    """Family -5's b* = 9 pi/(2a) outside [b_lo, b_hi]; at a = 1e-310 it exceeds
    the largest float, so no finite bracket holds it.
    """
    with pytest.raises(NoCrossingError, match="keeps one sign"):
        find_singularity(a, -5, b_lo, b_hi)


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
    with pytest.raises(TypeError):
        find_singularity(1.0, -5, 13.0, 15.0, 21)  # so is steps
