import json
import math

import mpmath
import numpy as np
import pytest

from deltashell import (DeltaShellPotential, Quadrant, count_roots_in_rectangle,
                        find_poles, pole_equation_residual, poles, resonance_parameters)
from deltashell.errors import BoundaryRootError, CompletenessError
from deltashell.io import SCHEMA_VERSION, pole_set_to_csv, pole_set_to_json
from deltashell.poles import _acceptance_bound, _boundary_winding
from deltashell.verify import run_verification

from reference_values import (REFERENCE_POLES, boundary_winding, lambert_w_improper_poles,
                              lambert_w_proper_poles)


def test_residual_at_reference_roots(pot9):
    # the published poles carry 5 decimals; rounding alone leaves a residual
    # up to |f'| * 5e-6 (about 2e-4 for row 1, 3e-4 for the near-real pole)
    assert abs(pole_equation_residual(3.13260 - 0.18350j, pot9)) < 2e-4
    assert abs(pole_equation_residual(-14.13717 + 0.00001j, pot9)) < 4e-4


def test_residual_nonzero_off_roots(pot9):
    assert abs(pole_equation_residual(1 + 1j, pot9)) > 1.0


def test_residual_rejects_origin(pot9):
    with pytest.raises(ValueError):
        pole_equation_residual(0.0, pot9)


def test_root_counts(pot9):
    # the strip up to Re k = 35 holds an 11th pole at ~34.5 - 0.89j
    assert count_roots_in_rectangle((0, 35, -1, 0), pot9) == 11
    assert count_roots_in_rectangle((0, 33, -1, 0), pot9) == 10
    assert count_roots_in_rectangle((1, 2, 1, 2), pot9) == 0  # causality: none in Q1
    assert count_roots_in_rectangle((-15, -13, -0.1, 0.1), pot9) == 1  # singular pole


def test_no_imaginary_axis_roots(pot9):
    assert count_roots_in_rectangle((-1e-6, 1e-6, 0.5, 4.0), pot9) == 0
    assert count_roots_in_rectangle((-1e-6, 1e-6, -4.0, -0.5), pot9) == 0


def test_count_excludes_origin_zero(pot9):
    # the pole equation has a removable zero at k = 0 that must not be counted
    assert count_roots_in_rectangle((-0.5, 0.5, -0.5, 0.5), pot9) == 0


def test_count_boundary_on_root_is_handled(pot9):
    # left edge passes through the real-axis pole at -9 pi / 2; the
    # deterministic jitter must resolve it to an integer without raising
    n = count_roots_in_rectangle((-4.5 * math.pi, -13.0, -0.1, 0.1), pot9)
    assert n in (0, 1)


def _winding_outcome(count, *args):
    """A winding count, or the message of the BoundaryRootError it raised."""
    try:
        return count(*args)
    except BoundaryRootError as exc:
        return f"BoundaryRootError: {exc}"


def _assert_windings_match_referee(rects):
    """The array winding count against the scalar referee on (rect, pot) pairs."""
    for (x0, x1, y0, y1), pot in rects:
        assert _winding_outcome(_boundary_winding, x0, x1, y0, y1, pot) == \
            _winding_outcome(boundary_winding, x0, x1, y0, y1, pot.b, pot.a), \
            f"b={pot.b!r} a={pot.a} rect={(x0, x1, y0, y1)!r}"


def test_winding_matches_scalar_referee_on_random_rectangles():
    """3000 seeded rectangles over b in [0.01, 1000] and five radii a."""
    rng = np.random.default_rng(20161)
    rects = []
    for _ in range(3000):
        a = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
        pot = DeltaShellPotential(b=float(np.exp(rng.uniform(math.log(0.01), math.log(1000)))),
                                  a=a)
        x0, y0 = rng.uniform(-40, 40) / a, rng.uniform(-6, 4) / a
        rects.append(((x0, x0 + rng.uniform(0.01, 30) / a, y0, y0 + rng.uniform(0.01, 6) / a),
                      pot))
    _assert_windings_match_referee(rects)


@pytest.mark.parametrize("b,a,n", [(0.3, 1.0, 40), (4.5 * math.pi, 1.0, 40), (100.0, 2.0, 200)],
                         ids=["b0.3", "b4.5pi", "b100_a2_n200"])
def test_winding_matches_scalar_referee_on_find_poles_rectangles(monkeypatch, b, a, n):
    """Every rectangle find_poles counts, jittered retries included."""
    rects = []

    def recorded(x0, x1, y0, y1, pot):
        rects.append(((x0, x1, y0, y1), pot))
        return _boundary_winding(x0, x1, y0, y1, pot)

    monkeypatch.setattr(poles, "_boundary_winding", recorded)
    poles._proper_poles.cache_clear()
    find_poles(DeltaShellPotential(b=b, a=a), n, n)
    assert len(rects) > 10
    _assert_windings_match_referee(rects)


def test_winding_matches_scalar_referee_on_edges_through_roots(pot9):
    """Edges through the removable zero k = 0 and through a Lambert W pole."""
    kp = complex(lambert_w_proper_poles(pot9.b, pot9.a, 3)[2])
    km = complex(lambert_w_improper_poles(pot9.b, pot9.a, 5)[4])  # the near-real pole
    rects = [(-3.0, 0.0, -1.0, 1.0), (-1.0, 1.0, 0.0, 2.0), (-1.0, 1.0, -2.0, 0.0),
             (0.0, 3.0, -1.0, 1.0), (kp.real, kp.real + 1, kp.imag, kp.imag + 1),
             (kp.real - 1, kp.real + 1, kp.imag, kp.imag + 1),
             (km.real - 1, km.real, -0.5, 0.5), (km.real - 1, km.real + 1, km.imag, 1.0)]
    outcomes = [_winding_outcome(_boundary_winding, *r, pot9) for r in rects]
    assert outcomes[:4] == [0, 0, 0, 0]  # k = 0 is a removable zero, never a root
    assert all(o.startswith("BoundaryRootError") for o in outcomes[4:])
    _assert_windings_match_referee([(r, pot9) for r in rects])


def test_reference_pole_table(ps10):
    for p, (rem, imm, rep, imp) in REFERENCE_POLES.items():
        kp = ps10.by_index(p).k
        km = ps10.by_index(-p).k
        assert kp.real == pytest.approx(rep, abs=1e-4)
        assert kp.imag == pytest.approx(imp, abs=1e-4)
        assert km.real == pytest.approx(rem, abs=1e-4)
        assert km.imag == pytest.approx(imm, abs=1e-4)


def test_quadrant_classification(ps10):
    assert ps10.by_index(1).quadrant is Quadrant.FOURTH
    assert ps10.by_index(-1).quadrant is Quadrant.SECOND
    assert ps10.by_index(-5).quadrant is Quadrant.REAL_AXIS
    assert ps10.by_index(-6).quadrant is Quadrant.THIRD


def test_proper_pole_geometry(ps40):
    alphas = [p.alpha for p in ps40.proper]
    betas = [p.beta for p in ps40.proper]
    assert all(a > b > 0 for a, b in zip(alphas, betas))
    assert all(np.diff(alphas) > 0)
    assert all(np.diff(betas) > 0)  # monotone for this intensity
    # asymptotics: proper real parts track p*pi, improper tend to (2p-1)*pi/2
    for p in range(1, 11):
        assert abs(ps40.by_index(p).alpha - p * math.pi) < 0.5
    for p in range(5, 11):
        assert abs(ps40.by_index(-p).k.real + (2 * p - 1) * math.pi / 2) < 0.5


def test_resonance_parameters(ps10):
    e1, g1 = resonance_parameters(ps10.by_index(1))
    assert e1 == pytest.approx(9.7795, abs=1e-3)
    assert g1 == pytest.approx(2.2993, abs=1e-3)
    assert all(p.resonance_position > p.width for p in ps10.proper)
    with pytest.raises(ValueError):
        resonance_parameters(ps10.by_index(-1))


def test_resonance_position_vanishes_on_diagonal():
    from deltashell import Pole
    # a hypothetical pole with alpha = beta sits at zero resonance energy
    assert Pole(index=7, k=2.0 - 2.0j).resonance_position == 0.0


def test_residuals_below_invariant(ps40, pot9):
    assert max(abs(pole_equation_residual(p.k, pot9)) for p in ps40) < 1e-10


def test_find_poles_deterministic(pot9):
    a = find_poles(pot9, 6, 6)
    b = find_poles(pot9, 6, 6)
    assert [p.k for p in a] == [p.k for p in b]


def test_no_duplicates(ps40):
    ks = [p.k for p in ps40]
    for i, k1 in enumerate(ks):
        assert all(abs(k1 - k2) > 1e-8 for k2 in ks[i + 1:])


def test_find_poles_small_intensity():
    # broad-resonance regime: same machinery, poles sit much deeper
    pot = DeltaShellPotential(b=0.1)
    ps = find_poles(pot, 3, 3)
    assert abs(ps.by_index(1).k - (2.82192 - 2.13538j)) < 1e-4
    assert all(abs(pole_equation_residual(p.k, pot)) < 1e-10 for p in ps)


def test_find_poles_deep_proper_family():
    """At b = 0.05, a = 1 the 200th proper pole lies at Im k = -5.07, below the
    improper region's depth BETA_MARGIN/a = 5; the seeded proper solve has no
    depth limit, while the bisected improper family still runs out of region.
    """
    pot = DeltaShellPotential(b=0.05, a=1.0)
    ps = find_poles(pot, 200, 1)
    k = np.array([p.k for p in ps.proper])
    assert k[-1].imag < -5.0
    np.testing.assert_allclose(k, lambert_w_proper_poles(pot.b, pot.a, 200), rtol=1e-13, atol=0)
    with pytest.raises(CompletenessError, match="improper region"):
        find_poles(pot, 200, 200)


def test_lambert_w_proper_referee_drops_the_removable_zero():
    """At b = 1.7782794100389228, a = 0.5 the Lambert W branches return the
    removable zero with Re k ~ 1e-16; the referee drops it and agrees with the
    seeded proper solve.
    """
    pot = DeltaShellPotential(b=1.7782794100389228, a=0.5)
    ref = lambert_w_proper_poles(pot.b, pot.a, 3)
    assert np.all(np.abs(ref) * pot.a > 1e-8)
    np.testing.assert_allclose(poles._proper_poles(pot, 3), ref, rtol=1e-13, atol=0)


def test_verify_pole_check_at_large_intensity():
    """At b = 224 the worst residual, 1.3e-10, is within 0.46 of the acceptance bound.

    verify gates each pole by find_poles' rule, max(1e-12, 8 x noise floor),
    not by a fixed 1e-10. Evaluated at 50 digits, the residual at each
    double-precision root is below that bound too: what is left comes from
    rounding k to a double, which the noise-floor model covers.
    """
    pot = DeltaShellPotential(b=224.0)
    check = next(c for c in run_verification(pot) if c.name == "pole_equation_residual")
    assert check.status == "pass"
    assert check.value < check.threshold == 1.0
    with mpmath.workdps(50):
        for pole in find_poles(pot, 40, 40):
            k = mpmath.mpc(pole.k.real, pole.k.imag)
            exact = abs(2 * k - pot.b * (mpmath.exp(2j * k * pot.a) - 1))
            assert exact < _acceptance_bound(pole.k, pot.b, pot.a), pole


def test_find_poles_validation(pot9):
    with pytest.raises(ValueError):
        find_poles(pot9, 0, 5)


def test_csv_round_trip_bit_exact(ps10, basis40):
    lines = pole_set_to_csv(ps10).splitlines()
    assert lines[:3] == [f"# schema_version = {SCHEMA_VERSION}", f"# b = {ps10.potential.b!r}",
                         f"# a = {ps10.potential.a!r}"]
    assert lines[3] == "index,re_k,im_k,resonance_position,width"
    rows = [line.split(",") for line in lines[4:]]
    ordered = ps10.improper + ps10.proper
    assert [int(r[0]) for r in rows] == [p.index for p in ordered]
    assert [complex(float(r[1]), float(r[2])) for r in rows] == [p.k for p in ordered]
    # with state amplitudes appended the pole columns stay identical
    lines_A = pole_set_to_csv(ps10, basis40).splitlines()
    assert lines_A[3] == lines[3] + ",re_A,im_A"
    rows_A = [line.split(",") for line in lines_A[4:]]
    assert [r[:5] for r in rows_A] == rows
    assert [complex(float(r[5]), float(r[6])) for r in rows_A] == \
        [basis40.state(p.index).A for p in ordered]


def test_json_round_trip_bit_exact(ps10):
    doc = json.loads(pole_set_to_json(ps10))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["potential"] == {"b": ps10.potential.b, "a": ps10.potential.a}
    ordered = ps10.improper + ps10.proper
    assert [e["index"] for e in doc["poles"]] == [p.index for p in ordered]
    assert [complex(e["re_k"], e["im_k"]) for e in doc["poles"]] == [p.k for p in ordered]
