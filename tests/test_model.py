import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from deltashell import (DeltaShellPotential, SineInitialState, box_state,
                        normalization_constant)


def test_potential_validation():
    with pytest.raises(ValueError):
        DeltaShellPotential(b=-1.0)
    with pytest.raises(ValueError):
        DeltaShellPotential(b=0.0)
    with pytest.raises(ValueError):
        DeltaShellPotential(b=1.0, a=-2.0)


def test_normalization_constant_box_modes():
    # sin(2 q pi) = 0, so every box mode gives exactly sqrt(2/a)
    for q in (1, 2, 6):
        assert normalization_constant(q * math.pi, 1.0) == pytest.approx(math.sqrt(2), abs=1e-14)
    assert normalization_constant(4.5 * math.pi, 1.0) == pytest.approx(math.sqrt(2), abs=1e-14)


def test_normalization_constant_generic_value():
    # frozen against direct quadrature of |N sin(r)|^2 over [0, 1]
    val = normalization_constant(1.0, 1.0)
    assert val == pytest.approx(1.9150354897882869, abs=1e-13)
    norm = quad(lambda r: (val * math.sin(r)) ** 2, 0, 1, epsabs=1e-13)[0]
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_normalization_constant_validation():
    with pytest.raises(ValueError):
        normalization_constant(-1.0, 1.0)
    with pytest.raises(ValueError):
        normalization_constant(1.0, 0.0)


def test_amplitude_values():
    state = box_state(1, a=2.0)
    assert state.amplitude(0.0) == 0.0
    assert state.amplitude(1.0) == pytest.approx(math.sqrt(2 / 2.0), rel=1e-14)
    assert state.amplitude(3.0) == 0.0  # compact support


def test_amplitude_vectorized():
    state = SineInitialState.from_wavenumber(2.3, a=1.0)
    r = np.array([0.0, 0.4, 0.99, 1.0, 1.5])
    vals = state.amplitude(r)
    assert vals.shape == r.shape
    assert vals[-1] == 0.0
    assert vals[1] == pytest.approx(state.N_c * math.sin(2.3 * 0.4), rel=1e-14)


def test_box_state_matches_generic_constructor():
    for q in (1, 3, 5):
        via_box = box_state(q)
        via_kc = SineInitialState.from_wavenumber(q * math.pi, 1.0)
        r = np.linspace(0, 1.2, 77)
        np.testing.assert_allclose(via_box.amplitude(r), via_kc.amplitude(r),
                                   rtol=0, atol=1e-13)


def test_box_state_validation():
    with pytest.raises(ValueError):
        box_state(0)
    with pytest.raises(ValueError):
        box_state(-3)


@settings(max_examples=40, deadline=None)
@given(k_c=st.floats(min_value=0.05, max_value=60.0),
       a=st.floats(min_value=0.2, max_value=5.0))
def test_unit_norm_property(k_c, a):
    state = SineInitialState.from_wavenumber(k_c, a)
    norm = quad(lambda r: state.amplitude(r) ** 2, 0, a, epsabs=1e-13, limit=200)[0]
    assert abs(norm - 1.0) < 1e-10
