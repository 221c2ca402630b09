"""Quantum decay for a purely absorptive delta-shell potential.

Resonance poles of the outgoing Green's function, normalized resonant
(quasinormal) states, survival-probability expansions including the
spectral-singularity-induced oscillatory regime, and an exact
contour-quadrature reference for everything.
"""

from .model import (DeltaShellPotential, SineInitialState, box_state,
                    normalization_constant)
from .poles import (Pole, PoleSet, Quadrant, count_roots_in_rectangle, find_poles,
                    pole_equation_residual)
from .basis import (ResonantBasis, ResonantState, build_basis, green_expansion,
                    normalization_coefficient, sum_rule_defect)
from .expansion import (ETA, ExpansionContext, OverlapSet, SurvivalSeries,
                        build_expansion, build_overlaps, closure_sum, lifetime,
                        survival_amplitude, survival_series, tail_coefficient,
                        transition_time, two_pole_amplitude, wavefunction)
from .oracle import (GAMMA_ROTATION, green_function, jost_function, propagator,
                     residue_at_pole, resolvent_matrix_element, survival_amplitude_exact)
from .singularity import PoleTrajectory, find_singularity, track_pole
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "DeltaShellPotential", "SineInitialState", "box_state", "normalization_constant",
    "Pole", "PoleSet", "Quadrant", "count_roots_in_rectangle", "find_poles",
    "pole_equation_residual",
    "ResonantBasis", "ResonantState", "build_basis", "green_expansion",
    "normalization_coefficient", "sum_rule_defect",
    "ETA", "ExpansionContext", "OverlapSet", "SurvivalSeries", "build_expansion",
    "build_overlaps", "closure_sum", "lifetime",
    "survival_amplitude", "survival_series", "tail_coefficient", "transition_time",
    "two_pole_amplitude", "wavefunction",
    "GAMMA_ROTATION", "green_function", "jost_function", "propagator",
    "residue_at_pole", "resolvent_matrix_element", "survival_amplitude_exact",
    "PoleTrajectory", "find_singularity", "track_pole",
    "run_verification",
]
