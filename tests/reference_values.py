"""Benchmark values for the b = 9*pi/2, a = 1 shell (five-decimal precision).

Pole rows are (Re k, Im k) per family; overlap rows are the squared
coefficients C_p^2 of the k_c = 9*pi/2 initial state. lambert_w_proper_poles
and lambert_w_improper_poles are independent referees for the two pole
families at any (b, a); boundary_winding is the scalar referee of the
package's array winding count.
"""
import cmath
import math

import numpy as np
from scipy.special import lambertw

from deltashell.errors import BoundaryRootError


def _lambert_w_roots(b, a, branches):
    """Every pole-equation root k_m = (i W_m(z)/a - b)/2 on the given branches.

    With u = 2k + b the pole equation becomes w e^w = z for w = -i a u and
    z = -i a b e^{-iab}. The removable zero k = 0 is one of these roots.
    """
    z = -1j * a * b * np.exp(-1j * a * b)
    return (1j * lambertw(z, branches) / a - b) / 2


def lambert_w_proper_poles(b, a, n):
    """First n proper poles, in order of Re k, from the Lambert W function.

    The proper family lies on the branches m <= 0 (from m = -1 at small ab).
    """
    k = _lambert_w_roots(b, a, np.arange(-(n + int(a * b / (2 * math.pi)) + 2), 1))
    k = np.sort_complex(k[k.real > 0])
    assert k.size >= n, f"Lambert W branches held {k.size} proper poles, need {n}"
    return k[:n]


def lambert_w_improper_poles(b, a, n):
    """First n improper poles, in order of -Re k (index -1, -2, ...), from Lambert W.

    The improper family (Re k < 0) spreads over branches of both signs, so
    every branch within n + ab/(2 pi) + 4 of the principal one is taken and
    the removable zero k = 0 dropped.
    """
    m_max = n + int(a * b / (2 * math.pi)) + 4
    k = _lambert_w_roots(b, a, np.arange(-m_max, m_max + 1))
    k = k[(k.real < 0) & (np.abs(k) * a > 1e-8)]
    k = k[np.argsort(-k.real)]
    assert k.size >= n, f"Lambert W branches held {k.size} improper poles, need {n}"
    return k[:n]


def _reduced_residual(k, b, a):
    """(2k - b (e^{2ika} - 1))/k in scalar complex arithmetic, continued through k = 0."""
    if abs(k) * a < 1e-8:
        x = 2j * a
        return 2 - b * (x + x * x * k / 2 + x * x * x * k * k / 6)
    return (2 * k - b * (cmath.exp(2j * k * a) - 1)) / k


def boundary_winding(x0, x1, y0, y1, b, a, max_depth=48):
    """Scalar referee of poles._boundary_winding: the same samples, one at a time.

    Each edge is presampled at max(8, 4 a length + 1) segments; a depth-first
    stack halves each segment whose phase step is >= 0.8 rad. A sample within
    1e-12 max(1, b) of zero raises BoundaryRootError.
    """
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
               complex(x0, y1), complex(x0, y0)]
    scale = max(1.0, abs(b))
    total = 0.0
    for c0, c1 in zip(corners[:-1], corners[1:]):
        length = abs(c1 - c0)
        n = max(8, int(length * 2 * a / 0.5) + 1)
        samples = [c0 + (c1 - c0) * j / n for j in range(n + 1)]
        values = [_reduced_residual(z, b, a) for z in samples]
        for j in range(n):
            stack = [(samples[j], samples[j + 1], values[j], values[j + 1], 0)]
            while stack:
                z0, z1, f0, f1, depth = stack.pop()
                if abs(f0) < 1e-12 * scale or abs(f1) < 1e-12 * scale:
                    raise BoundaryRootError("rectangle boundary passes through a root")
                dphi = cmath.phase(f1 / f0)
                if abs(dphi) < 0.8 or depth >= max_depth:
                    total += dphi
                else:
                    zm = (z0 + z1) / 2
                    fm = _reduced_residual(zm, b, a)
                    stack.append((z0, zm, f0, fm, depth + 1))
                    stack.append((zm, z1, fm, f1, depth + 1))
    w = total / (2 * math.pi)
    if abs(w - round(w)) > 0.15:
        raise BoundaryRootError(f"winding number did not close to an integer: {w}")
    return round(w)


# p -> (re_k_improper, im_k_improper, re_k_proper, im_k_proper)
REFERENCE_POLES = {
    1: (-3.10532, 0.28798, 3.13260, -0.18350),
    2: (-5.96420, 0.81871, 6.27128, -0.31770),
    3: (-8.17293, 0.81868, 9.41193, -0.42343),
    4: (-11.03184, 0.28796, 12.55336, -0.51067),
    5: (-14.13717, 0.00001, 15.69512, -0.58492),
    6: (-17.26976, -0.18351, 18.83702, -0.64956),
    7: (-20.40845, -0.31770, 21.97898, -0.70679),
    8: (-23.54910, -0.42343, 25.12097, -0.75813),
    9: (-26.69053, -0.51067, 28.26295, -0.80469),
    10: (-29.83228, -0.58493, 31.40492, -0.84728),
}

# p -> (Re C_{-p}^2, Im C_{-p}^2, Re C_p^2, Im C_p^2) for k_c = 9*pi/2
REFERENCE_OVERLAPS_SS = {
    1: (0.00108, -0.00039, 0.00111, -0.00020),
    2: (0.00357, -0.00644, 0.00662, -0.00131),
    3: (-0.00817, -0.00757, 0.03260, -0.00914),
    4: (-0.00663, -0.00112, 0.31311, -0.26619),
    5: (0.99502, 0.07038, 0.44151, 0.33393),
    6: (-0.00419, -0.00017, 0.08426, 0.01809),
    7: (-0.00370, -0.00001, 0.03770, 0.00464),
    8: (-0.00335, -0.00006, 0.02282, 0.00195),
    9: (-0.00308, -0.00004, 0.01595, 0.00105),
    10: (-0.00286, -0.00002, 0.01212, 0.00064),
}

# q -> Re C_q^2 for the box states with maximum overlap on pole q
REFERENCE_BOX_DOMINANCE = {1: 1.0129, 2: 1.0355, 6: 1.1494}

RESONANCE_E1 = 9.7795
RESONANCE_G1 = 2.2993
RESONANCE_RATIO = 4.25
