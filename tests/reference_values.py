"""Benchmark values for the b = 9*pi/2, a = 1 shell (five-decimal precision).

Pole rows are (Re k, Im k) per family; overlap rows are the squared
coefficients C_p^2 of the k_c = 9*pi/2 initial state. lambert_w_proper_poles
is an independent referee for the proper family at any (b, a).
"""
import math

import numpy as np
from scipy.special import lambertw


def lambert_w_proper_poles(b, a, n):
    """First n proper poles, in order of Re k, from the Lambert W function.

    With u = 2k + b the pole equation becomes w e^w = z for w = -i a u and
    z = -i a b e^{-iab}, so every root is k_m = (i W_m(z)/a - b)/2. The
    proper family lies on the branches m <= 0 (from m = -1 at small ab).
    """
    z = -1j * a * b * np.exp(-1j * a * b)
    m = np.arange(-(n + int(a * b / (2 * math.pi)) + 2), 1)
    k = (1j * lambertw(z, m) / a - b) / 2
    k = np.sort_complex(k[k.real > 0])
    assert k.size >= n, f"Lambert W branches held {k.size} proper poles, need {n}"
    return k[:n]


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
