"""Locate and classify the complex-k poles of the outgoing Green's function.

The poles are the roots of f(k) = 2k - b (exp(2ika) - 1) = 0 away from the
removable zero at k = 0. _pole_equation is the one evaluation of f and f' in
the package, for scalars and arrays alike. _seeds holds both families'
asymptotes; _newton is the one array Newton that polishes them, here and in
singularity.py's trajectories.
The proper (fourth-quadrant) family is seeded, polished and certified by one
winding-number count (argument principle). The improper family is located by
bisecting rectangles until each isolates a single root, certified by winding
counts and polished with damped scalar Newton iteration (newton_polish).
A PoleSet holds one read-only array of k per family; its Pole objects are
views, built once per set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import BoundaryRootError, CompletenessError, SolverError
from .model import DeltaShellPotential

NEWTON_TOL = 1e-13
ACCEPT_TOL = 1e-12
DUPLICATE_TOL = 1e-8
REAL_AXIS_TOL = 1e-9
JITTER = 1e-6
BETA_MARGIN = 5.0  # search depth below the real axis, in units of 1/a
WINDING_MAX_DEPTH = 48  # halvings of a boundary segment before its phase step is taken as is
MIN_RECT_SIZE = 1e-10   # smallest rectangle side the improper bisection splits
# deterministic jitter directions, scaled by JITTER * rectangle diagonal
_JITTER_SEQ = (1 + 1j, -1 + 2j, 2 - 1j, -2 - 2j, 1 - 3j, -3 + 1j, 3 + 2j, -1 - 1j)


class Quadrant(Enum):
    SECOND = "second"
    THIRD = "third"
    FOURTH = "fourth"
    REAL_AXIS = "real_axis"


def _pole_equation(k, b, a):
    """(f(k), f'(k)) = (2k - b (exp(2ika) - 1), 2 - 2iab exp(2ika)); k a scalar or an
    array, b broadcasts against it. Overflow gives inf or nan, as numpy does, not an error.
    """
    e2 = np.exp(2j * k * a)
    return 2 * k - b * (e2 - 1), 2 - 2j * a * b * e2


def pole_equation_residual(k: complex, pot: DeltaShellPotential) -> complex:
    """f(k) = 2k - b (exp(2ika) - 1); zero exactly at the poles (k = 0 excluded)."""
    if k == 0:
        raise ValueError("k = 0 is a removable zero of the pole equation, not a pole")
    return complex(_pole_equation(k, pot.b, pot.a)[0])


def pole_equation_derivative(k: complex, pot: DeltaShellPotential) -> complex:
    return complex(_pole_equation(k, pot.b, pot.a)[1])


def _reduced_residual(k, pot: DeltaShellPotential):
    """f(k)/k at a scalar k (a 0-d array) or an array, continued through k = 0.

    Dividing out the spurious root at the origin lets rectangle boundaries
    pass through or near k = 0; the value there is 2(1 - i b a) != 0.
    """
    b, a = pot.b, pot.a
    k = np.asarray(k, dtype=complex)
    if np.abs(k).min() * a >= 1e-8:
        return _pole_equation(k, b, a)[0] / k
    small = np.abs(k) * a < 1e-8
    x = 2j * a
    kk = np.where(small, 1.0, k)
    return np.where(small, 2 - b * (x + x * x * k / 2 + x * x * x * k * k / 6),
                    _pole_equation(kk, b, a)[0] / kk)


def residual_noise_floor(k, b, a):
    """Double-precision evaluation noise of the pole-equation residual at k; k and b broadcast.

    Dominated by argument reduction in exp(2ika): the phase 2|k|a is known
    only to machine epsilon relative, so the exponential term's absolute
    error grows linearly with |k|. Root positions remain accurate to
    ~noise/|f'|, a few ulps.
    """
    mag = abs(b) * (1.0 + abs(np.exp(2j * k * a)))
    return 2.3e-16 * (abs(2 * k) + mag * (2 * abs(k) * a + 2.0))


def _acceptance_bound(k, b, a):
    """Largest |residual| accepted at a root: ACCEPT_TOL or 8x the noise floor; k, b broadcast."""
    return np.maximum(ACCEPT_TOL, 8 * residual_noise_floor(k, b, a))


def _above_ray(k):
    """arg k > -pi/4: the pole lies above the ray e^{-i pi/4} R+ and gives an exponential."""
    return k.real > -k.imag


def newton_polish(seed: complex, pot: DeltaShellPotential) -> complex:
    """Damped Newton iteration on the pole equation, at most 100 steps.

    The iterates stay Python complex, stepped by CPython's complex division.
    A trial step whose residual overflows is one that does not lower |f|.
    """
    b, a = pot.b, pot.a
    k = seed
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            f, fp = _pole_equation(k, b, a)
            if abs(f) < max(NEWTON_TOL, 4 * residual_noise_floor(k, b, a)):
                return k
            step = complex(f) / complex(fp)
            lam = 1.0
            for _ in range(60):
                k_next = k - lam * step
                if abs(_pole_equation(k_next, b, a)[0]) < abs(f):
                    break
                lam /= 2
            else:
                break  # at the floating-point noise floor; accept below if good enough
            k = k_next
        if abs(_pole_equation(k, b, a)[0]) < _acceptance_bound(k, b, a):
            return k
    raise SolverError(f"Newton did not converge from seed {seed}", seed=seed)


def _seeds(index, b, a):
    """Asymptotic seeds of the poles of signed index `index` (one sign) at b; both broadcast.

    Proper p: k a = p pi - (i/2) ln(1 + 2 p pi/(a b)), accurate to ~1e-2.
    Improper -n: fixed-point iterations of k = -n pi/a - (i/2a)(log(-(1 + 2k/b))
    + i pi), the branch of e^{2ika} = 1 + 2k/b, from (-n pi + i)/a off the
    axis; the log's cut lies where 1 + 2k/b > 0, away from the crossing, where
    1 + 2k/b = -1.
    """
    if np.all(np.asarray(index) > 0):
        return (index * math.pi - 0.5j * np.log(1 + 2 * index * math.pi / (a * b))) / a
    k = (index * math.pi + 1j) / a
    for _ in range(4):  # one already seeds Newton onto the right pole over the tested grid
        k = index * math.pi / a - 0.5j / a * (np.log(-(1 + 2 * k / b)) + 1j * math.pi)
    return k


def _newton(k, b, a):
    """Undamped Newton on the pole equation from an array of seeds k; b broadcasts against k.

    Each root stops at newton_polish's criterion, max(NEWTON_TOL, 4x the noise
    floor), and must end below _acceptance_bound at its own b (not NaN), else
    SolverError.
    """
    for _ in range(60):
        f, fp = _pole_equation(k, b, a)
        done = np.abs(f) < np.maximum(NEWTON_TOL, 4 * residual_noise_floor(k, b, a))
        if done.all():
            break
        k = np.where(done, k, k - f / fp)
    residual = np.abs(_pole_equation(k, b, a)[0])
    unconverged = ~(residual < _acceptance_bound(k, b, a))
    if unconverged.any():
        raise SolverError(f"Newton left {unconverged.sum()} of {unconverged.size} roots "
                          f"unconverged, first at position {np.argmax(unconverged)}")
    return k


def _boundary_winding(x0, x1, y0, y1, pot):
    """Winding number of the reduced residual around a rectangle boundary.

    Edges are presampled densely enough to avoid phase aliasing (the residual
    rotates at most ~2a radians per unit arclength away from roots), and the
    whole boundary is evaluated as one array. Every segment whose phase step
    is >= 0.8 rad is halved, one level at a time, until all steps are below
    it or WINDING_MAX_DEPTH levels are done. Raises BoundaryRootError if a
    sample lands on a near-zero of the residual.
    """
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
               complex(x0, y1), complex(x0, y0)]
    edges = []
    for c0, c1 in zip(corners[:-1], corners[1:]):
        n = max(8, int(abs(c1 - c0) * 2 * pot.a / 0.5) + 1)
        edges.append(c0 + (c1 - c0) * np.arange(n + 1) / n)
    z = np.concatenate(edges)
    f = _reduced_residual(z, pot)
    tiny = 1e-12 * max(1.0, abs(pot.b))
    if np.abs(f).min() < tiny:
        raise BoundaryRootError("rectangle boundary passes through a root")
    start = np.ones(z.size, dtype=bool)  # segments run within an edge
    start[np.cumsum([e.size for e in edges]) - 1] = False
    i = np.flatnonzero(start)
    seg = np.array([z[i], z[i + 1], f[i], f[i + 1]])  # rows z0, z1, f0, f1
    total = 0.0
    for depth in range(WINDING_MAX_DEPTH + 1):
        dphi = np.angle(seg[3] / seg[2])
        coarse = (np.abs(dphi) >= 0.8) & (depth < WINDING_MAX_DEPTH)
        total += dphi[~coarse].sum()
        if not coarse.any():
            break
        seg = seg[:, coarse]
        zm = (seg[0] + seg[1]) / 2
        fm = _reduced_residual(zm, pot)
        if np.abs(fm).min() < tiny:
            raise BoundaryRootError("rectangle boundary passes through a root")
        m = zm.size
        seg = np.concatenate((seg, seg), axis=1)  # left halves, then right halves
        seg[1, :m] = seg[0, m:] = zm
        seg[3, :m] = seg[2, m:] = fm
    w = total / (2 * math.pi)
    if abs(w - round(w)) > 0.15:
        raise BoundaryRootError(f"winding number did not close to an integer: {w}")
    return round(w)


def count_roots_in_rectangle(rect, pot: DeltaShellPotential) -> int:
    """Number of pole-equation roots strictly inside rect = (re_lo, re_hi, im_lo, im_hi).

    The spurious zero at the origin is never counted. If the boundary passes
    within ~1e-12 of a root the rectangle is retried with a deterministic
    jitter of relative size 1e-6; retries exhausted raise BoundaryRootError.
    """
    x0, x1, y0, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle {rect}")
    diag = math.hypot(x1 - x0, y1 - y0)
    last_error = None
    for j in (0,) + _JITTER_SEQ:
        d = j * JITTER * diag
        try:
            return _boundary_winding(x0 + d.real, x1 + d.real, y0 + d.imag, y1 + d.imag, pot)
        except BoundaryRootError as exc:
            last_error = exc
    raise BoundaryRootError(
        f"boundary jitter retries exhausted for rectangle {rect}") from last_error


@dataclass(frozen=True)
class Pole:
    """A single pole k = alpha - i beta with a signed family index.

    Positive indices are fourth-quadrant (proper) poles, negative indices the
    second/third-quadrant family. Serialized tables list (Re k, Im k) per
    pole; the beta used in the width formulas is -Im k.
    """

    index: int
    k: complex

    def __post_init__(self):
        if self.index == 0:
            raise ValueError("pole index 0 is reserved")

    @property
    def alpha(self) -> float:
        return self.k.real

    @property
    def beta(self) -> float:
        return -self.k.imag

    @property
    def resonance_position(self) -> float:
        return self.alpha ** 2 - self.beta ** 2

    @property
    def width(self) -> float:
        return 4.0 * self.alpha * self.beta

    @property
    def quadrant(self) -> Quadrant:
        if abs(self.k.imag) <= REAL_AXIS_TOL:
            return Quadrant.REAL_AXIS
        if self.k.real > 0 and self.k.imag < 0:
            return Quadrant.FOURTH
        if self.k.real < 0 and self.k.imag > 0:
            return Quadrant.SECOND
        if self.k.real < 0 and self.k.imag < 0:
            return Quadrant.THIRD
        raise ValueError(f"pole {self.k} sits in the causality-excluded first quadrant")


def resonance_parameters(pole: Pole) -> tuple[float, float]:
    """(resonance position, decay width) = (alpha^2 - beta^2, 4 alpha beta).

    Defined for proper (index > 0) poles only.
    """
    if pole.index <= 0:
        raise ValueError("resonance parameters are defined for proper poles only")
    return pole.resonance_position, pole.width


def _readonly(x, dtype=complex):
    """A read-only copy of x, safe to cache and to share between callers."""
    x = np.array(x, dtype=dtype)
    x.flags.writeable = False
    return x


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Both families as read-only arrays, k_proper[p - 1] = k_p and k_improper[p - 1] = k_{-p},
    of any lengths; proper, improper, by_index and iteration give Pole views, built once.
    """

    potential: DeltaShellPotential
    k_proper: np.ndarray
    k_improper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k_proper", _readonly(self.k_proper))
        object.__setattr__(self, "k_improper", _readonly(self.k_improper))

    @cached_property
    def proper(self) -> tuple:
        return tuple(Pole(i, k) for i, k in enumerate(self.k_proper.tolist(), 1))

    @cached_property
    def improper(self) -> tuple:
        return tuple(Pole(-i, k) for i, k in enumerate(self.k_improper.tolist(), 1))

    def __iter__(self):
        return iter(self.proper + self.improper)

    def by_index(self, p: int) -> Pole:
        if p > 0:
            return self.proper[p - 1]
        if p < 0:
            return self.improper[-p - 1]
        raise ValueError("pole index 0 is reserved")

    @property
    def n_proper(self) -> int:
        return self.k_proper.size


def _subdivide_roots(rect, pot, expected):
    """Recursively bisect rect until each piece isolates one root; Newton polish."""
    roots = []
    stack = [(rect, expected)]
    while stack:
        (x0, x1, y0, y1), count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            seed = complex((x0 + x1) / 2, (y0 + y1) / 2)
            try:
                k = newton_polish(seed, pot)
            except SolverError:
                k = None
            margin = 1e-9
            if k is not None and x0 - margin <= k.real <= x1 + margin and \
                    y0 - margin <= k.imag <= y1 + margin and \
                    abs(_reduced_residual(k, pot)) < 1e-6:
                # the reduced-residual gate rejects the spurious zero of the
                # raw pole equation at the origin (not a pole of G+)
                roots.append(k)
                continue
            # Newton escaped the box or hit the origin; bisect toward the root.
        if max(x1 - x0, y1 - y0) < MIN_RECT_SIZE:
            raise SolverError(f"rectangle underflow at {(x0, x1, y0, y1)} holding {count} roots")
        if x1 - x0 >= y1 - y0:
            xm = (x0 + x1) / 2
            left = (x0, xm, y0, y1)
            right = (xm, x1, y0, y1)
        else:
            ym = (y0 + y1) / 2
            left = (x0, x1, y0, ym)
            right = (x0, x1, ym, y1)
        c_left = count_roots_in_rectangle(left, pot)
        c_right = count_roots_in_rectangle(right, pot)
        if c_left + c_right != count:
            raise CompletenessError(
                f"winding counts changed under subdivision: {count} -> {c_left}+{c_right}")
        stack.append((left, c_left))
        stack.append((right, c_right))
    return roots


def _dedupe(roots):
    """roots in order of (Re k, Im k), each within DUPLICATE_TOL of its predecessor dropped."""
    k = np.sort_complex(np.asarray(roots, dtype=complex))
    return k[np.abs(np.diff(k, prepend=math.inf)) >= DUPLICATE_TOL]


@lru_cache(maxsize=16)
def _proper_poles(pot: DeltaShellPotential, n: int) -> np.ndarray:
    """First n proper poles: asymptotic seeds, one array Newton, one winding count.

    The seeds (_seeds) converge in a few undamped Newton steps (_newton). The
    rectangle [0, (n + 1/2) pi/a] x [-depth, 0] holds the first n proper
    poles and no other root, so one argument-principle count certifies the
    set (Delves & Lyness, Math. Comp. 21, 1967): it must be n, with the n
    roots distinct, inside the rectangle and in order of Re k. The result is
    a cached read-only array, so find_poles, the oracle and a proper-family
    scan at the same (pot, n) share one solve.
    """
    if n == 0:
        return _readonly(())
    a, b = pot.a, pot.b
    k = _newton(_seeds(np.arange(1, n + 1), b, a), b, a)
    re_hi = (n + 0.5) * math.pi / a
    depth = (0.5 * math.log(1 + 2 * (n + 1) * math.pi / (a * b)) + 1) / a
    count = count_roots_in_rectangle((0.0, re_hi, -depth, 0.0), pot)
    if count != n:
        raise CompletenessError(f"winding count {count} in the proper rectangle "
                                f"[0, {re_hi:.6g}] x [{-depth:.6g}, 0] for {n} solved poles")
    inside = (k.real > 0) & (k.real < re_hi) & (k.imag > -depth) & (k.imag < 0)
    if not inside.all() or np.any(np.diff(k.real) <= DUPLICATE_TOL):
        raise CompletenessError("seeded Newton roots are not n distinct roots inside the "
                                "proper rectangle in order of Re k")
    return _readonly(k)


def find_poles(pot: DeltaShellPotential, n_proper: int, n_improper: int) -> PoleSet:
    """First n_proper fourth-quadrant and n_improper left-half-plane poles.

    The proper family is seeded from its asymptote, polished by one
    array Newton and certified by one winding count, at any depth
    (_proper_poles, cached and shared with the oracle). The improper family is
    bisected out of [-(n_improper+1) pi/a, 0] x [-BETA_MARGIN/a, +BETA_MARGIN/a],
    whose completeness the argument principle certifies; its first n_improper
    roots are returned in order of |Re k|.
    """
    if n_proper < 1 or n_improper < 1:
        raise ValueError(f"need at least one pole per family, got n_proper={n_proper}, "
                         f"n_improper={n_improper}")
    proper = _proper_poles(pot, n_proper)
    depth = BETA_MARGIN / pot.a
    rect = (-(n_improper + 1) * math.pi / pot.a, 0.0, -depth, depth)
    expected = count_roots_in_rectangle(rect, pot)
    roots = _dedupe(_subdivide_roots(rect, pot, expected))
    if len(roots) != expected:
        raise CompletenessError(
            f"improper region: winding count {expected} but {len(roots)} roots polished")
    if len(roots) < n_improper:
        raise CompletenessError(f"improper region [{rect[0]:.6g}, 0] x [-{depth:.6g}, "
                                f"{depth:.6g}] held {len(roots)} of {n_improper} poles")
    return PoleSet(potential=pot, k_proper=proper, k_improper=roots[::-1][:n_improper])
