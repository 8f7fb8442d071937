"""Rigid-sphere-with-caps radiation model.

A spherical source is a rigid sphere of radius r0 carrying L vibrating
spherical caps of aperture angle alpha.  This module provides the cap
gains g_n, the radial propagator to a finite radius, the far-field
radial functions b_n, and the axis-symmetric beam pattern as a Legendre
series in the angle from the look direction.
"""

from dataclasses import dataclass

import numpy as np

from . import sphmath

__all__ = [
    "RHO0",
    "C",
    "ArrayGeometry",
    "dodecahedron",
    "cap_gain",
    "radial_near",
    "radial_far",
    "great_circle_angle",
    "beam_pattern_modal",
]


RHO0 = 1.21  # density of air, kg/m^3
C = 343.0  # speed of sound in air, m/s


@dataclass(frozen=True)
class ArrayGeometry:
    """Rigid sphere of radius r0 with L caps at directions (theta_l, phi_l).

    ``cap_dirs`` has shape (L, 2) with polar angle in column 0 and
    azimuth in column 1, both in radians.  ``alpha`` is the aperture
    angle of each cap; the caps must not overlap, so 2 alpha may not
    exceed the smallest angle between two cap centres.
    """

    r0: float
    alpha: float
    cap_dirs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cap_dirs", np.atleast_2d(np.asarray(self.cap_dirs, dtype=float)))
        if not 0 < self.r0 < np.inf:
            raise ValueError(f"r0: the sphere radius must be finite and positive, got {self.r0:g}")
        if not 0 < self.alpha < np.pi / 2:
            raise ValueError(f"alpha: the cap aperture must lie in (0, pi/2) rad, "
                             f"got {self.alpha:g}")
        if self.cap_dirs.ndim != 2 or self.cap_dirs.shape[1] != 2 or self.cap_dirs.shape[0] < 1:
            raise ValueError("cap_dirs: must have shape (L, 2) with L >= 1")
        if not np.all(np.isfinite(self.cap_dirs)):
            raise ValueError("cap_dirs: must be finite")
        if np.any(self.cap_dirs[:, 0] < 0) or np.any(self.cap_dirs[:, 0] > np.pi):
            raise ValueError("cap_dirs: polar angles must lie in [0, pi]")
        # one row of the cap-to-cap angles at a time, so memory stays linear in L
        t, p = self.cap_dirs.T
        gap = min((great_circle_angle((t[i], p[i]), (t[i + 1:], p[i + 1:])).min()
                   for i in range(t.size - 1)), default=np.pi)
        if 2 * self.alpha > gap + 4 * np.spacing(gap):  # touching caps pass
            raise ValueError(f"alpha: the caps overlap: 2 alpha = {2 * self.alpha:g} rad exceeds "
                             f"the smallest angle between two cap centres, {gap:g} rad")

    @property
    def num_caps(self):
        return self.cap_dirs.shape[0]


_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def dodecahedron(r0, alpha):
    """Dodecahedron cap arrangement: the 12 face centers of a regular
    dodecahedron, i.e. the vertices of a regular icosahedron.

    Uses the golden-ratio vertex construction (0, +-1, +-g) and cyclic
    permutations; no particular orientation relative to the z-axis is
    implied.
    """
    v = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            v += [(0.0, s1, s2 * _GOLDEN), (s1, s2 * _GOLDEN, 0.0), (s1 * _GOLDEN, 0.0, s2)]
    v = np.asarray(v) / np.sqrt(1.0 + _GOLDEN**2)
    dirs = np.column_stack([np.arccos(v[:, 2]), np.mod(np.arctan2(v[:, 1], v[:, 0]), 2 * np.pi)])
    return ArrayGeometry(r0=r0, alpha=alpha, cap_dirs=dirs)


def cap_gain(n, alpha):
    """Cap gain g_n = 4 pi^2 int_{cos a}^1 P_n(x) dx, broadcast over integer n >= 0.

    In closed form g_0 = 8 pi^2 sin^2(a/2) and, for n >= 1,
    g_n = 4 pi^2 sin^2(a) P'_n(cos a) / (n(n+1)): the same value as
    4 pi^2 / (2n+1) [P_{n-1} - P_{n+1}](cos a), without that difference's
    cancellation as a -> 0.

    Raises ArithmeticError naming ``alpha`` when a g_n has no finite
    reciprocal, as for a vanishing aperture (alpha below about 1.7e-155
    rad): the minimum-norm synthesis divides by it.
    """
    if not 0 < alpha < np.pi:
        raise ValueError("alpha must lie in (0, pi)")
    n = np.asarray(n)
    _, dp = sphmath.legendre(n, np.cos(alpha))
    g = 4 * np.pi**2 * np.sin(alpha) ** 2 * dp / np.where(n == 0, 1, n * (n + 1))
    g = np.where(n == 0, 8 * np.pi**2 * np.sin(alpha / 2) ** 2, g)
    with np.errstate(divide="ignore", over="ignore"):
        vanishing = np.count_nonzero(~np.isfinite(1 / g))
    if vanishing:
        raise ArithmeticError(f"alpha: the cap gain g_n has no finite reciprocal for "
                              f"{vanishing} of {g.size} orders at alpha = {alpha:g} rad")
    return g[()]


def _per_k(k, n):
    """k as a float array with one trailing axis per axis of n, so that a
    kernel over (k, n) has shape k.shape + n.shape."""
    k = np.asarray(k, dtype=float)
    return k.reshape(k.shape + (1,) * np.ndim(n))


def _kr(k, r, field):
    """The argument k*r of the Hankel functions, or ArithmeticError naming
    the radius ``field`` when the product overflows."""
    with np.errstate(over="ignore"):
        kr = k * r
    if not np.all(np.isfinite(kr)):
        raise ArithmeticError(f"{field}: k * {field} overflows at {field} = {r:g} m")
    return kr


def radial_near(n, k, r, r0):
    """Radial propagator i rho0 c h_n(kr) / h'_n(k r0) for r > r0.

    Multiplying the modal surface velocity u_nm by this term gives the
    pressure coefficient p_nm at radius r.  Vectorized over n and k: the
    result has shape k.shape + n.shape.
    """
    k = _per_k(k, n)
    if not np.all((0 < k) & (k < np.inf)):
        raise ValueError("wavenumber k must be finite and positive")
    if not 0 < r0 < r < np.inf:
        raise ValueError(f"radius: {r} m must exceed the source radius {r0} m")
    hn, _ = sphmath.sph_hankel1(n, _kr(k, r, "radius"))
    _, dhn0 = sphmath.sph_hankel1(n, k * r0)  # finite, as r0 < r
    return 1j * RHO0 * C * hn / dhn0


def radial_far(n, k, r0):
    """Far-field radial function b_n(k r0).

    Defined as the limit of r e^{-ikr} radial_near(n, k, r, r0) for
    r -> infinity, which fixes the overall sign convention:

        b_n = i rho0 c (-i)^{n+1} / (k h'_n(k r0))

    Beam patterns are invariant to this global convention because the
    design divides by b_n and the pattern evaluation multiplies by it.
    Vectorized over n and k: the result has shape k.shape + n.shape.
    """
    n = np.asarray(n)
    k = _per_k(k, n)
    if not (np.all((0 < k) & (k < np.inf)) and 0 < r0 < np.inf):
        raise ValueError("k and r0 must be finite and positive")
    _, dhn0 = sphmath.sph_hankel1(n, _kr(k, r0, "r0"))
    return 1j * RHO0 * C * (-1j) ** (n + 1) / (k * dhn0)


def great_circle_angle(a, b):
    """Angle Theta between directions a = (t0, p0) and b = (t, p), pairs that broadcast.

    cos Theta = cos t0 cos t + cos(p0 - p) sin t0 sin t.
    """
    (t0, p0), (t, p) = a, b
    ct = np.cos(t0) * np.cos(t) + np.cos(p0 - p) * np.sin(t0) * np.sin(t)
    return np.arccos(np.clip(ct, -1.0, 1.0))


def beam_pattern_modal(d, theta_gc):
    """Axis-symmetric beam pattern B(Theta) = sum_n d_n (2n+1)/(4 pi) P_n(cos Theta).

    ``d`` is the per-order weight vector d_0..d_N; ``theta_gc`` the angle
    from the look direction (scalar or array, radians).  The series is
    summed in one Clenshaw pass.
    """
    d = np.asarray(d, dtype=complex)
    x = np.cos(np.asarray(theta_gc, dtype=float))
    return sphmath.legval(x, d * (2 * np.arange(d.size) + 1) / (4 * np.pi))
