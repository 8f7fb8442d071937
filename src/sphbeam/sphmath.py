"""Spherical-harmonic math kernels.

Legendre polynomials, orthonormal complex spherical harmonics
(Condon-Shortley phase), spherical Bessel/Hankel functions with
derivatives, and the packed coefficient index q = n^2 + n + m.
"""

import numpy as np
import scipy.special as _sp

__all__ = [
    "sh_index",
    "sh_unpack",
    "num_coeffs",
    "legendre",
    "sh_matrix",
    "sph_bessel_j",
    "sph_hankel1",
]


def sh_index(n, m):
    """Packed coefficient index q = n^2 + n + m for order n, degree m."""
    if n < 0 or abs(m) > n:
        raise ValueError(f"invalid spherical-harmonic index (n={n}, m={m})")
    return n * n + n + m


def sh_unpack(q):
    """Inverse of :func:`sh_index`, returning (n, m)."""
    if q < 0:
        raise ValueError(f"packed index must be >= 0, got {q}")
    n = int(np.sqrt(q))
    m = q - n * n - n
    return n, m


def num_coeffs(order):
    """Number of coefficients (N+1)^2 for a band limit of ``order``."""
    return (order + 1) ** 2


def legendre(n, x):
    """Legendre polynomial P_n(x) by the three-term recurrence.

    The convention P_{-1}(x) = 1 is adopted so that the cap-gain
    expression is evaluable at n = 0.  Vectorized over x.
    """
    if n < -1:
        raise ValueError(f"order must be >= -1, got {n}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument of legendre must lie in [-1, 1]")
    if n == -1 or n == 0:
        return np.ones_like(x) if x.ndim else 1.0
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p if x.ndim else float(p)


def sh_matrix(order, theta, phi):
    """All spherical harmonics up to ``order`` at the given directions.

    Returns a complex array of shape (len(theta), (order+1)^2) whose
    column q holds the orthonormal Y_n^m(theta, phi) with
    (n, m) = sh_unpack(q); theta is the polar angle from the z-axis, phi
    the azimuth.  Includes the Condon-Shortley phase, so
    Y_n^{-m} = (-1)^m (Y_n^m)*.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    out = np.empty((theta.size, num_coeffs(order)), dtype=complex)
    for n in range(order + 1):
        for m in range(-n, n + 1):
            out[:, sh_index(n, m)] = _sp.sph_harm_y(n, m, theta, phi)
    return out


def _check_positive(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be > 0")
    return x


def sph_bessel_j(n, x):
    """Spherical Bessel function j_n(x) and its derivative, x > 0."""
    x = _check_positive(x)
    return _sp.spherical_jn(n, x), _sp.spherical_jn(n, x, derivative=True)


def sph_hankel1(n, x):
    """Spherical Hankel function of the first kind h_n(x) = j_n + i y_n.

    Returns (value, derivative); x > 0.
    """
    x = _check_positive(x)
    val = _sp.spherical_jn(n, x) + 1j * _sp.spherical_yn(n, x)
    der = _sp.spherical_jn(n, x, derivative=True) + 1j * _sp.spherical_yn(
        n, x, derivative=True
    )
    return val, der
