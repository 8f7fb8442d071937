"""Spherical-harmonic math kernels, in numpy alone.

Legendre polynomials, orthonormal complex spherical harmonics
(Condon-Shortley phase), the spherical Hankel function of the first
kind with its derivative, and the packed coefficient index
q = n^2 + n + m.

Two recurrences carry the special functions:

- Y_n^m: the fully normalised associated-Legendre recurrence of
  S. A. Holmes and W. E. Featherstone, J. Geodesy 76 (2002) 279-299,
  times e^{im phi}; negative m from Y_n^{-m} = (-1)^m (Y_n^m)*.
- h_n, h'_n: the upward three-term recurrence from the closed forms of
  h_0 and h_1, stable for h^(1) (Abramowitz & Stegun 10.1.19).
"""

import numpy as np

__all__ = [
    "sh_index",
    "sh_unpack",
    "num_coeffs",
    "legendre",
    "sh_matrix",
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

    The normalised Legendre functions come from the fully normalised
    recurrence of Holmes & Featherstone (2002), one degree at a time
    with all m >= 0 as a vector:

        p_m^m = -sqrt((2m+1)/(2m)) sin(theta) p_{m-1}^{m-1},
        p_n^m = a_nm cos(theta) p_{n-1}^m - b_nm p_{n-2}^m.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    x, s = np.cos(theta), np.sin(theta)
    eimphi = np.exp(1j * np.outer(phi, np.arange(order + 1)))
    sign = (-1.0) ** np.arange(order + 1)
    out = np.empty((theta.size, num_coeffs(order)), dtype=complex)
    # p_prev, p: degrees n-2 and n-1 (columns m = 0..degree) on entry to step n
    p_prev = np.empty((theta.size, 0))
    p = np.full((theta.size, 1), 1.0 / np.sqrt(4.0 * np.pi))
    for n in range(order + 1):
        if n > 0:
            m = np.arange(n - 1)
            a = np.sqrt((2 * n - 1) * (2 * n + 1) / ((n - m) * (n + m)))
            b = np.sqrt((2 * n + 1) * (n + m - 1) * (n - m - 1)
                        / ((n - m) * (n + m) * (2 * n - 3)))
            p_new = np.empty((theta.size, n + 1))
            p_new[:, : n - 1] = a * x[:, None] * p[:, : n - 1] - b * p_prev
            p_new[:, n - 1] = np.sqrt(2 * n + 1) * x * p[:, n - 1]
            p_new[:, n] = -np.sqrt((2 * n + 1) / (2 * n)) * s * p[:, n - 1]
            p_prev, p = p, p_new
        ynm = p * eimphi[:, : n + 1]  # m = 0..n
        out[:, n * n + n : (n + 1) ** 2] = ynm
        out[:, n * n : n * n + n] = sign[n:0:-1] * ynm[:, n:0:-1].conj()
    return out


def sph_hankel1(n, x):
    """Spherical Hankel function of the first kind h_n(x) = j_n + i y_n.

    Returns (value, derivative), broadcast over integer n >= 0 and x > 0.
    One upward pass h_{j+1} = (2j+1)/x h_j - h_{j-1} from the closed
    forms h_0 = -i e^{ix}/x and h_1 = -e^{ix}(x+i)/x^2 = h_0 (1/x - i)
    gives every order up to max(n); the recurrence is stable for h^(1)
    (Abramowitz & Stegun 10.1.19).  The derivative is
    h'_n = h_{n-1} - (n+1)/x h_n, with h'_0 = -h_1.  Raises
    ArithmeticError, naming n and x, where a result overflows.
    """
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer) or np.any(n < 0):
        raise ValueError("order must be an integer >= 0")
    n, x = np.broadcast_arrays(n, np.asarray(x, dtype=float))
    if not np.all(x > 0.0):
        raise ValueError("argument must be > 0")
    top = max(int(np.max(n, initial=0)), 1)
    h = np.empty((top + 1,) + x.shape, dtype=complex)
    dh = np.empty_like(h)
    with np.errstate(over="ignore", invalid="ignore"):
        h[0] = -1j * np.exp(1j * x) / x
        h[1] = h[0] * (1.0 / x - 1j)
        for j in range(1, top):
            h[j + 1] = (2 * j + 1) / x * h[j] - h[j - 1]
        dh[0] = -h[1]
        for j in range(1, top + 1):
            dh[j] = h[j - 1] - (j + 1) / x * h[j]
    val = np.take_along_axis(h, n[None], 0)[0]
    der = np.take_along_axis(dh, n[None], 0)[0]
    bad = ~(np.isfinite(val) & np.isfinite(der))
    if np.any(bad):
        i = np.argmax(bad.ravel())
        raise ArithmeticError(f"spherical Hankel function h_n(x) overflows at "
                              f"n={n.ravel()[i]}, x={x.ravel()[i]:.6g}")
    return val, der
