"""Spherical-harmonic math kernels, in numpy alone.

Legendre polynomials with their derivatives, Legendre series,
Gauss-Legendre quadrature, Chebyshev polynomials T_n, orthonormal
complex spherical harmonics (Condon-Shortley phase), the spherical
Hankel function of the first kind with its derivative, and the number
of coefficients (N+1)^2 packed as q = n^2 + n + m.

The Legendre and Chebyshev kernels repeat the arithmetic of numpy's
legvander and legder, legval, leggauss and chebval operation for
operation, so their results are bit-identical to numpy's without
importing its polynomial package.  Two recurrences carry the other
special functions:

- Y_n^m: the fully normalised associated-Legendre recurrence of
  S. A. Holmes and W. E. Featherstone, J. Geodesy 76 (2002) 279-299,
  times e^{im phi}; negative m from Y_n^{-m} = (-1)^m (Y_n^m)*.
- h_n, h'_n: one table from the upward recurrence (Abramowitz & Stegun
  10.1.19), stable for h^(1), seeded with h_{-1} = e^{ix}/x, h_0 = -i h_{-1}.
"""

import numpy as np

__all__ = [
    "num_coeffs",
    "legendre",
    "legval",
    "leggauss",
    "chebyshev_t",
    "sh_matrix",
    "sph_hankel1",
]


def num_coeffs(order):
    """Number of coefficients (N+1)^2 for a band limit of ``order``."""
    return (order + 1) ** 2


def legendre(n, x):
    """Legendre polynomial P_n(x) and its derivative P'_n(x).

    Returns (value, derivative), broadcast over integer n >= 0 and x in
    [-1, 1] with shape x.shape + n.shape.  One table from legvander's
    recurrence holds P_0..P_max(n); a matrix whose column j holds P'_j
    in the basis P_0, P_1, ... (legder's result, in closed form: entry
    (i, j) is 2i+1 where j - i is odd and positive) maps it to the
    derivatives.
    """
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer) or np.any(n < 0):
        raise ValueError("order must be an integer >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument of legendre must lie in [-1, 1]")
    deg = int(np.max(n, initial=0))
    xv = np.atleast_1d(x) + 0.0  # as in legvander: -0.0 becomes 0.0
    v = np.empty((deg + 1,) + xv.shape)
    v[0] = xv * 0 + 1
    if deg > 0:
        v[1] = xv
        for i in range(2, deg + 1):
            v[i] = (v[i - 1] * xv * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    p = np.moveaxis(v, 0, -1).reshape(x.shape + (-1,))
    i, j = np.ogrid[: max(deg, 1), : deg + 1]
    to_der = (2 * i + 1.0) * ((j > i) & ((j - i) % 2 == 1))
    dp = p[..., : to_der.shape[0]] @ to_der
    return p[..., n], dp[..., n]


def legval(x, c):
    """The Legendre series sum_n c_n P_n(x) of the 1-D coefficients c, by
    numpy legval's Clenshaw pass.  The result has x's shape; a scalar or
    0-d x gives a numpy scalar.

    The pass runs in place, in three arrays of the result's shape
    allocated once: each step applies numpy's operations in numpy's
    operand order (c1 * x, times (2nd-1)/nd, c0 plus that; c_{nd-2} minus
    c1 times (nd-1)/nd), each into an ``out=`` array.  The first step
    reads c0 and c1 from c in c's own dtype, as numpy does, so for real x
    the result is numpy's bit for bit.  (At a complex scalar x numpy sums
    a 1-D series in scalar arithmetic, whose complex product can differ
    in the last bit from the array loop's.)
    """
    c = np.asarray(c)
    shape, dtype = np.shape(x), np.result_type(c, x)
    # c0 lives in c0_out after the first step, and c1 alternates between t and u
    c0_out, t, u = (np.empty(shape, dtype) for _ in range(3))
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        np.multiply(c1, x, out=t)
        np.multiply(t, (2 * nd - 1) / nd, out=t)
        np.add(c0, t, out=t)
        c0 = np.subtract(c[nd - 2], np.multiply(c1, (nd - 1) / nd, out=c0_out), out=c0_out)
        c1, t, u = t, u, t
    np.multiply(c1, x, out=t)
    return np.add(c0, t, out=t)[()]


def leggauss(deg):
    """Gauss-Legendre nodes x and weights w of degree ``deg`` >= 1, as
    numpy's leggauss forms them: the eigenvalues of legcompanion's
    symmetric tridiagonal matrix, one Newton step, weights from the
    max-scaled P_deg' and P_{deg-1}, symmetrised and scaled to sum to 2."""
    if deg < 1:
        raise ValueError("deg must be a positive integer")
    c = np.zeros(deg + 1)
    c[-1] = 1.0
    if deg == 1:
        m = np.array([[-0.0]])  # legcompanion's 1 x 1 branch: -c[0] / c[1]
    else:  # legcompanion also subtracts c[:-1] / c[-1] * ... = 0.0 from the last column
        scl = 1.0 / np.sqrt(2 * np.arange(deg) + 1)
        m = np.zeros((deg, deg))
        m.flat[1 :: deg + 1] = m.flat[deg :: deg + 1] = np.arange(1, deg) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(m)
    j = np.arange(deg)
    dy = legval(x, c)
    df = legval(x, (2 * j + 1.0) * ((deg - j) % 2))  # P_deg' in P_0..P_{deg-1}
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def chebyshev_t(n, x):
    """Chebyshev polynomial T_n(x), n >= 0, of float x, as numpy's
    Chebyshev.basis(n)(x) evaluates it: the domain map 0.0 + 1.0 * x,
    then chebval's Clenshaw pass on the basis vector."""
    x = 0.0 + 1.0 * np.asarray(x, dtype=float)
    x2 = 2 * x
    c0, c1 = (1.0, 0) if n == 0 else (0.0, 1.0)
    for _ in range(n - 1):
        c0, c1 = 0.0 - c1, c0 + c1 * x2
    return c0 + c1 * x


def sh_matrix(order, theta, phi):
    """All spherical harmonics up to ``order`` at the given directions.

    Returns a complex array of shape (len(theta), (order+1)^2) whose
    column q = n^2 + n + m holds the orthonormal Y_n^m(theta, phi);
    theta is the polar angle from the z-axis, phi the azimuth.  Includes
    the Condon-Shortley phase, so Y_n^{-m} = (-1)^m (Y_n^m)*.

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
    forms h_{-1} = e^{ix}/x and h_0 = -i h_{-1} gives every order up to
    max(n); the recurrence is stable for h^(1) (Abramowitz & Stegun
    10.1.19).  The derivative is h'_n = h_{n-1} - (n+1)/x h_n, from the
    same table for every n >= 0.  Raises ArithmeticError, naming n and x,
    where a result overflows.
    """
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer) or np.any(n < 0):
        raise ValueError("order must be an integer >= 0")
    n, x = np.broadcast_arrays(n, np.asarray(x, dtype=float))
    if not np.all(x > 0.0):
        raise ValueError("argument must be > 0")
    # h[j + 1] holds h_j, for j = -1..max(n)
    h = np.empty((int(np.max(n, initial=0)) + 2,) + x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        h[0] = np.exp(1j * x) / x
        h[1] = -1j * h[0]
        for j in range(h.shape[0] - 2):
            h[j + 2] = (2 * j + 1) / x * h[j + 1] - h[j]
        val = np.take_along_axis(h, n[None] + 1, 0)[0]
        der = np.take_along_axis(h, n[None], 0)[0] - (n + 1) / x * val
    bad = ~(np.isfinite(val) & np.isfinite(der))
    if np.any(bad):
        i = np.argmax(bad.ravel())
        raise ArithmeticError(f"spherical Hankel function h_n(x) overflows at "
                              f"n={n.ravel()[i]}, x={x.ravel()[i]:.6g}")
    return val, der
