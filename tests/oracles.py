"""Independent reference functions that the tests check the library against.

Each computes a quantity of the paper by a route the pipeline does not
take: a closed form, the full spherical-harmonic field, a quadrature
integral or the forward transform.  scipy is a test dependency only; the
library computes its special functions in numpy alone.
"""

import numpy as np
import scipy.special as sp

from sphbeam import sphmath
from sphbeam.radiation import Medium, radial_far, radial_near


def sh_unpack(q):
    """Inverse of sphmath.sh_index, returning (n, m)."""
    if q < 0:
        raise ValueError(f"packed index must be >= 0, got {q}")
    n = int(np.sqrt(q))
    m = q - n * n - n
    return n, m


def sph_bessel_j(n, x):
    """Spherical Bessel function j_n(x) and its derivative, x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be > 0")
    return sp.spherical_jn(n, x), sp.spherical_jn(n, x, derivative=True)


def hypercardioid_pattern(order, theta_gc):
    """Closed-form maximum-directivity pattern.

    B(Theta) = (N+1) / (4 pi (cos Theta - 1)) [P_{N+1}(cos T) - P_N(cos T)],
    with the Theta -> 0 limit (N+1)^2 / (4 pi).  Vectorized over theta_gc.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    x = np.cos(np.asarray(theta_gc, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.full(x.shape, (order + 1) ** 2 / (4 * np.pi))
    reg = x < 1.0 - 1e-12
    xr = x[reg]
    out[reg] = (
        (order + 1)
        / (4 * np.pi * (xr - 1.0))
        * (sp.eval_legendre(order + 1, xr) - sp.eval_legendre(order, xr))
    )
    return float(out[0]) if scalar else out


def cap_gain_quadrature(order, alpha):
    """Cap gains g_0..g_order as 4 pi^2 int_{cos a}^1 P_n(x) dx.

    Gauss-Legendre quadrature, exact for these polynomials, over an
    interval whose width 1 - cos a = 2 sin^2(a/2) is formed without
    cancellation; P_n from scipy.
    """
    t, qw = np.polynomial.legendre.leggauss(order // 2 + 8)
    width = 2 * np.sin(alpha / 2) ** 2
    x = 1.0 - width * (1.0 - t) / 2
    return 2 * np.pi**2 * width * (qw @ sp.eval_legendre(np.arange(order + 1), x[:, None]))


def velocity_coeffs(geom, v, order):
    """Modal surface velocity u_nm = g_n sum_l v_l [Y_n^m(theta_l, phi_l)]*.

    ``v`` holds one complex velocity per cap; the result is packed as
    q = n^2 + n + m.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (geom.num_caps,):
        raise ValueError(f"expected {geom.num_caps} cap velocities, got {v.shape}")
    ymat = sphmath.sh_matrix(order, geom.cap_dirs[:, 0], geom.cap_dirs[:, 1])
    n = np.arange(order + 1)
    return np.repeat(cap_gain_quadrature(order, geom.alpha), 2 * n + 1) * (ymat.conj().T @ v)


def pressure_field(u, k, r, dirs, geom, medium=Medium()):
    """Radiated pressure at radius r for modal surface velocity u.

    p(theta, phi) = sum_{n,m} radial_near(n) u_nm Y_n^m(theta, phi),
    summed over all orders carried by the packed ``u``.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    order = int(np.sqrt(np.size(u))) - 1
    orders = np.arange(order + 1)
    rad = np.repeat(radial_near(orders, k, r, geom.r0, medium), 2 * orders + 1)
    ymat = sphmath.sh_matrix(order, dirs[:, 0], dirs[:, 1])
    return ymat @ (rad * u)


def beam_pattern_field(w_nm, k, r0, dirs, medium=Medium()):
    """Far-field beam pattern B(theta, phi) = sum_{n,m} b_n w_nm Y_n^m.

    Full spherical-harmonic route; equals :func:`beam_pattern_modal`
    evaluated at the great-circle angle when w_nm comes from
    axis-symmetric steering.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    order = int(np.sqrt(np.size(w_nm))) - 1
    orders = np.arange(order + 1)
    b = np.repeat(radial_far(orders, k, r0, medium), 2 * orders + 1)
    ymat = sphmath.sh_matrix(order, dirs[:, 0], dirs[:, 1])
    return ymat @ (b * w_nm)


def directivity_factor_integral(look_value, values, weights):
    """Directivity factor from pattern samples on a quadrature grid.

    Q = |B(look)|^2 / ((1/4pi) sum_j a_j |B(Omega_j)|^2).  The grid must
    integrate |B|^2 exactly, i.e. its order must be >= 2N.
    """
    values = np.asarray(values)
    weights = np.asarray(weights, dtype=float)
    mean_sq = np.sum(weights * np.abs(values) ** 2) / (4 * np.pi)
    if mean_sq == 0.0:
        raise ValueError("pattern is identically zero on the grid")
    return float(np.abs(look_value) ** 2 / mean_sq)


def wng_coefficients(w_nm, look, k, r0, medium=Medium()):
    """WNG from steered coefficients w_nm (coefficient-domain form).

    WNG = 4 pi |sum_{n,m} b_n w_nm Y_n^m(look)|^2 / sum_{n,m} |w_nm|^2.
    The 4 pi keeps the addition-theorem reduction consistent with the
    modal form of :func:`wng`, with which this agrees for weights built
    by axis-symmetric steering.
    """
    order = int(np.sqrt(np.size(w_nm))) - 1
    orders = np.arange(order + 1)
    b = np.repeat(radial_far(orders, k, r0, medium), 2 * orders + 1)
    ylook = sphmath.sh_matrix(order, look[0], look[1])[0]
    num = 4 * np.pi * np.abs(np.sum(b * w_nm * ylook)) ** 2
    denom = np.sum(np.abs(w_nm) ** 2)
    if denom == 0.0:
        raise ValueError("zero steered weights")
    return float(num / denom)


def forward_weights(w, transform):
    """Forward transform w_nm = G Y w from per-unit weights."""
    num_caps = transform.ymat.shape[1]
    wv = np.asarray(w, dtype=complex)
    if wv.shape != (num_caps,):
        raise ValueError(f"expected {num_caps} unit weights, got {wv.shape}")
    return transform.g_diag * (transform.ymat @ wv)
