"""Independent reference functions that the tests check the library against.

Each computes a quantity of the paper by a route the pipeline does not
take: a closed form, the full spherical-harmonic field, a quadrature
integral or the forward transform.  scipy is a test dependency only; the
library computes its special functions in numpy alone.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import scipy.special as sp

from sphbeam import sphmath
from sphbeam.radiation import ArrayGeometry, dodecahedron, radial_far, radial_near


def sh_index(n, m):
    """Packed coefficient index q = n^2 + n + m for order n, degree m."""
    if n < 0 or abs(m) > n:
        raise ValueError(f"invalid spherical-harmonic index (n={n}, m={m})")
    return n * n + n + m


def sh_unpack(q):
    """Inverse of sh_index, returning (n, m)."""
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


def rigid_sphere_mic_radial(n, kr0):
    """Radial function of a microphone on a rigid sphere, from scipy:
    b_n^mic(k r0) = 4 pi i^n [j_n - (j'_n / h'_n) h_n](k r0), with
    h_n = j_n + i y_n."""
    jn, djn = sph_bessel_j(n, kr0)
    hn = jn + 1j * sp.spherical_yn(n, kr0)
    dhn = djn + 1j * sp.spherical_yn(n, kr0, derivative=True)
    return 4 * np.pi * 1j ** np.asarray(n) * (jn - djn / dhn * hn)


def legendre_numpy(n, x):
    """sphmath.legendre through numpy.polynomial: one legvander table, and
    legder applied to the identity for the derivatives."""
    n, x = np.asarray(n), np.asarray(x, dtype=float)
    leg = np.polynomial.legendre
    p = leg.legvander(x, int(np.max(n, initial=0))).reshape(x.shape + (-1,))
    to_der = leg.legder(np.eye(p.shape[-1]))  # column j: P'_j in P_0, P_1, ...
    dp = p[..., : to_der.shape[0]] @ to_der
    return p[..., n], dp[..., n]


def chebyshev_t_numpy(n, x):
    """sphmath.chebyshev_t through numpy.polynomial's Chebyshev class."""
    return np.polynomial.Chebyshev.basis(n)(x)


# the sphmath kernels that repeat numpy.polynomial's arithmetic, by name, and
# the numpy.polynomial route each must equal bit for bit
NUMPY_KERNELS = {
    "legendre": legendre_numpy,
    "legval": np.polynomial.legendre.legval,
    "leggauss": np.polynomial.legendre.leggauss,
    "chebyshev_t": chebyshev_t_numpy,
}


def icosahedral_32(r0, alpha):
    """A second reference layout, 32 caps: dodecahedron's 12 directions and the
    20 normalised sums of their mutually adjacent triples (the face centres of
    the icosahedron those 12 span, so the vertices of the dual dodecahedron)."""
    theta, phi = dodecahedron(r0, alpha).cap_dirs.T
    v = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    cos = v @ v.T
    adjacent = np.isclose(cos, np.max(cos[~np.eye(12, dtype=bool)]))  # nearest neighbours
    faces = [v[i] + v[j] + v[k] for i in range(12) for j in range(i + 1, 12)
             for k in range(j + 1, 12) if adjacent[i, j] and adjacent[j, k] and adjacent[i, k]]
    u = np.vstack([v, faces / np.linalg.norm(faces, axis=1, keepdims=True)])
    dirs = np.column_stack([np.arccos(np.clip(u[:, 2], -1, 1)),
                            np.mod(np.arctan2(u[:, 1], u[:, 0]), 2 * np.pi)])
    return ArrayGeometry(r0=r0, alpha=alpha, cap_dirs=dirs)


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


def grid_dirs(grid):
    """The (T * P, 2) [theta, phi] directions of a SamplingGrid's nodes, in
    the meshgrid "ij" order of its weights."""
    return np.column_stack([np.repeat(grid.theta, grid.phi.size),
                            np.tile(grid.phi, grid.theta.size)])


def measured_pattern_scattered(pnm, dirs):
    """virtualmeas.measured_pattern at scattered (M, 2) directions: one row
    of sh_matrix(N, theta_j, phi_j) per direction, times pnm."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    return sphmath.sh_matrix(int(np.sqrt(np.size(pnm))) - 1, dirs[:, 0], dirs[:, 1]) @ pnm


def discrete_sft_scattered(samples, grid, order):
    """virtualmeas.discrete_sft as Y^H (a * s), with Y the sh_matrix over
    every node of the grid."""
    dirs = grid_dirs(grid)
    return sphmath.sh_matrix(order, dirs[:, 0], dirs[:, 1]).conj().T @ (grid.weights * samples)


def cap_ymat(geom, order):
    """Y = conjugated spherical harmonics up to ``order`` at the cap
    directions, of shape ((N+1)^2, L): column l holds [Y_n^m(theta_l, phi_l)]*."""
    return sphmath.sh_matrix(order, geom.cap_dirs[:, 0], geom.cap_dirs[:, 1]).conj().T


def velocity_coeffs(geom, v, order):
    """Modal surface velocity u_nm = g_n sum_l v_l [Y_n^m(theta_l, phi_l)]*.

    ``v`` holds one complex velocity per cap; the result is packed as
    q = n^2 + n + m.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (geom.num_caps,):
        raise ValueError(f"expected {geom.num_caps} cap velocities, got {v.shape}")
    g = np.repeat(cap_gain_quadrature(order, geom.alpha), 2 * np.arange(order + 1) + 1)
    return g * (cap_ymat(geom, order) @ v)


def pressure_field(u, k, r, dirs, geom):
    """Radiated pressure at radius r for modal surface velocity u.

    p(theta, phi) = sum_{n,m} radial_near(n) u_nm Y_n^m(theta, phi),
    summed over all orders carried by the packed ``u``.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    order = int(np.sqrt(np.size(u))) - 1
    orders = np.arange(order + 1)
    rad = np.repeat(radial_near(orders, k, r, geom.r0), 2 * orders + 1)
    ymat = sphmath.sh_matrix(order, dirs[:, 0], dirs[:, 1])
    return ymat @ (rad * u)


def beam_pattern_field(w_nm, k, r0, dirs):
    """Far-field beam pattern B(theta, phi) = sum_{n,m} b_n w_nm Y_n^m.

    Full spherical-harmonic route; equals :func:`beam_pattern_modal`
    evaluated at the great-circle angle when w_nm comes from
    axis-symmetric steering.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    order = int(np.sqrt(np.size(w_nm))) - 1
    orders = np.arange(order + 1)
    b = np.repeat(radial_far(orders, k, r0), 2 * orders + 1)
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


def wng_coefficients(w_nm, look, k, r0):
    """WNG from steered coefficients w_nm (coefficient-domain form).

    WNG = 4 pi |sum_{n,m} b_n w_nm Y_n^m(look)|^2 / sum_{n,m} |w_nm|^2.
    The 4 pi keeps the addition-theorem reduction consistent with the
    modal form of :func:`wng`, with which this agrees for weights built
    by axis-symmetric steering.
    """
    order = int(np.sqrt(np.size(w_nm))) - 1
    orders = np.arange(order + 1)
    b = np.repeat(radial_far(orders, k, r0), 2 * orders + 1)
    ylook = sphmath.sh_matrix(order, look[0], look[1])[0]
    num = 4 * np.pi * np.abs(np.sum(b * w_nm * ylook)) ** 2
    denom = np.sum(np.abs(w_nm) ** 2)
    if denom == 0.0:
        raise ValueError("zero steered weights")
    return float(num / denom)


PATTERN_ROW = "%.6f,%.6f,%.12e,%.12e,%.12e,%.6f"


def pattern_rows(columns):
    """The rows of a (6, n) float array, each formatted by PATTERN_ROW, one
    Python ``%`` per row, and ended by a newline."""
    return "".join(PATTERN_ROW % row + "\n" for row in zip(*(c.tolist() for c in columns)))


def pattern_csv(cfg_hash, dirs_rad, values, look_value):
    """The text of the pattern CSV that cli.write_pattern_csv writes for
    these directions, complex values and look value, rendered row by row."""
    mags = np.abs(values)
    dbs = 20.0 * np.log10(np.maximum(mags, 1e-300) / abs(look_value))
    degs = np.rad2deg(dirs_rad)
    return (f"# config_hash: {cfg_hash}\n"
            "# units: theta_deg, phi_deg [degrees]; re, im, abs [pattern units]; "
            "db [20*log10(|B|/|B(look)|)]\n"
            "theta_deg,phi_deg,re,im,abs,db\n"
            + pattern_rows((degs[:, 0], degs[:, 1], values.real, values.imag, mags, dbs)))


def config_hash(cfg):
    """The 16-hex config_hash of a command's config, by hashlib's (OpenSSL's)
    SHA-256 of the config as json.dumps(cfg, sort_keys=True) writes it."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def perturb_transfer_numpy(transfer, gain_db=0.0, phase_deg=0.0, noise=0.0, seed=0):
    """virtualmeas.perturb_transfer's formulas with numpy.random's normal
    deviates from np.random.default_rng(seed): gains 10^(gain_db z / 20),
    phase errors deg2rad(phase_deg z) and noise (z1 + i z2) per entry."""
    rng = np.random.default_rng(seed)
    num_caps = transfer.values.shape[1]
    gains = 10.0 ** (gain_db * rng.standard_normal(num_caps) / 20.0)
    phases = np.deg2rad(phase_deg * rng.standard_normal(num_caps))
    h = transfer.values * (gains * np.exp(1j * phases))
    if noise > 0.0:
        h = h + noise * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
    return replace(transfer, values=h)
