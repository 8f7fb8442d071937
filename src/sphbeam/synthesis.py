"""Weight synthesis: steering modal weights into spherical-harmonic
coefficients and mapping them to per-loudspeaker driving weights.

The steered coefficients are w_nm = (d_n / b_n) [Y_n^m(look)]* and the
per-unit weights solve G Y w = w_nm in the minimum-norm sense via an
SVD pseudo-inverse.  Near-field compensated steering replaces b_n by the
radial term at a finite analysis radius.

Steering and synthesis broadcast over a leading frequency axis: with k of
shape (F,), d is (F, N+1) or one (N+1,) for all, w_nm is
(F, (N+1)^2) and the unit weights are (F, L).
"""

from dataclasses import dataclass

import numpy as np

from . import sphmath
from .radiation import cap_gain, radial_far, radial_near

__all__ = [
    "TransformMatrices",
    "steer",
    "near_field_steer",
    "build_transform",
    "unit_weights",
]

_SV_CUTOFF = 1e-10  # Y is rank deficient when sigma_min / sigma_max falls below this


@dataclass(frozen=True)
class TransformMatrices:
    """The pseudo-inverse Y^+ (L x (N+1)^2) of Y, the conjugated SH at
    the cap directions ((N+1)^2 x L), and the diagonal of G (g_n with
    multiplicity 2n+1)."""

    ypinv: np.ndarray
    g_diag: np.ndarray


def _steer_coeffs(d, look, per_order_divisor):
    """w_nm = (d_n / divisor_n) [Y_n^m(look)]* in packed form, broadcast
    over leading axes; raises if any divisor_n vanishes."""
    bad = np.abs(per_order_divisor) < 1e-300
    if np.any(bad):
        orders = np.nonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0]
        raise ArithmeticError(f"steering radial term vanishes for n={orders.tolist()}")
    order = d.shape[-1] - 1
    reps = [2 * n + 1 for n in range(order + 1)]
    ylook = sphmath.sh_matrix(order, look[0], look[1])[0]
    return np.repeat(d / per_order_divisor, reps, axis=-1) * ylook.conj()


def steer(d, look, k, r0, near_field_radius=None):
    """Steer modal weights d_n to a look direction.

    Returns w_nm = (d_n / b_n(k r0)) [Y_n^m(theta0, phi0)]*, packed as
    q = n^2 + n + m, or, when ``near_field_radius`` is given, the
    near-field compensated coefficients of :func:`near_field_steer` for
    the sphere of that radius.  ``d`` has shape (..., N+1) and broadcasts
    against k: w_nm has shape broadcast(d.shape[:-1], k.shape) + ((N+1)^2,).
    Raises if any b_n vanishes at this k r0.
    """
    if near_field_radius is not None:
        return near_field_steer(d, look, k, near_field_radius, r0)
    dv = np.asarray(d, dtype=complex)
    return _steer_coeffs(dv, look, radial_far(np.arange(dv.shape[-1]), k, r0))


def near_field_steer(d, look, k, r, r0):
    """Steering with exact near-field compensation at analysis radius r.

    Replaces b_n in the steering by the exact radius-r radial term
    r e^{-ikr} radial_near(n, k, r, r0), so the pattern on the radius-r
    sphere equals the designed far-field pattern.  Converges to
    :func:`steer` for k r >> N.  Broadcasts over k as :func:`steer` does.
    """
    dv = np.asarray(d, dtype=complex)
    near = radial_near(np.arange(dv.shape[-1]), k, r, r0)  # first: it rejects k r overflow
    phase = np.exp(-1j * np.asarray(k, dtype=float) * r)[..., None]
    return _steer_coeffs(dv, look, r * phase * near)


def build_transform(geom, order):
    """Build the G and Y matrices of the cap-to-coefficient transform.

    Requires (N+1)^2 <= L; reports rank deficiency of Y, which occurs
    for poorly spread cap layouts, and a cap gain g_n (n <= N) whose
    reciprocal is not finite, which occurs for a vanishing aperture
    alpha.  Y^+ comes from the SVD of the rank check, conj(Y) = u s vh,
    as numpy.linalg.pinv forms it: vh^T diag(1/s) u^T.
    """
    ncoef = sphmath.num_coeffs(order)
    if ncoef > geom.num_caps:
        raise ValueError(
            f"order: (N+1)^2 = {ncoef} coefficients exceed L = {geom.num_caps} caps; "
            f"only L spherical harmonics can be controlled"
        )
    ymat_conj = sphmath.sh_matrix(order, geom.cap_dirs[:, 0], geom.cap_dirs[:, 1]).T
    u, s, vh = np.linalg.svd(ymat_conj, full_matrices=False)
    if s[-1] < _SV_CUTOFF * s[0]:
        raise ArithmeticError(
            f"cap_dirs: spherical-harmonic matrix is rank deficient for this cap layout "
            f"(sigma_min/sigma_max = {s[-1] / s[0]:.2e})"
        )
    n = np.arange(order + 1)
    g = cap_gain(n, geom.alpha)
    with np.errstate(divide="ignore", over="ignore"):
        vanishing = ~np.isfinite(1 / g)  # G^{-1} would overflow
    if np.any(vanishing):
        raise ArithmeticError(f"alpha: the cap gain g_n vanishes in float arithmetic for "
                              f"n = {n[vanishing].tolist()} at alpha = {geom.alpha:g} rad")
    return TransformMatrices(ypinv=vh.T @ ((1 / s)[:, None] * u.T),
                             g_diag=np.repeat(g, 2 * n + 1))


def unit_weights(w_nm, transform):
    """Per-unit weights w = Y^+ G^{-1} w_nm (minimum-norm solution of
    G Y w = w_nm): the complex (..., L) array for ``w_nm`` of shape
    (..., (N+1)^2).  One stacked matrix-vector product covers all rows;
    it rounds each row as Y^+ @ v does."""
    if np.shape(w_nm)[-1:] != transform.ypinv.shape[1:]:
        raise ValueError(f"w_nm: expected {transform.ypinv.shape[1]} coefficients for the "
                         f"transform's order, got shape {np.shape(w_nm)}")
    return (transform.ypinv @ (w_nm / transform.g_diag)[..., None])[..., 0]
