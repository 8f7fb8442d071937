"""Closed-form axis-symmetric beamformer designs, and the design pipeline.

Three designs are provided: maximum directivity (d_n = 1, the
hyper-cardioid / plane-wave-decomposition pattern), maximum white-noise
gain, and Dolph-Chebyshev with a prescribed sidelobe level.  Each returns
the modal weights d_n as an array whose last axis is n = 0..N.
:func:`sweep` runs design -> steering -> synthesis -> metrics for every
frequency of a sweep at once.
"""

from dataclasses import dataclass

import numpy as np

from . import metrics, sphmath, synthesis
from .metrics import MetricReport
from .radiation import Medium, beam_pattern_modal, radial_far

__all__ = [
    "METHODS",
    "Sweep",
    "max_directivity_weights",
    "max_wng_weights",
    "dolph_chebyshev_weights",
    "sweep",
]

METHODS = ("max-di", "max-wng", "dolph-chebyshev")


def max_directivity_weights(order):
    """Maximum-directivity weights d_n = 1, achieving Q = (N+1)^2."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return np.ones(order + 1)


def max_wng_weights(order, k, r0, medium=Medium()):
    """Maximum white-noise-gain weights.

    d_n = 4 pi |b_n(k r0)|^2 / sum_n' |b_n'(k r0)|^2 (2n'+1); the
    resulting pattern is distortionless, B(0) = 1.  Vectorized over k:
    the result has shape k.shape + (N+1,).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    n = np.arange(order + 1)
    b2 = np.abs(radial_far(n, k, r0, medium)) ** 2
    denom = np.sum(b2 * (2 * n + 1), axis=-1, keepdims=True)
    if np.any(denom == 0.0):
        raise ArithmeticError("all radial functions vanish; cannot normalize")
    return 4 * np.pi * b2 / denom


def dolph_chebyshev_weights(order, sidelobe_db):
    """Dolph-Chebyshev weights for a given main-to-sidelobe ratio (dB).

    The target pattern is T_{2N}(x0 cos(Theta/2)) with
    x0 = cosh(acosh(R) / 2N) and R = 10^{sidelobe_db/20}, which is a
    degree-N polynomial in cos Theta.  The weights are obtained by exact
    Gauss-Legendre projection onto P_n and normalized so that B(0) = 1.
    """
    if order < 1:
        raise ValueError("Dolph-Chebyshev design requires order >= 1")
    if not 0 < sidelobe_db < np.inf:
        raise ValueError("sidelobe level must be a finite positive number of dB")
    ratio = 10.0 ** (sidelobe_db / 20.0)
    x0 = np.cosh(np.arccosh(ratio) / (2 * order))

    nodes, qw = np.polynomial.legendre.leggauss(4 * order + 8)
    target = np.polynomial.Chebyshev.basis(2 * order)(x0 * np.sqrt((1.0 + nodes) / 2.0))
    p, _ = sphmath.legendre(np.arange(order + 1), nodes)
    d = 2.0 * np.pi * p.T @ (qw * target)

    # Projection is exact for the degree-N integrand; verify reconstruction.
    recon = beam_pattern_modal(d, np.arccos(nodes))
    resid = np.max(np.abs(recon - target)) / np.max(np.abs(target))
    if resid > 1e-8:
        raise ArithmeticError(f"Legendre projection did not converge (residual {resid:.2e})")

    b0 = np.sum(d * (2 * np.arange(order + 1) + 1)) / (4 * np.pi)
    return d / b0


@dataclass(frozen=True)
class Sweep:
    """One design at every frequency of a sweep, with a leading frequency
    axis of shape k.shape on every field:

    d (..., N+1) modal weights; w_nm (..., (N+1)^2) steered coefficients;
    w (..., L) unit weights; report a MetricReport
    whose fields have shape k.shape; unit_weight_norm (...,) ||w||^2.
    """

    d: np.ndarray
    w_nm: np.ndarray
    w: np.ndarray
    report: MetricReport
    unit_weight_norm: np.ndarray


def sweep(geom, method, order, k, look, sidelobe_db=None, near_field_radius=None,
          medium=Medium()):
    """Design, steer to ``look``, synthesize and report at every wavenumber k.

    ``method`` is one of METHODS; ``sidelobe_db`` is required for
    dolph-chebyshev.  Steering is far-field, or compensated for the
    sphere of radius ``near_field_radius`` when one is given.  Max-DI and
    Dolph-Chebyshev weights do not depend on k and are designed once.
    Raises ArithmeticError when any result is not finite, so a caller
    that writes only after this returns writes all frequencies or none.
    """
    k = np.asarray(k, dtype=float)
    transform = synthesis.build_transform(geom, order)
    if method == "max-di":
        d = max_directivity_weights(order)
    elif method == "max-wng":
        d = max_wng_weights(order, k, geom.r0, medium)
    elif method == "dolph-chebyshev":
        if sidelobe_db is None:
            raise ValueError("sidelobe: required for method dolph-chebyshev")
        d = dolph_chebyshev_weights(order, sidelobe_db)
    else:
        raise ValueError(f"method: expected one of {', '.join(METHODS)}, got {method!r}")
    d = np.broadcast_to(d, k.shape + (order + 1,))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w_nm = synthesis.steer_at(d, look, k, geom.r0, near_field_radius, medium)
        w = synthesis.unit_weights(w_nm, transform)
        rep = metrics.report(d, k, geom.r0, medium)
        norm = np.sum(np.abs(w) ** 2, axis=-1)
    for name, value in (("d", d), ("w_nm", w_nm), ("w", w), *vars(rep).items(),
                        ("unit_weight_norm", norm)):
        ok = np.all(np.isfinite(value).reshape(k.shape + (-1,)), axis=-1)
        if not np.all(ok):
            raise ArithmeticError(f"{name} is not finite at k = {k[~ok].flat[0]:.6g} 1/m")
    return Sweep(d=d, w_nm=w_nm, w=w, report=rep, unit_weight_norm=norm)
