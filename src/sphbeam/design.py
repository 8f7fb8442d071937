"""Closed-form axis-symmetric beamformer designs.

Three designs are provided: maximum directivity (d_n = 1, the
hyper-cardioid / plane-wave-decomposition pattern), maximum white-noise
gain, and Dolph-Chebyshev with a prescribed sidelobe level.
"""

from dataclasses import dataclass

import numpy as np

from . import sphmath
from .radiation import Medium, beam_pattern_modal, radial_far

__all__ = [
    "ModalWeights",
    "max_directivity_weights",
    "hypercardioid_pattern",
    "max_wng_weights",
    "dolph_chebyshev_weights",
]


@dataclass(frozen=True)
class ModalWeights:
    """Axis-symmetric modal weights d_n, n = 0..N."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        if self.d.ndim != 1 or self.d.size < 1 or not np.all(np.isfinite(self.d)):
            raise ValueError("modal weights must be a finite 1-d vector")

    @property
    def order(self):
        return self.d.size - 1


def max_directivity_weights(order):
    """Maximum-directivity weights d_n = 1, achieving Q = (N+1)^2."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return ModalWeights(d=np.ones(order + 1))


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
        * (sphmath.legendre(order + 1, xr) - sphmath.legendre(order, xr))
    )
    return float(out[0]) if scalar else out


def max_wng_weights(order, k, r0, medium=Medium()):
    """Maximum white-noise-gain weights.

    d_n = 4 pi |b_n(k r0)|^2 / sum_n' |b_n'(k r0)|^2 (2n'+1); the
    resulting pattern is distortionless, B(0) = 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    n = np.arange(order + 1)
    b2 = np.abs(radial_far(n, k, r0, medium)) ** 2
    denom = np.sum(b2 * (2 * n + 1))
    if denom == 0.0:
        raise ArithmeticError("all radial functions vanish; cannot normalize")
    return ModalWeights(d=4 * np.pi * b2 / denom)


def _chebyshev(m, x):
    """Chebyshev polynomial T_m(x), valid inside and outside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= 1.0
    out = np.empty_like(x)
    out[inside] = np.cos(m * np.arccos(x[inside]))
    xo = x[~inside]
    out[~inside] = np.sign(xo) ** m * np.cosh(m * np.arccosh(np.abs(xo)))
    return out


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
    target = _chebyshev(2 * order, x0 * np.sqrt((1.0 + nodes) / 2.0))
    d = np.empty(order + 1)
    for n in range(order + 1):
        d[n] = 2.0 * np.pi * np.sum(qw * target * sphmath.legendre(n, nodes))

    # Projection is exact for the degree-N integrand; verify reconstruction.
    recon = beam_pattern_modal(d, np.arccos(nodes))
    resid = np.max(np.abs(recon - target)) / np.max(np.abs(target))
    if resid > 1e-8:
        raise ArithmeticError(f"Legendre projection did not converge (residual {resid:.2e})")

    b0 = np.sum(d * (2 * np.arange(order + 1) + 1)) / (4 * np.pi)
    return ModalWeights(d=d / b0)
