"""Directivity and robustness measures.

Directivity factor Q and white-noise gain (WNG) in the modal closed
forms.
"""

import numpy as np

from .radiation import radial_far

__all__ = [
    "directivity_factor",
    "directivity_index",
    "wng",
    "report",
]


def _dvec(d):
    """Modal weights as a complex (..., N+1) array, each row nonzero."""
    d = np.asarray(d, dtype=complex)
    if not np.all(np.any(d, axis=-1)):
        raise ValueError("modal weights must be nonzero")
    return d


def _float(x):
    """A Python float for a single value, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def directivity_factor(d):
    """Q = |sum_n d_n (2n+1)|^2 / sum_n |d_n|^2 (2n+1), over the last axis of d."""
    d = _dvec(d)
    a = 2 * np.arange(d.shape[-1]) + 1
    return _float(np.abs(np.sum(d * a, axis=-1)) ** 2 / np.sum(np.abs(d) ** 2 * a, axis=-1))


def directivity_index(q):
    """DI = 10 log10 Q, in dB."""
    return _float(10.0 * np.log10(q))


def wng(d, k, r0):
    """White-noise gain of modal weights at wavenumber k.

    WNG = |sum_n d_n (2n+1)|^2 / sum_n (|d_n|^2 / |b_n(k r0)|^2)(2n+1).
    d of shape (..., N+1) broadcasts against k over the leading axes.
    """
    d = _dvec(d)
    n = np.arange(d.shape[-1])
    a = 2 * n + 1
    b2 = np.abs(radial_far(n, k, r0)) ** 2
    denom = np.sum(np.abs(d) ** 2 / b2 * a, axis=-1)
    if np.any(denom == 0.0):
        raise ValueError("degenerate weights: zero WNG denominator")
    return _float(np.abs(np.sum(d * a, axis=-1)) ** 2 / denom)


def report(d, k, r0):
    """The metrics file's fields for modal weights at wavenumber k: a dict
    of the directivity factor ``q`` and index ``di_db``, and the white-noise
    gain ``wng`` and ``wng_db``.

    d of shape (..., N+1) broadcasts against k: one d for every k, or one
    row per k.  The values have the broadcast shape, k.shape for a k array
    and Python floats for a scalar k and a 1-d d.
    """
    w = wng(d, k, r0)
    q = _float(np.broadcast_to(directivity_factor(d), np.shape(w)))
    return {"q": q, "di_db": directivity_index(q), "wng": w, "wng_db": directivity_index(w)}
