"""Independent reference functions that the tests check the library against.

scipy is a test dependency only; the library computes its special
functions by its own recurrences.
"""

import numpy as np
import scipy.special as sp


def sph_bessel_j(n, x):
    """Spherical Bessel function j_n(x) and its derivative, x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be > 0")
    return sp.spherical_jn(n, x), sp.spherical_jn(n, x, derivative=True)
