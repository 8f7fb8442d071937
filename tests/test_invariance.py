"""Independent steering has no preferred frame beyond the cap layout.

Rotate the caps and the look together, and design.sweep's unit weights w
stay the same; relabel the caps, and w is permuted the same way.  Both hold
to round-off, on both reference layouts, for every method, with far-field
and near-field steering.  The bound is 1e-13 relative, on ||w' - w|| / ||w||
at each frequency: over 10 random rotations and 10 random permutations for
each layout, method and steering, at 300, 1000 and 1500 Hz, the worst cases
measured were 4.5e-15 under rotation and 5.5e-15 under relabelling.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import icosahedral_32

from sphbeam.design import METHODS, sweep
from sphbeam.radiation import C, ArrayGeometry, dodecahedron

BOUND = 1e-13
K = 2 * np.pi * np.array([300.0, 1000.0, 1500.0]) / C
RADIUS = 0.57
# each reference layout at the design order it is run at
LAYOUTS = {"dodecahedron": (dodecahedron(0.15, 0.3), 2),
           "icosahedral_32": (icosahedral_32(0.15, 0.3), 4)}

CASES = dict(layout=st.sampled_from(sorted(LAYOUTS)), method=st.sampled_from(METHODS),
             near_field=st.booleans(),
             look=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)))


def _unit(dirs):
    """Unit vectors (..., 3) of the directions (..., 2), (theta, phi) in radians."""
    theta, phi = np.moveaxis(np.asarray(dirs, dtype=float), -1, 0)
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                    axis=-1)


def _dirs(v):
    """Directions (..., 2) of the unit vectors (..., 3); atan2 keeps theta
    accurate near the poles, where arccos(z) loses half the digits."""
    x, y, z = np.moveaxis(v, -1, 0)
    return np.stack([np.arctan2(np.hypot(x, y), z), np.mod(np.arctan2(y, x), 2 * np.pi)],
                    axis=-1)


def _rotation(q):
    """The rotation matrix of the quaternion q (normalised here)."""
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d]])


def _weights(geom, order, method, look, near_field):
    return sweep(geom, method, order, K, tuple(look), sidelobe_db=25.0,
                 near_field_radius=RADIUS if near_field else None).w


def _relative(got, want):
    """The largest ||got - want|| / ||want|| over the frequencies."""
    return np.max(np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1))


@settings(max_examples=60, deadline=None)
@given(quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4), **CASES)
def test_rotating_caps_and_look_together_keeps_the_unit_weights(layout, method, near_field, look,
                                                                quaternion):
    assume(np.linalg.norm(quaternion) > 0.1)
    geom, order = LAYOUTS[layout]
    rotation = _rotation(quaternion)
    rotated = ArrayGeometry(geom.r0, geom.alpha, _dirs(_unit(geom.cap_dirs) @ rotation.T))
    w = _weights(geom, order, method, look, near_field)
    w_rotated = _weights(rotated, order, method, _dirs(rotation @ _unit(look)), near_field)
    assert _relative(w_rotated, w) <= BOUND


@settings(max_examples=60, deadline=None)
@given(data=st.data(), **CASES)
def test_relabelling_the_caps_permutes_the_unit_weights(layout, method, near_field, look, data):
    geom, order = LAYOUTS[layout]
    perm = data.draw(st.permutations(range(geom.num_caps)))
    relabelled = ArrayGeometry(geom.r0, geom.alpha, geom.cap_dirs[perm])
    w = _weights(geom, order, method, look, near_field)
    assert _relative(_weights(relabelled, order, method, look, near_field), w[:, perm]) <= BOUND
