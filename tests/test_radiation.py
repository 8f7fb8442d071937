import numpy as np
import pytest
import scipy.special as sp

from oracles import (
    beam_pattern_field,
    cap_gain_quadrature,
    icosahedral_32,
    pressure_field,
    sh_index,
    sph_bessel_j,
    velocity_coeffs,
)

from sphbeam import sphmath
from sphbeam.radiation import (
    ArrayGeometry,
    C,
    RHO0,
    beam_pattern_modal,
    cap_gain,
    dodecahedron,
    great_circle_angle,
    radial_far,
    radial_near,
)
from sphbeam.synthesis import steer

GEOM = dodecahedron(r0=0.15, alpha=0.3)
K400 = 2 * np.pi * 400.0 / C


class TestGeometry:
    def test_dodecahedron_has_12_caps(self):
        assert GEOM.num_caps == 12
        assert GEOM.cap_dirs.shape == (12, 2)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            ArrayGeometry(r0=-1.0, alpha=0.3, cap_dirs=[[0.0, 0.0]])

    def test_invalid_aperture(self):
        with pytest.raises(ValueError):
            ArrayGeometry(r0=0.1, alpha=2.0, cap_dirs=[[0.0, 0.0]])

    @pytest.mark.parametrize("cap_dirs, message", [
        ([], r"cap_dirs: must have shape \(L, 2\) with L >= 1"),
        ([[0.0, 0.0, 0.0]], r"cap_dirs: must have shape \(L, 2\) with L >= 1"),
        ([[[0.0, 0.0]]], r"cap_dirs: must have shape \(L, 2\) with L >= 1"),
        ([[0.0, np.nan]], "cap_dirs: must be finite"),
        ([[0.0, 0.0], [np.inf, 0.0]], "cap_dirs: must be finite"),
        ([[-0.1, 0.0]], r"cap_dirs: polar angles must lie in \[0, pi\]"),
        ([[np.pi + 1e-12, 0.0]], r"cap_dirs: polar angles must lie in \[0, pi\]"),
    ], ids=["empty", "three-columns", "three-axes", "nan", "inf", "below-0", "above-pi"])
    def test_invalid_cap_dirs(self, cap_dirs, message):
        with pytest.raises(ValueError, match=message):
            ArrayGeometry(r0=0.1, alpha=0.3, cap_dirs=cap_dirs)

    @pytest.mark.parametrize("layout, limit", [(dodecahedron, 0.55357), (icosahedral_32, 0.32618)],
                             ids=["dodecahedron", "icosahedral-32"])
    def test_caps_may_touch_but_not_overlap(self, layout, limit):
        # the largest disjoint alpha is half the smallest angle between two cap centres
        t, p = layout(0.15, 0.3).cap_dirs.T
        gamma = great_circle_angle((t[:, None], p[:, None]), (t, p))
        touching = gamma[~np.eye(t.size, dtype=bool)].min() / 2
        assert touching == pytest.approx(limit, abs=1e-5)
        assert layout(0.15, touching).alpha == touching
        with pytest.raises(ValueError, match="^alpha: the caps overlap: "):
            layout(0.15, touching * (1 + 1e-12))

    @pytest.mark.parametrize("cap_dirs, alpha", [
        ([[0.0, 0.0], [0.6, 0.0]], 0.3),
        ([[np.pi / 2, 0.0], [np.pi / 2, 0.6]], 0.3),
        ([[0.0, 0.0]], 1.5),
    ], ids=["touching-on-a-meridian", "touching-on-the-equator", "one-cap"])
    def test_disjoint_caps_pass(self, cap_dirs, alpha):
        assert ArrayGeometry(r0=0.1, alpha=alpha, cap_dirs=cap_dirs).alpha == alpha

    @pytest.mark.parametrize("cap_dirs, alpha", [
        (dodecahedron(0.15, 0.3).cap_dirs, 1.5),
        (np.deg2rad([[90.0, 0.0], [90.0, 1.0]]), 0.3),
        ([[0.1, 0.0], [0.1, 0.0]], 0.3),
    ], ids=["dodecahedron-alpha-1.5", "one-degree-apart", "identical"])
    def test_overlapping_caps_raise_naming_alpha(self, cap_dirs, alpha):
        with pytest.raises(ValueError, match="^alpha: the caps overlap: "):
            ArrayGeometry(r0=0.15, alpha=alpha, cap_dirs=cap_dirs)


class TestCapGain:
    def test_monopole(self):
        alpha = 0.37
        assert cap_gain(0, alpha) == pytest.approx(4 * np.pi**2 * (1 - np.cos(alpha)), rel=1e-14)

    def test_dipole(self):
        alpha = 0.37
        assert cap_gain(1, alpha) == pytest.approx(2 * np.pi**2 * np.sin(alpha) ** 2, rel=1e-13)

    def test_vanishing_cap(self):
        for n in range(5):
            assert abs(cap_gain(n, 1e-6)) < 1e-9

    @pytest.mark.parametrize("alpha", [1e-300, 1e-170, 1e-160])
    def test_gain_without_a_finite_reciprocal_raises_naming_alpha(self, alpha):
        # g_n is 0 below about 2e-162 rad and subnormal up to about 1.7e-155 rad
        with pytest.raises(ArithmeticError, match=r"^alpha: "):
            cap_gain(np.arange(3), alpha)

    def test_tiny_gains_with_finite_reciprocals_are_returned(self):
        g = cap_gain(np.arange(46), 1e-150)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(1 / g))

    @pytest.mark.parametrize("alpha", [1e-9, 1e-7, 1e-3, 0.3, 1.2, 1.5])
    def test_matches_quadrature_to_order_45(self, alpha):
        # covers the sign changes of g_n near n = 23 and n = 44 at alpha = 0.3,
        # and caps so small that 1 - cos(alpha) cancels
        ref = cap_gain_quadrature(45, alpha)
        g = cap_gain(np.arange(46), alpha)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))
        if alpha == 0.3:
            assert np.sign(ref[22]) != np.sign(ref[24]) and np.sign(ref[43]) != np.sign(ref[45])

    def test_broadcasts_over_orders(self):
        n = np.arange(6).reshape(2, 3)
        g = cap_gain(n, 0.4)
        assert g.shape == (2, 3)
        assert g.ravel().tolist() == [cap_gain(j, 0.4) for j in range(6)]


class TestVelocityCoeffs:
    def test_equal_velocities_is_5_design(self):
        u = velocity_coeffs(GEOM, np.ones(12), order=5)
        assert u[0] == pytest.approx(cap_gain(0, GEOM.alpha) * 12 / np.sqrt(4 * np.pi), rel=1e-12)
        assert np.max(np.abs(u[1:])) < 1e-12

    def test_single_cap_at_pole(self):
        geom = ArrayGeometry(r0=0.15, alpha=0.3, cap_dirs=[[0.0, 0.0]])
        u = velocity_coeffs(geom, np.ones(1), order=3)
        for n in range(4):
            for m in range(-n, n + 1):
                if m != 0:
                    assert abs(u[sh_index(n, m)]) < 1e-15

    def test_zero_velocity(self):
        u = velocity_coeffs(GEOM, np.zeros(12), order=3)
        assert np.all(u == 0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        v1 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v2 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        lhs = velocity_coeffs(GEOM, 2 * v1 + 3j * v2, order=3)
        rhs = 2 * velocity_coeffs(GEOM, v1, 3) + 3j * velocity_coeffs(GEOM, v2, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRadial:
    def test_far_field_limit_oracle(self):
        # b_n is defined as the r -> inf limit of r e^{-ikr} radial_near
        for n in range(4):
            r = 1e4 * (n + 1) / K400
            lim = r * np.exp(-1j * K400 * r) * radial_near(n, K400, r, GEOM.r0)
            b = radial_far(n, K400, GEOM.r0)
            assert abs(lim - b) / abs(b) < 1e-3

    def test_bracket_formula(self):
        # independent evaluation through the Wronskian-rearranged bracket form
        kr0 = 1.1
        k = kr0 / GEOM.r0
        for n in range(5):
            jn, djn = sph_bessel_j(n, kr0)
            hn, dhn = sphmath.sph_hankel1(n, kr0)
            bracket = (
                -1j
                * RHO0
                * C
                * k
                * GEOM.r0**2
                * (-1j) ** n
                * (jn - djn / dhn * hn)
            )
            assert radial_far(n, k, GEOM.r0) == pytest.approx(bracket, rel=1e-12)

    def test_evanescent_decay(self):
        k = 1.1 / GEOM.r0
        mags = np.abs(radial_far(np.arange(2, 11), k, GEOM.r0))
        assert np.all(np.diff(mags) < 0)

    def test_near_field_decay_above_kr(self):
        k, r = K400, 0.57
        kr = k * r
        vals = np.abs(radial_near(np.arange(0, 15), k, r, GEOM.r0))
        for n in range(int(np.ceil(kr)) + 1, 14):
            assert vals[n + 1] / vals[n] < 1.0

    def test_near_converges_to_far_in_modulus(self):
        for n in range(4):
            r = 1e5 / K400
            val = abs(r * np.exp(-1j * K400 * r) * radial_near(n, K400, r, GEOM.r0))
            assert val == pytest.approx(abs(radial_far(n, K400, GEOM.r0)), rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            radial_near(0, K400, 0.1, GEOM.r0)
        with pytest.raises(ValueError):
            radial_far(0, -1.0, GEOM.r0)


class TestPressureField:
    dirs = np.column_stack(
        [np.linspace(0.1, 3.0, 14), np.linspace(0.0, 6.0, 14)]
    )

    def test_zero_coefficients(self):
        u = np.zeros(9)
        p = pressure_field(u, K400, 0.5, self.dirs, GEOM)
        assert np.all(p == 0)

    def test_monopole_is_omnidirectional(self):
        u = np.eye(9)[0] * (1 + 2j)
        p = pressure_field(u, K400, 0.5, self.dirs, GEOM)
        assert np.max(np.abs(p - p[0])) < 1e-14 * abs(p[0])

    def test_linearity(self):
        rng = np.random.default_rng(5)
        c1 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c2 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        p1 = pressure_field(c1, K400, 0.5, self.dirs, GEOM)
        p2 = pressure_field(c2, K400, 0.5, self.dirs, GEOM)
        p12 = pressure_field(2 * c1 - 1j * c2, K400, 0.5, self.dirs, GEOM)
        assert np.max(np.abs(p12 - (2 * p1 - 1j * p2))) < 1e-10

    def test_matches_far_field_form_with_exact_near_field_steering(self):
        # with the radius-r radial terms retained exactly in the steering,
        # the radiated field at r equals e^{ikr}/r times the designed pattern
        from sphbeam.virtualmeas import near_field_steer

        r = 0.57
        d = np.array([1.0, 0.7, 0.3])
        look = (0.4, 1.1)
        sw = near_field_steer(d, look, K400, r, GEOM.r0)
        p = pressure_field(sw, K400, r, self.dirs, GEOM)
        ref = (
            np.exp(1j * K400 * r)
            / r
            * beam_pattern_modal(d, great_circle_angle(look, self.dirs.T))
        )
        assert np.linalg.norm(p - ref) / np.linalg.norm(ref) < 0.05


class TestGreatCircleAngle:
    def test_same_direction(self):
        assert great_circle_angle((0.0, 0.0), (0.0, 2.3)) == 0.0

    def test_antipode(self):
        assert great_circle_angle((0.0, 0.0), (np.pi, 0.0)) == pytest.approx(np.pi)

    def test_orthogonal(self):
        ang = great_circle_angle((np.pi / 2, 0.0), (np.pi / 2, np.pi / 2))
        assert ang == pytest.approx(np.pi / 2, abs=1e-12)


class TestBeamPattern:
    def test_ones_at_boresight(self):
        assert beam_pattern_modal(np.ones(3), 0.0) == pytest.approx(9 / (4 * np.pi), rel=1e-12)

    def test_first_order_null(self):
        val = beam_pattern_modal(np.ones(2), np.arccos(-1 / 3))
        assert abs(val) < 1e-14

    def test_omnidirectional(self):
        theta = np.linspace(0, np.pi, 33)
        vals = beam_pattern_modal([1.0, 0.0, 0.0], theta)
        assert np.max(np.abs(vals - 1 / (4 * np.pi))) < 1e-15

    def test_order_45_matches_per_order_legendre_sum(self):
        rng = np.random.default_rng(31)
        d = rng.standard_normal(46) + 1j * rng.standard_normal(46)
        theta = np.linspace(0.0, np.pi, 181)
        x = np.cos(theta)
        ref = sum(dn * (2 * n + 1) / (4 * np.pi) * sp.eval_legendre(n, x)
                  for n, dn in enumerate(d))
        vals = beam_pattern_modal(d, theta)
        assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_field_route_matches_modal_route(self):
        rng = np.random.default_rng(17)
        dirs = np.column_stack([rng.uniform(0, np.pi, 25), rng.uniform(0, 2 * np.pi, 25)])
        for _ in range(5):
            order = rng.integers(0, 5)
            d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            look = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            sw = steer(d, look, K400, GEOM.r0)
            full = beam_pattern_field(sw, K400, GEOM.r0, dirs)
            modal = beam_pattern_modal(d, great_circle_angle(look, dirs.T))
            assert np.max(np.abs(full - modal)) < 1e-9

    def test_axis_symmetry(self):
        # directions sharing the same great-circle angle get the same value
        look = (0.9, 0.3)
        d = np.array([0.2, 1.0 - 0.5j, 0.4j])
        sw = steer(d, look, K400, GEOM.r0)
        rng = np.random.default_rng(23)
        for _ in range(10):
            gc = rng.uniform(0.1, np.pi - 0.1)
            azimuths = rng.uniform(0, 2 * np.pi, 6)
            # rotate the look axis by gc towards varying azimuths
            dirs = _ring_around(look, gc, azimuths)
            vals = beam_pattern_field(sw, K400, GEOM.r0, dirs)
            assert np.max(np.abs(vals - vals[0])) < 1e-9


def _ring_around(look, gc, azimuths):
    """Directions at constant angle gc from ``look``."""
    t0, p0 = look
    axis = np.array([np.sin(t0) * np.cos(p0), np.sin(t0) * np.sin(p0), np.cos(t0)])
    # orthonormal frame around the axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    pts = (
        np.cos(gc) * axis[None, :]
        + np.sin(gc) * (np.cos(azimuths)[:, None] * e1 + np.sin(azimuths)[:, None] * e2)
    )
    theta = np.arccos(np.clip(pts[:, 2], -1, 1))
    phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    return np.column_stack([theta, phi])
