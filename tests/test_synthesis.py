import numpy as np
import pytest
from oracles import beam_pattern_field, cap_ymat, sh_index, velocity_coeffs

from sphbeam.radiation import (
    ArrayGeometry,
    C,
    beam_pattern_modal,
    dodecahedron,
    great_circle_angle,
)
from sphbeam.synthesis import build_transform, steer, unit_weights

GEOM = dodecahedron(r0=0.15, alpha=0.3)
K400 = 2 * np.pi * 400.0 / C


class TestSteer:
    def test_polar_look_kills_nonzonal_modes(self):
        sw = steer(np.array([1.0, 0.5, 0.2]), (0.0, 0.0), K400, GEOM.r0)
        for n in range(3):
            for m in range(-n, n + 1):
                if m != 0:
                    assert abs(sw[sh_index(n, m)]) < 1e-15

    def test_full_field_route_matches_modal_route(self):
        rng = np.random.default_rng(13)
        dirs = np.column_stack([rng.uniform(0, np.pi, 40), rng.uniform(0, 2 * np.pi, 40)])
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        look = (1.2, 5.0)
        sw = steer(d, look, K400, GEOM.r0)
        full = beam_pattern_field(sw, K400, GEOM.r0, dirs)
        modal = beam_pattern_modal(d, great_circle_angle(look, dirs.T))
        assert np.max(np.abs(full - modal)) < 1e-9

    def test_steering_independence(self):
        # the same d_n steered anywhere yields the same B(Theta) profile
        rng = np.random.default_rng(29)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        theta_gc = np.linspace(0, np.pi, 19)
        ref = beam_pattern_modal(d, theta_gc)
        for _ in range(5):
            look = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            sw = steer(d, look, K400, GEOM.r0)
            dirs = _offset_dirs(look, theta_gc)
            vals = beam_pattern_field(sw, K400, GEOM.r0, dirs)
            assert np.max(np.abs(vals - ref)) < 1e-9


def _offset_dirs(look, theta_gc):
    t0, p0 = look
    axis = np.array([np.sin(t0) * np.cos(p0), np.sin(t0) * np.sin(p0), np.cos(t0)])
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    pts = np.cos(theta_gc)[:, None] * axis + np.sin(theta_gc)[:, None] * e1
    return np.column_stack(
        [np.arccos(np.clip(pts[:, 2], -1, 1)), np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)]
    )


class TestBuildTransform:
    def test_dodecahedron_order_2(self):
        t = build_transform(GEOM, 2)
        assert t.ypinv.shape == (12, 9)
        assert np.linalg.matrix_rank(t.ypinv) == 9

    def test_order_bound_enforced(self):
        with pytest.raises(ValueError, match=r"\(N\+1\)\^2"):
            build_transform(GEOM, 3)

    def test_gain_diagonal_structure(self):
        from sphbeam.radiation import cap_gain

        t = build_transform(GEOM, 1)
        g0 = cap_gain(0, GEOM.alpha)
        g1 = cap_gain(1, GEOM.alpha)
        assert np.allclose(t.g_diag, [g0, g1, g1, g1])

    def test_rank_deficient_layout_rejected(self):
        # 4 disjoint caps on one meridian cannot span 4 harmonics
        caps = [[0.1, 0.0], [0.8, 0.0], [1.5, 0.0], [2.2, 0.0]]
        geom = ArrayGeometry(r0=0.15, alpha=0.3, cap_dirs=caps)
        with pytest.raises(ArithmeticError, match="rank deficient"):
            build_transform(geom, 1)


class TestUnitWeights:
    transform = build_transform(GEOM, 2)

    def _steered(self, seed=0):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        return steer(d, (0.7, 0.2), K400, GEOM.r0)

    def test_round_trip(self):
        sw = self._steered()
        w = unit_weights(sw, self.transform)
        back = velocity_coeffs(GEOM, w, 2)
        assert np.max(np.abs(back - sw)) < 1e-9

    def test_zero_maps_to_zero(self):
        w = unit_weights(np.zeros(9), self.transform)
        assert np.max(np.abs(w)) < 1e-15

    @pytest.mark.parametrize("shape", [(8,), (16,), (4, 8), ()])
    def test_rejects_wrong_coefficient_count(self, shape):
        with pytest.raises(ValueError, match="w_nm: expected 9 coefficients"):
            unit_weights(np.ones(shape, dtype=complex), self.transform)

    def test_minimum_norm(self):
        sw = self._steered(seed=1)
        w = unit_weights(sw, self.transform)
        _, _, vh = np.linalg.svd(cap_ymat(GEOM, 2))
        null = vh[9:].conj().T  # 12x3 null-space basis of Y
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            alt = w + null @ z
            assert np.sum(np.abs(alt) ** 2) >= np.sum(np.abs(w) ** 2) - 1e-12

    def test_pseudo_inverse_contract(self):
        # the two Penrose identities Y Y+ Y = Y and Y+ Y Y+ = Y+ of the library's Y+
        y = cap_ymat(GEOM, 2)
        ypinv = self.transform.ypinv
        assert np.max(np.abs(y @ ypinv @ y - y)) < 1e-10
        assert np.max(np.abs(ypinv @ y @ ypinv - ypinv)) < 1e-10


class TestForwardWeights:
    transform = build_transform(GEOM, 2)

    def test_equal_weights_excite_only_order_zero(self):
        w_nm = velocity_coeffs(GEOM, np.ones(12), 2)
        assert np.max(np.abs(w_nm[1:])) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        w2 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        lhs = velocity_coeffs(GEOM, 2 * w1 + 1j * w2, 2)
        rhs = 2 * velocity_coeffs(GEOM, w1, 2) + 1j * velocity_coeffs(GEOM, w2, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_composition_is_identity_on_image(self):
        sw = steer(np.array([0.3, 1.0, 0.5]), (1.0, 2.0), K400, GEOM.r0)
        w = unit_weights(sw, self.transform)
        again = unit_weights(velocity_coeffs(GEOM, w, 2), self.transform)
        assert np.max(np.abs(again - w)) < 1e-10


class TestEndToEnd:
    def test_pattern_preserved_through_synthesis(self):
        # d -> steer -> unit weights -> forward -> full-field pattern
        transform = build_transform(GEOM, 2)
        k = 1.1 / GEOM.r0
        rng = np.random.default_rng(6)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        look = (0.9, 4.0)
        sw = steer(d, look, k, GEOM.r0)
        w = unit_weights(sw, transform)
        w_nm = velocity_coeffs(GEOM, w, 2)
        dirs = np.column_stack([rng.uniform(0, np.pi, 30), rng.uniform(0, 2 * np.pi, 30)])
        full = beam_pattern_field(w_nm, k, GEOM.r0, dirs)
        modal = beam_pattern_modal(d, great_circle_angle(look, dirs.T))
        assert np.max(np.abs(full - modal)) < 1e-8
