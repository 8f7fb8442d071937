import numpy as np
import pytest
from oracles import directivity_factor_integral, grid_dirs, wng_coefficients

from sphbeam.design import max_wng_weights
from sphbeam.metrics import (
    directivity_factor,
    directivity_index,
    report,
    wng,
)
from sphbeam.radiation import beam_pattern_modal, great_circle_angle, radial_far
from sphbeam.synthesis import steer
from sphbeam.virtualmeas import gaussian_grid

R0 = 0.15


def _integral_q(d, look=(0.6, 1.9)):
    order = len(d) - 1
    grid = gaussian_grid(2 * order + 2, 1.0)
    vals = beam_pattern_modal(d, great_circle_angle(look, grid_dirs(grid).T))
    return directivity_factor_integral(beam_pattern_modal(d, 0.0), vals, grid.weights)


class TestDirectivityFactor:
    def test_hypercardioid(self):
        assert directivity_factor(np.ones(3)) == pytest.approx(9.0, abs=1e-12)

    def test_monopole(self):
        assert directivity_factor([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_di_value(self):
        assert directivity_index(9.0) == pytest.approx(9.5424, abs=1e-4)

    def test_matches_integral_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            order = rng.integers(0, 5)
            d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            assert directivity_factor(d) == pytest.approx(_integral_q(d), rel=1e-6)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            directivity_factor(np.zeros(3))


class TestDirectivityIntegral:
    def test_constant_pattern(self):
        grid = gaussian_grid(4, 1.0)
        vals = np.full(grid.num_points, 2.7 + 0.1j)
        assert directivity_factor_integral(vals[0], vals, grid.weights) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hypercardioid_n2(self):
        assert _integral_q(np.ones(3)) == pytest.approx(9.0, abs=1e-6)

    def test_scale_invariance(self):
        grid = gaussian_grid(6, 1.0)
        d = np.array([1.0, 0.5, 0.25])
        vals = beam_pattern_modal(d, grid_dirs(grid)[:, 0])
        q1 = directivity_factor_integral(beam_pattern_modal(d, 0.0), vals, grid.weights)
        q5 = directivity_factor_integral(5 * beam_pattern_modal(d, 0.0), 5 * vals, grid.weights)
        assert q5 == pytest.approx(q1, rel=1e-12)


class TestWng:
    def test_max_wng_achieves_closed_form(self):
        k = 1.1 / R0
        d = max_wng_weights(2, k, R0)
        n = np.arange(3)
        expected = np.sum((2 * n + 1) * np.abs(radial_far(n, k, R0)) ** 2)
        assert wng(d, k, R0) == pytest.approx(expected, rel=1e-10)

    def test_beats_uniform_weights(self):
        k = 1.1 / R0
        opt = wng(max_wng_weights(2, k, R0), k, R0)
        assert opt >= wng(np.ones(3), k, R0)

    def test_scale_invariance(self):
        k = 1.1 / R0
        d = np.array([1.0, 0.4 - 0.2j, 0.1j])
        assert wng(3.7j * d, k, R0) == pytest.approx(wng(d, k, R0), rel=1e-12)

    def test_matches_coefficient_domain_form(self):
        rng = np.random.default_rng(77)
        k = 1.1 / R0
        for _ in range(20):
            order = rng.integers(0, 5)
            d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            look = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            sw = steer(d, look, k, R0)
            lhs = wng_coefficients(sw, look, k, R0)
            assert lhs == pytest.approx(wng(d, k, R0), rel=1e-9)


class TestRayleighQuotientForms:
    def test_matrix_forms_equal_scalar_formulas(self):
        rng = np.random.default_rng(88)
        k = 1.1 / R0
        for _ in range(20):
            order = rng.integers(0, 5)
            d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            a = 2.0 * np.arange(order + 1) + 1.0
            q_mat = (d.conj() @ np.outer(a, a) @ d).real / (d.conj() @ np.diag(a) @ d).real
            assert q_mat == pytest.approx(directivity_factor(d), rel=1e-10)
            b2 = np.abs(radial_far(np.arange(order + 1), k, R0)) ** 2
            wng_mat = (d.conj() @ np.outer(a, a) @ d).real / (
                d.conj() @ np.diag(a / b2) @ d
            ).real
            assert wng_mat == pytest.approx(wng(d, k, R0), rel=1e-10)


class TestReport:
    def test_fields(self):
        k = 1.1 / R0
        rep = report(np.ones(3), k, R0)
        assert rep["q"] == pytest.approx(9.0)
        assert rep["di_db"] == pytest.approx(10 * np.log10(9.0))
        assert rep["wng_db"] == pytest.approx(10 * np.log10(rep["wng"]))
        assert rep["q"] > 0 and rep["wng"] > 0
