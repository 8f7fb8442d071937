import numpy as np
import pytest
from oracles import hypercardioid_pattern

from sphbeam.design import (
    dolph_chebyshev_weights,
    max_directivity_weights,
    max_wng_weights,
)
from sphbeam.metrics import directivity_factor, wng
from sphbeam.radiation import beam_pattern_modal, radial_far

R0 = 0.15


class TestMaxDirectivity:
    def test_all_ones(self):
        assert np.array_equal(max_directivity_weights(2), np.ones(3))
        assert np.array_equal(max_directivity_weights(0), [1.0])

    def test_directivity_is_squared_order(self):
        for order in range(6):
            q = directivity_factor(max_directivity_weights(order))
            assert q == pytest.approx((order + 1) ** 2, abs=1e-9)

    def test_optimality_against_random_designs(self):
        rng = np.random.default_rng(101)
        for order in range(5):
            q_opt = directivity_factor(max_directivity_weights(order))
            for _ in range(200):
                d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
                assert directivity_factor(d) <= q_opt + 1e-9

    def test_equality_only_for_uniform_weights(self):
        d = np.ones(4)
        d[2] = 1.01
        assert directivity_factor(d) < directivity_factor(np.ones(4))


class TestHypercardioid:
    def test_boresight_limit(self):
        assert hypercardioid_pattern(2, 0.0) == pytest.approx(9 / (4 * np.pi), rel=1e-12)

    def test_rear_value(self):
        # P_3(-1) = -1, P_2(-1) = 1 in the closed form
        assert hypercardioid_pattern(2, np.pi) == pytest.approx(3 / (4 * np.pi), rel=1e-12)

    def test_matches_modal_route(self):
        rng = np.random.default_rng(31)
        theta = rng.uniform(0, np.pi, 100)
        for order in (1, 2, 4):
            closed = hypercardioid_pattern(order, theta)
            modal = beam_pattern_modal(np.ones(order + 1), theta).real
            assert np.max(np.abs(closed - modal)) < 1e-10


class TestMaxWng:
    def test_distortionless(self):
        for kr0 in (0.5, 1.1, 2.75):
            d = max_wng_weights(3, kr0 / R0, R0)
            b0 = np.sum(d * (2 * np.arange(4) + 1)) / (4 * np.pi)
            assert b0 == pytest.approx(1.0, abs=1e-12)

    def test_achieved_wng_value(self):
        k = 1.1 / R0
        for order in (1, 2, 3):
            d = max_wng_weights(order, k, R0)
            n = np.arange(order + 1)
            expected = np.sum((2 * n + 1) * np.abs(radial_far(n, k, R0)) ** 2)
            assert wng(d, k, R0) == pytest.approx(expected, rel=1e-10)

    def test_order_zero(self):
        d = max_wng_weights(0, 1.1 / R0, R0)
        assert d[0] == pytest.approx(4 * np.pi, rel=1e-14)

    def test_optimality_against_random_designs(self):
        rng = np.random.default_rng(202)
        for kr0 in (0.5, 1.1, 2.75):
            k = kr0 / R0
            opt = wng(max_wng_weights(3, k, R0), k, R0)
            for _ in range(200):
                d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                assert wng(d, k, R0) <= opt * (1 + 1e-9)


class TestDolphChebyshev:
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("sidelobe_db", [20.0, 25.0, 30.0])
    def test_sidelobe_level(self, order, sidelobe_db):
        d = dolph_chebyshev_weights(order, sidelobe_db)
        ratio = 10.0 ** (-sidelobe_db / 20.0)
        x0 = np.cosh(np.arccosh(1.0 / ratio) / (2 * order))
        theta = np.linspace(2 * np.arccos(1 / x0), np.pi, 20001)
        peak = np.max(np.abs(beam_pattern_modal(d, theta)))
        b0 = abs(beam_pattern_modal(d, 0.0))
        assert abs(peak - ratio * b0) / (ratio * b0) < 1e-6

    def test_equiripple(self):
        for order, sidelobe_db in [(2, 20.0), (3, 25.0), (4, 30.0)]:
            d = dolph_chebyshev_weights(order, sidelobe_db)
            x0 = np.cosh(np.arccosh(10.0 ** (sidelobe_db / 20.0)) / (2 * order))
            theta = np.linspace(2 * np.arccos(1 / x0), np.pi, 40001)
            mag = np.abs(beam_pattern_modal(d, theta))
            interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
            ripples = np.append(mag[1:-1][interior], mag[-1])
            assert len(ripples) == order
            assert np.ptp(ripples) / np.mean(ripples) < 1e-6

    def test_mainlobe_narrows_with_lower_sidelobe_attenuation(self):
        theta = np.linspace(0, np.pi, 100001)
        widths = []
        for sidelobe_db in (40.0, 25.0, 10.0, 3.0):
            d = dolph_chebyshev_weights(3, sidelobe_db)
            mag = np.abs(beam_pattern_modal(d, theta))
            first_min = np.argmax((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])) + 1
            widths.append(theta[first_min])
        assert all(np.diff(widths) < 0)

    def test_normalized_boresight(self):
        d = dolph_chebyshev_weights(3, 25.0)
        assert beam_pattern_modal(d, 0.0).real == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dolph_chebyshev_weights(0, 25.0)
        with pytest.raises(ValueError):
            dolph_chebyshev_weights(3, -5.0)


class TestScaleInvariance:
    def test_q_and_wng_invariant_under_scaling(self):
        rng = np.random.default_rng(99)
        k = 1.1 / R0
        for _ in range(10):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            assert directivity_factor(c * d) == pytest.approx(directivity_factor(d), rel=1e-10)
            assert wng(c * d, k, R0) == pytest.approx(wng(d, k, R0), rel=1e-10)
