import warnings

import numpy as np
import pytest
from oracles import (
    discrete_sft_scattered,
    grid_dirs,
    measured_pattern_scattered,
    pressure_field,
    sh_index,
    velocity_coeffs,
)

from sphbeam import sphmath
from sphbeam.design import max_directivity_weights, max_wng_weights
from sphbeam.radiation import (
    C,
    beam_pattern_modal,
    cap_gain,
    dodecahedron,
    great_circle_angle,
    radial_near,
)
from sphbeam.synthesis import build_transform, steer, unit_weights
from sphbeam.virtualmeas import (
    SamplingGrid,
    discrete_sft,
    gaussian_grid,
    measured_pattern,
    near_field_steer,
    pattern_error,
    perturb_transfer,
    simulate,
    transfer_matrix,
    virtual_measure,
)

GEOM = dodecahedron(r0=0.15, alpha=0.3)
RADIUS = 0.57
LOOK = (np.pi / 2, 0.0)


def freq_to_k(f):
    return 2 * np.pi * f / C


class TestGaussianGrid:
    def test_242_nodes_at_order_10(self):
        grid = gaussian_grid(10, RADIUS)
        assert grid.num_points == 242

    def test_node_count_low_order(self):
        assert gaussian_grid(1, 1.0).num_points == 8

    def test_weights_sum_to_sphere_area(self):
        for order in (0, 3, 10):
            grid = gaussian_grid(order, 1.0)
            assert np.sum(grid.weights) == pytest.approx(4 * np.pi, abs=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gaussian_grid(-1, 1.0)
        with pytest.raises(ValueError):
            gaussian_grid(4, 0.0)


class TestDiscreteSft:
    grid = gaussian_grid(6, RADIUS)

    def test_single_harmonic(self):
        dirs = grid_dirs(self.grid)
        samples = sphmath.sh_matrix(2, dirs[:, 0], dirs[:, 1])[:, sh_index(2, 1)]
        coeffs = discrete_sft(samples, self.grid, 2)
        expected = np.zeros(9)
        expected[sh_index(2, 1)] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-10

    def test_constant_function(self):
        coeffs = discrete_sft(np.ones(self.grid.num_points), self.grid, 1)
        assert coeffs[0] == pytest.approx(np.sqrt(4 * np.pi), abs=1e-12)
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(8)
        f1 = rng.standard_normal(self.grid.num_points) + 0j
        f2 = rng.standard_normal(self.grid.num_points) + 0j
        lhs = discrete_sft(3 * f1 - 2j * f2, self.grid, 3)
        rhs = 3 * discrete_sft(f1, self.grid, 3) - 2j * discrete_sft(f2, self.grid, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_analysis_synthesis_identity(self):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        dirs = grid_dirs(self.grid)
        ymat = sphmath.sh_matrix(3, dirs[:, 0], dirs[:, 1])
        back = discrete_sft(ymat @ coeffs, self.grid, 3)
        assert np.max(np.abs(back - coeffs)) < 1e-10

    def test_order_above_grid_rejected(self):
        with pytest.raises(ValueError):
            discrete_sft(np.ones(self.grid.num_points), self.grid, 7)


class TestTransferMatrix:
    def test_order_10_grid_shape(self):
        grid = gaussian_grid(10, RADIUS)
        h = transfer_matrix(GEOM, grid, freq_to_k(400.0))
        assert h.values.shape == (242, 12)

    def test_column_equals_direct_pressure_field(self):
        grid = gaussian_grid(4, RADIUS)
        k = freq_to_k(400.0)
        h = transfer_matrix(GEOM, grid, k)
        v = np.zeros(12, dtype=complex)
        v[5] = 1.0
        u = velocity_coeffs(GEOM, v, order=h.sim_order)
        direct = pressure_field(u, k, RADIUS, grid_dirs(grid), GEOM)
        assert np.max(np.abs(h.values[:, 5] - direct)) < 1e-12

    def test_columns_match_sh_route_at_simulate_deep_size(self, monkeypatch):
        # the oracle evaluates the same order-45 SH matrix for every column,
        # so memoize it; transfer_matrix itself builds no SH matrix
        cache = {}
        sh_matrix = sphmath.sh_matrix

        def cached(order, theta, phi):
            key = (order, np.asarray(theta).tobytes(), np.asarray(phi).tobytes())
            if key not in cache:
                cache[key] = sh_matrix(order, theta, phi)
            return cache[key]

        monkeypatch.setattr(sphmath, "sh_matrix", cached)
        grid = gaussian_grid(30, RADIUS)
        for f in (1000.0, 2500.0):
            k = freq_to_k(f)
            h = transfer_matrix(GEOM, grid, k)
            assert h.sim_order == 45
            for col in range(GEOM.num_caps):
                u = velocity_coeffs(GEOM, np.eye(GEOM.num_caps)[col], order=45)
                direct = pressure_field(u, k, RADIUS, grid_dirs(grid), GEOM)
                assert np.max(np.abs(h.values[:, col] - direct)) < 1e-12 * np.max(
                    np.abs(h.values[:, col]))

    def test_sim_tail_rises_with_frequency(self):
        grid = gaussian_grid(10, RADIUS)
        tails = [transfer_matrix(GEOM, grid, freq_to_k(f)).sim_tail
                 for f in (400.0, 1000.0, 2500.0, 5000.0)]
        assert all(np.diff(tails) > 0)
        assert 0 < tails[0] and tails[-1] < 1

    def test_vanishing_cap_gain_raises_naming_alpha(self):
        with pytest.raises(ArithmeticError, match=r"^alpha: "):
            transfer_matrix(dodecahedron(r0=0.15, alpha=1e-300), gaussian_grid(3, RADIUS),
                            freq_to_k(400.0))

    def test_sim_tail_covers_a_vanishing_last_term(self):
        # g_44 nearly vanishes for alpha = 0.3, so at sim order 44 (analysis
        # order 29) the last series term alone understates the tail
        grid = gaussian_grid(29, RADIUS)
        k = freq_to_k(1000.0)
        n = np.arange(45)
        gains = np.array([cap_gain(j, GEOM.alpha) for j in n])
        c = np.abs(radial_near(n, k, RADIUS, GEOM.r0) * gains) * (2 * n + 1)
        h = transfer_matrix(GEOM, grid, k)
        assert h.sim_order == 44
        assert h.sim_tail >= (1 - 1e-12) * c[43] / c.max()

    def test_superposition(self):
        grid = gaussian_grid(3, RADIUS)
        k = freq_to_k(400.0)
        h = transfer_matrix(GEOM, grid, k)
        rng = np.random.default_rng(10)
        w = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        u = velocity_coeffs(GEOM, w, order=h.sim_order)
        direct = pressure_field(u, k, RADIUS, grid_dirs(grid), GEOM)
        assert np.max(np.abs(h.values @ w - direct)) < 1e-12

    def test_grid_inside_source_rejected(self):
        grid = gaussian_grid(2, 0.1)
        with pytest.raises(ValueError):
            transfer_matrix(GEOM, grid, freq_to_k(400.0))

    def test_perturbation_is_reproducible(self):
        grid = gaussian_grid(2, RADIUS)
        h = transfer_matrix(GEOM, grid, freq_to_k(400.0))
        p1 = perturb_transfer(h, gain_db=0.5, phase_deg=2.0, noise=1e-4, seed=7)
        p2 = perturb_transfer(h, gain_db=0.5, phase_deg=2.0, noise=1e-4, seed=7)
        assert np.array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values, h.values)


class TestNearFieldSteer:
    def test_far_radius_limit(self):
        d = np.array([1.0, 0.6, 0.3])
        k = freq_to_k(400.0)
        far = steer(d, LOOK, k, GEOM.r0)
        r = 1e4 * 3 / k
        near = near_field_steer(d, LOOK, k, r, GEOM.r0)
        assert np.max(np.abs(near - far) / np.abs(far).max()) < 0.01

    def test_compensation_is_nontrivial_at_measurement_radius(self):
        d = np.array([1.0, 0.6, 0.3])
        k = freq_to_k(400.0)
        far = steer(d, LOOK, k, GEOM.r0)
        near = near_field_steer(d, LOOK, k, RADIUS, GEOM.r0)
        rel = np.abs(near - far) / np.abs(far)
        assert np.max(rel[np.abs(far) > 0]) > 0.01

    def test_exact_compensation_on_analysis_sphere(self):
        d = np.array([1.0, 0.6, 0.3])
        k = freq_to_k(400.0)
        sw = near_field_steer(d, LOOK, k, RADIUS, GEOM.r0)
        grid = gaussian_grid(5, RADIUS)
        p = pressure_field(sw, k, RADIUS, grid_dirs(grid), GEOM)
        ref = beam_pattern_modal(d, great_circle_angle(LOOK, grid_dirs(grid).T))
        scaled = RADIUS * np.exp(-1j * k * RADIUS) * p
        assert np.max(np.abs(scaled - ref)) < 1e-8


class TestVirtualMeasure:
    grid = gaussian_grid(10, RADIUS)

    def _pipeline(self, f, d_factory, order=2):
        k = freq_to_k(f)
        d = d_factory(order, k)
        sw = near_field_steer(d, LOOK, k, RADIUS, GEOM.r0)
        w = unit_weights(sw, build_transform(GEOM, order))
        h = transfer_matrix(GEOM, self.grid, k)
        samples = virtual_measure(w, h)
        designed = beam_pattern_modal(d, great_circle_angle(LOOK, grid_dirs(self.grid).T))
        return samples, designed, order

    def test_zero_weights(self):
        h = transfer_matrix(GEOM, gaussian_grid(2, RADIUS), freq_to_k(400.0))
        assert np.all(virtual_measure(np.zeros(12), h) == 0)

    def test_model_consistency(self):
        # measurement equals the pressure field of the forward-composed velocity
        k = freq_to_k(400.0)
        rng = np.random.default_rng(12)
        w = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        grid = gaussian_grid(4, RADIUS)
        h = transfer_matrix(GEOM, grid, k)
        u = velocity_coeffs(GEOM, w, order=h.sim_order)
        assert np.max(
            np.abs(virtual_measure(w, h) - pressure_field(u, k, RADIUS, grid_dirs(grid), GEOM))
        ) < 1e-12

    def test_max_wng_400hz_matches_design(self):
        samples, designed, order = self._pipeline(
            400.0, lambda n, k: max_wng_weights(n, k, GEOM.r0)
        )
        measured = measured_pattern(discrete_sft(samples, self.grid, order), self.grid.theta,
                                    self.grid.phi)
        err = pattern_error(measured, designed, self.grid.weights)
        assert err < 1e-6

    def test_aliasing_error_grows_past_kr0_2_75(self):
        errs = []
        for f in (400.0, 1000.0, 1400.0, 1800.0, 2200.0):
            samples, designed, order = self._pipeline(f, lambda n, k: max_directivity_weights(n))
            measured = measured_pattern(discrete_sft(samples, self.grid, order), self.grid.theta,
                                        self.grid.phi)
            errs.append(pattern_error(measured, designed, self.grid.weights))
        assert errs[0] < 1e-3
        assert all(np.diff(errs[1:]) > 0)
        assert errs[-1] > errs[1]

    @pytest.mark.parametrize("near_field, perturbation", [
        (False, None),
        (True, {"gain_db": 1.0, "phase_deg": 5.0, "noise": 1e-3, "seed": 3}),
    ])
    def test_simulate_equals_the_stage_chain(self, near_field, perturbation):
        k = freq_to_k(400.0)
        d = max_wng_weights(2, k, GEOM.r0)
        sw = (near_field_steer(d, LOOK, k, RADIUS, GEOM.r0) if near_field
              else steer(d, LOOK, k, GEOM.r0))
        w = unit_weights(sw, build_transform(GEOM, 2))
        h = transfer_matrix(GEOM, self.grid, k)
        if perturbation:
            h = perturb_transfer(h, **perturbation)
        pnm = discrete_sft(virtual_measure(w, h), self.grid, 2)

        def designed_on(theta, phi):
            return beam_pattern_modal(d, great_circle_angle(LOOK, (theta[:, None], phi))).ravel()

        err = pattern_error(measured_pattern(pnm, self.grid.theta, self.grid.phi),
                            designed_on(self.grid.theta, self.grid.phi), self.grid.weights)

        sim = simulate(GEOM, d, w, k, LOOK, 10, RADIUS, perturbation)
        assert (sim.sim_order, sim.sim_tail, sim.pattern_error) == (h.sim_order, h.sim_tail, err)
        assert sim.designed_look == beam_pattern_modal(d, 0.0)
        assert sim.measured_look == measured_pattern(pnm, [LOOK[0]], [LOOK[1]])[0]
        assert {name: (theta.shape, phi.shape)
                for name, (theta, phi, _, _) in sim.patterns.items()} == {
            "balloon": ((91,), (180,)), "cross_section": ((1,), (360,))}
        for theta, phi, designed, measured in sim.patterns.values():
            assert np.array_equal(designed, designed_on(theta, phi))
            assert np.array_equal(measured, measured_pattern(pnm, theta, phi))

    def test_kr_sanity(self):
        assert freq_to_k(400.0) * 0.15 == pytest.approx(1.10, abs=0.01)
        assert freq_to_k(400.0) * 0.57 == pytest.approx(4.18, abs=0.05)
        assert freq_to_k(1000.0) * 0.15 == pytest.approx(2.75, abs=0.01)
        assert freq_to_k(1000.0) * 0.57 == pytest.approx(10.45, abs=0.05)


class TestProductPattern:
    """The transform pair on theta x phi product grids against the scattered
    oracles, which build one sh_matrix row per node."""

    @staticmethod
    def _random(order, seed):
        rng = np.random.default_rng(seed)
        q = (order + 1) ** 2
        return rng, rng.standard_normal(q) + 1j * rng.standard_normal(q)

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("num_theta", [1, 7])
    def test_equals_the_scattered_route(self, order, num_theta):
        """Y_n^m(theta, 0) e^{im phi} over theta x phi equals sh_matrix at
        every meshgrid direction, poles and the ends of phi included."""
        rng, pnm = self._random(order, 10 * order + num_theta)
        theta = (np.array([1.1]) if num_theta == 1
                 else np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, num_theta - 2)]))
        phi = np.concatenate([[0.0, 2 * np.pi - 1e-9], rng.uniform(0.0, 2 * np.pi, 9)])
        pattern = measured_pattern(pnm, theta, phi)
        want = measured_pattern_scattered(pnm, np.column_stack(
            [np.repeat(theta, phi.size), np.tile(phi, theta.size)]))
        assert pattern.shape == (theta.size * phi.size,)
        assert np.max(np.abs(pattern - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("look", [(1.1, 4.0), (0.0, 0.0), (np.pi, 2 * np.pi - 1e-9)])
    def test_one_by_one_grid_is_the_look(self, order, look):
        _, pnm = self._random(order, order)
        value = measured_pattern(pnm, [look[0]], [look[1]])
        want = measured_pattern_scattered(pnm, [look])
        assert value.shape == (1,)
        assert abs(value[0] - want[0]) <= 1e-13 * np.max(np.abs(pnm))

    @pytest.mark.parametrize("order", range(5))
    def test_discrete_sft_equals_the_scattered_route(self, order):
        """On a product grid with both poles and both ends of phi, on a
        1 x 1 grid and on a Gaussian grid, the analysis equals Y^H (a * s)
        over every node."""
        rng, _ = self._random(order, 20 + order)
        grids = [SamplingGrid(order=4, radius=1.0,
                              theta=np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 5)]),
                              phi=np.concatenate([[0.0, 2 * np.pi - 1e-9],
                                                  rng.uniform(0.0, 2 * np.pi, 9)]),
                              weights=rng.uniform(0.1, 1.0, 7 * 11)),
                 SamplingGrid(order=4, radius=1.0, theta=np.array([0.7]), phi=np.array([5.9]),
                              weights=np.array([4 * np.pi])),
                 gaussian_grid(order, 1.0)]
        for grid in grids:
            samples = (rng.standard_normal(grid.num_points)
                       + 1j * rng.standard_normal(grid.num_points))
            got = discrete_sft(samples, grid, order)
            want = discrete_sft_scattered(samples, grid, order)
            assert got.shape == ((order + 1) ** 2,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("analysis_order", [0, 1, 4, 10])
    def test_gaussian_grid_round_trip(self, analysis_order):
        """discrete_sft inverts measured_pattern on a Gaussian grid for every
        order N <= N_a."""
        grid = gaussian_grid(analysis_order, RADIUS)
        for order in range(analysis_order + 1):
            _, pnm = self._random(order, 100 * analysis_order + order)
            back = discrete_sft(measured_pattern(pnm, grid.theta, grid.phi), grid, order)
            assert np.max(np.abs(back - pnm)) <= 1e-12 * np.max(np.abs(pnm))


class TestPatternError:
    grid = gaussian_grid(4, 1.0)

    def test_identical_patterns(self):
        vals = np.cos(grid_dirs(self.grid)[:, 0]) + 1j
        assert pattern_error(vals, vals, self.grid.weights) == pytest.approx(0.0, abs=1e-14)

    def test_scale_absorbed(self):
        vals = np.cos(grid_dirs(self.grid)[:, 0]) + 0.5j
        assert pattern_error(2 * vals, vals, self.grid.weights) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_perturbation(self):
        # reference Y00, perturbation Y10: orthonormal under the quadrature
        dirs = grid_dirs(self.grid)
        ymat = sphmath.sh_matrix(1, dirs[:, 0], dirs[:, 1])
        ref = ymat[:, 0]
        eps = 1e-3
        measured = ref + eps * ymat[:, 2]
        expected = eps / np.sqrt(np.sum(self.grid.weights * np.abs(ref) ** 2))
        assert pattern_error(measured, ref, self.grid.weights) == pytest.approx(
            expected, rel=1e-10
        )

    def test_measured_scale_absorbed(self):
        rng = np.random.default_rng(4)
        ref = np.cos(grid_dirs(self.grid)[:, 0]) + 0.5j
        measured = ref + 0.1 * rng.standard_normal(self.grid.num_points)
        assert pattern_error(3 * measured, ref, self.grid.weights) == pytest.approx(
            pattern_error(measured, ref, self.grid.weights), rel=1e-12)

    # no component along the reference; a pattern whose squared norm underflows
    @pytest.mark.parametrize("measured", [[0.0, 0.0], [1.0, -1.0], [1e-170, 1e-170]])
    def test_no_component_along_reference_rejected(self, measured):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="pattern_error"):
                pattern_error(np.array(measured), np.ones(2), np.ones(2))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            pattern_error(np.ones(self.grid.num_points), np.zeros(self.grid.num_points),
                          self.grid.weights)
