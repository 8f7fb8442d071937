"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import time

import numpy as np
import pytest

from oracles import (
    beam_pattern_field,
    cap_ymat,
    directivity_factor_integral,
    grid_dirs,
    icosahedral_32,
    rigid_sphere_mic_radial,
    sph_bessel_j,
    velocity_coeffs,
    wng_coefficients,
)

from sphbeam import sphmath
from sphbeam.design import (
    dolph_chebyshev_weights,
    max_directivity_weights,
    max_wng_weights,
)
from sphbeam.metrics import (
    directivity_factor,
    directivity_index,
    wng,
)
from sphbeam.radiation import (
    C,
    beam_pattern_modal,
    dodecahedron,
    great_circle_angle,
    radial_far,
)
from sphbeam.synthesis import build_transform, steer, unit_weights
from sphbeam.virtualmeas import (
    discrete_sft,
    gaussian_grid,
    measured_pattern,
    near_field_steer,
    pattern_error,
    transfer_matrix,
    virtual_measure,
)

R0 = 0.15
RADIUS = 0.57
GEOM = dodecahedron(r0=R0, alpha=0.3)
# the second reference array: 32 caps carry orders N <= 4, since (N + 1)^2 <= 32
GEOM32 = icosahedral_32(r0=R0, alpha=0.2)


def _check(num, description, condition):
    print(f"{'PASS' if condition else 'FAIL'} criterion {num}: {description}")
    assert condition, f"criterion {num}: {description}"


def test_criterion_1_maximum_directivity():
    start = time.perf_counter()
    ok = all(
        abs(directivity_factor(max_directivity_weights(order)) - (order + 1) ** 2) < 1e-9
        for order in range(6)
    )
    di = directivity_index(directivity_factor(max_directivity_weights(2)))
    ok &= abs(di - 9.5424) < 1e-4
    elapsed = time.perf_counter() - start
    _check(1, f"Q = (N+1)^2 for N=0..5 and DI(N=2) = 9.5424 dB ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_2_wronskian():
    start = time.perf_counter()
    worst = 0.0
    for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        for n in range(16):
            jn, djn = sph_bessel_j(n, x)
            hn, dhn = sphmath.sph_hankel1(n, x)
            worst = max(worst, abs(x**2 * (jn * dhn - djn * hn) - 1j))
    elapsed = time.perf_counter() - start
    _check(2, f"Wronskian residual {worst:.1e} < 1e-10 for n<=15 ({elapsed:.2f}s)",
           worst < 1e-10 and elapsed < 1.0)


def test_criterion_3_modal_integral_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    k = 1.1 / R0
    worst_q = worst_w = 0.0
    for _ in range(100):
        order = rng.integers(0, 5)
        d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        look = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        grid = gaussian_grid(2 * order + 2, 1.0)
        vals = beam_pattern_modal(d, great_circle_angle(look, grid_dirs(grid).T))
        q_int = directivity_factor_integral(beam_pattern_modal(d, 0.0), vals, grid.weights)
        worst_q = max(worst_q, abs(q_int - directivity_factor(d)) / directivity_factor(d))
        sw = steer(d, look, k, R0)
        w_coef = wng_coefficients(sw, look, k, R0)
        worst_w = max(worst_w, abs(w_coef - wng(d, k, R0)) / wng(d, k, R0))
    elapsed = time.perf_counter() - start
    _check(3, f"Q and WNG modal/integral routes agree (worst {worst_q:.1e}, {worst_w:.1e}) "
              f"({elapsed:.2f}s)",
           worst_q < 1e-6 and worst_w < 1e-6 and elapsed < 10.0)


def test_criterion_4_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(4321)
    order = 3
    ok = True
    q_opt = directivity_factor(max_directivity_weights(order))
    for kr0 in (0.5, 1.1, 2.75):
        k = kr0 / R0
        wng_opt = wng(max_wng_weights(order, k, R0), k, R0)
        for _ in range(1000):
            d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            ok &= directivity_factor(d) <= q_opt + 1e-9
            ok &= wng(d, k, R0) <= wng_opt * (1 + 1e-9)
    elapsed = time.perf_counter() - start
    _check(4, f"max-DI and max-WNG beat 1000 random designs at kr0 in {{0.5, 1.1, 2.75}} "
              f"({elapsed:.2f}s)", ok and elapsed < 30.0)


def test_criterion_5_kr_reproduction():
    quoted = {(400.0, R0): 1.1, (400.0, RADIUS): 4.2, (1000.0, R0): 2.75, (1000.0, RADIUS): 10.45}
    worst = max(
        abs(2 * np.pi * f / C * r - ref) / ref for (f, r), ref in quoted.items()
    )
    _check(5, f"kr values at 400/1000 Hz within 1% of quoted (worst {worst:.2%})", worst < 0.01)


def test_criterion_6_end_to_end_replication():
    start = time.perf_counter()
    look = (np.pi / 2, 0.0)
    grid = gaussian_grid(10, RADIUS)
    assert grid.num_points == 242
    transform = build_transform(GEOM, 2)
    errs = {}
    for f, factory in ((400.0, lambda k: max_wng_weights(2, k, R0)),
                       (1000.0, lambda k: max_directivity_weights(2))):
        k = 2 * np.pi * f / C
        d = factory(k)
        sw = near_field_steer(d, look, k, RADIUS, R0)
        w = unit_weights(sw, transform)
        samples = virtual_measure(w, transfer_matrix(GEOM, grid, k))
        measured = measured_pattern(discrete_sft(samples, grid, 2), grid.theta, grid.phi)
        designed = beam_pattern_modal(d, great_circle_angle(look, grid_dirs(grid).T))
        errs[f] = pattern_error(measured, designed, grid.weights)
    elapsed = time.perf_counter() - start
    _check(6, f"virtual-measured vs designed pattern errors {errs[400.0]:.1e} (400 Hz), "
              f"{errs[1000.0]:.1e} (1000 Hz) < 1e-3 ({elapsed:.2f}s)",
           max(errs.values()) < 1e-3 and elapsed < 60.0)


def test_criterion_7_steering_independence():
    rng = np.random.default_rng(777)
    k = 1.1 / R0
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    theta_gc = np.linspace(0, np.pi, 25)
    ref = beam_pattern_modal(d, theta_gc)
    worst = 0.0
    for _ in range(20):
        look = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        sw = steer(d, look, k, R0)
        dirs = _dirs_at_angles(look, theta_gc, rng)
        vals = beam_pattern_field(sw, k, R0, dirs)
        worst = max(worst, np.max(np.abs(vals - ref)))
    _check(7, f"20 random look directions give identical B(Theta) profiles "
              f"(max deviation {worst:.1e})", worst < 1e-8)


def _dirs_at_angles(look, theta_gc, rng):
    t0, p0 = look
    axis = np.array([np.sin(t0) * np.cos(p0), np.sin(t0) * np.sin(p0), np.cos(t0)])
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    azi = rng.uniform(0, 2 * np.pi)
    pts = np.cos(theta_gc)[:, None] * axis + np.sin(theta_gc)[:, None] * (
        np.cos(azi) * e1 + np.sin(azi) * e2
    )
    return np.column_stack(
        [np.arccos(np.clip(pts[:, 2], -1, 1)), np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)]
    )


def test_criterion_8_dolph_chebyshev():
    worst = 0.0
    for order in (2, 3, 4):
        for sidelobe_db in (20.0, 25.0, 30.0):
            d = dolph_chebyshev_weights(order, sidelobe_db)
            ratio = 10.0 ** (-sidelobe_db / 20.0)
            x0 = np.cosh(np.arccosh(1.0 / ratio) / (2 * order))
            theta = np.linspace(2 * np.arccos(1 / x0), np.pi, 40001)
            mag = np.abs(beam_pattern_modal(d, theta))
            b0 = abs(beam_pattern_modal(d, 0.0))
            interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
            ripples = np.append(mag[1:-1][interior], mag[-1])
            worst = max(worst, np.max(np.abs(ripples - ratio * b0)) / (ratio * b0))
    _check(8, f"equi-ripple sidelobes at requested level, worst deviation {worst:.1e}",
           worst < 1e-6)


def test_criterion_9_synthesis_round_trip():
    transform = build_transform(GEOM, 2)
    rng = np.random.default_rng(99)
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sw = steer(d, (0.8, 2.5), 1.1 / R0, R0)
    w = unit_weights(sw, transform)
    back = velocity_coeffs(GEOM, w, 2)
    resid = np.max(np.abs(back - sw))
    _, _, vh = np.linalg.svd(cap_ymat(GEOM, 2))
    null = vh[9:].conj().T
    min_norm = all(
        np.sum(np.abs(w + null @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))) ** 2)
        >= np.sum(np.abs(w) ** 2) - 1e-12
        for _ in range(50)
    )
    _check(9, f"G Y w reconstructs w_nm (residual {resid:.1e}) and w is minimum-norm",
           resid < 1e-9 and min_norm)


@pytest.mark.parametrize("order", [3, 4])
def test_criterion_6_end_to_end_on_32_caps(order):
    """Criterion 6 on the 32-cap layout, sampled on an order-12 Gaussian grid."""
    start = time.perf_counter()
    look = (np.pi / 2, 0.0)
    grid = gaussian_grid(12, RADIUS)
    transform = build_transform(GEOM32, order)
    errs = []
    for f, factory in ((400.0, lambda k: max_wng_weights(order, k, R0)),
                       (1000.0, lambda k: max_directivity_weights(order)),
                       (1000.0, lambda k: dolph_chebyshev_weights(order, 25.0))):
        k = 2 * np.pi * f / C
        d = factory(k)
        w = unit_weights(near_field_steer(d, look, k, RADIUS, R0), transform)
        samples = virtual_measure(w, transfer_matrix(GEOM32, grid, k))
        measured = measured_pattern(discrete_sft(samples, grid, order), grid.theta, grid.phi)
        designed = beam_pattern_modal(d, great_circle_angle(look, grid_dirs(grid).T))
        errs.append(pattern_error(measured, designed, grid.weights))
    elapsed = time.perf_counter() - start
    _check(6, f"32 caps, N={order}: max-WNG (400 Hz), max-DI and Dolph-Chebyshev (1 kHz) "
              f"pattern errors up to {max(errs):.1e} < 1e-3 ({elapsed:.2f}s)",
           max(errs) < 1e-3 and elapsed < 10.0)


@pytest.mark.parametrize("order", [3, 4])
def test_criterion_7_steering_independence_on_32_caps(order):
    """Criterion 7 through the 32-cap synthesis: the pattern that the caps'
    velocities radiate at order N has one B(Theta) profile for every look."""
    rng = np.random.default_rng(770 + order)
    k = 1.1 / R0
    transform = build_transform(GEOM32, order)
    d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    theta_gc = np.linspace(0, np.pi, 25)
    ref = beam_pattern_modal(d, theta_gc)
    worst = 0.0
    for _ in range(20):
        look = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        w = unit_weights(steer(d, look, k, R0), transform)
        vals = beam_pattern_field(velocity_coeffs(GEOM32, w, order), k, R0,
                                  _dirs_at_angles(look, theta_gc, rng))
        worst = max(worst, np.max(np.abs(vals - ref)))
    _check(7, f"32 caps, N={order}: 20 random look directions give identical B(Theta) "
              f"profiles (max deviation {worst:.1e})", worst < 1e-8)


@pytest.mark.parametrize("order", [3, 4])
def test_criterion_9_synthesis_round_trip_on_32_caps(order):
    size = (order + 1) ** 2
    transform = build_transform(GEOM32, order)
    rng = np.random.default_rng(990 + order)
    d = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    sw = steer(d, (0.8, 2.5), 1.1 / R0, R0)
    w = unit_weights(sw, transform)
    resid = np.max(np.abs(velocity_coeffs(GEOM32, w, order) - sw))
    _, _, vh = np.linalg.svd(cap_ymat(GEOM32, order))
    null = vh[size:].conj().T  # 32 - (N + 1)^2 columns
    min_norm = all(
        np.sum(np.abs(w + null @ (rng.standard_normal(32 - size)
                                  + 1j * rng.standard_normal(32 - size))) ** 2)
        >= np.sum(np.abs(w) ** 2) - 1e-12
        for _ in range(50)
    )
    _check(9, f"32 caps, N={order}: G Y w reconstructs w_nm (residual {resid:.1e}) and w is "
              f"minimum-norm", resid < 1e-9 and min_norm)


def _mic_wng(d, b_mic):
    """The white-noise gain of modal weights d for a rigid-sphere microphone array."""
    a = 2 * np.arange(len(d)) + 1
    return abs(np.sum(d * a)) ** 2 / np.sum(np.abs(d) ** 2 / np.abs(b_mic[: len(d)]) ** 2 * a)


def test_criterion_10_loudspeaker_array_like_rigid_sphere_microphones():
    """The paper's central claim: b_n(k r0) of the cap array is the rigid-sphere
    microphone's b_n^mic times one factor per k, with the parity (-1)^n (a
    loudspeaker radiates towards its look, a microphone receives from its own),
    so the microphone-array designs carry over unchanged."""
    start = time.perf_counter()
    n = np.arange(8)
    spread = phase_err = wng_weights_err = wng_ratio_err = 0.0
    for kr0 in (0.1, 0.55, 1.1, 2.75, 8.0):
        k = kr0 / R0
        b_mic = rigid_sphere_mic_radial(n, kr0)
        ratio = radial_far(n, k, R0) / b_mic
        mags = np.abs(ratio)
        spread = max(spread, np.ptp(mags) / mags.mean())
        phase_err = max(phase_err, np.max(np.abs(np.angle(ratio) - (-1.0) ** (n + 1) * np.pi / 2)))
        for order in range(8):
            b2 = np.abs(b_mic[: order + 1]) ** 2
            d_mic = 4 * np.pi * b2 / np.sum(b2 * (2 * n[: order + 1] + 1))
            d_wng = max_wng_weights(order, k, R0)
            wng_weights_err = max(wng_weights_err, np.max(np.abs(d_wng - d_mic) / d_mic))
            for d in (d_wng, max_directivity_weights(order),
                      *([dolph_chebyshev_weights(order, 25.0)] if order else [])):
                wng_ratio_err = max(wng_ratio_err,
                                    abs(wng(d, k, R0) / _mic_wng(d, b_mic) / mags[0] ** 2 - 1))
    elapsed = time.perf_counter() - start
    _check(10, f"b_n / b_n^mic has one magnitude (spread {spread:.1e}) and phase -+pi/2 "
               f"(error {phase_err:.1e}) for n<=7; max-WNG weights equal the microphone's "
               f"({wng_weights_err:.1e}) and WNG differs by |b_0 / b_0^mic|^2 "
               f"({wng_ratio_err:.1e}) ({elapsed:.2f}s)",
           max(spread, phase_err, wng_weights_err, wng_ratio_err) <= 1e-13 and elapsed < 1.0)
