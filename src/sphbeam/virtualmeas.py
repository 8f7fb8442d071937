"""Virtual (simulated) measurement of a spherical loudspeaker array.

Builds a Gaussian microphone grid around the source, computes the
per-unit transfer matrix from the radiation model, performs the discrete
spherical Fourier transform of the sampled pressure, and compares the
measured beam pattern against the designed one; :func:`simulate` runs
that chain for one design at one frequency.  Near-field compensated
steering (defined in :mod:`synthesis`, re-exported here) accounts for the
finite analysis radius.

The transfer matrix is evaluated to an order well above the analysis
order, so the uncontrollable high-order cap harmonics are present in the
virtual measurement just as they are in a physical one.  Each cap is an
axis-symmetric radiator, so by the spherical-harmonic addition theorem its
pressure is a Legendre series in the angle between microphone and cap;
no spherical-harmonic matrix at the simulation order is built.  The
relative size of the largest of the last three series terms is reported
as ``sim_tail``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sphmath
from .radiation import (
    Medium,
    beam_pattern_modal,
    cap_gain,
    great_circle_angle,
    radial_near,
)
from .synthesis import near_field_steer

__all__ = [
    "SamplingGrid",
    "TransferMatrix",
    "gaussian_grid",
    "transfer_matrix",
    "perturb_transfer",
    "discrete_sft",
    "near_field_steer",
    "virtual_measure",
    "measured_pattern",
    "pattern_error",
    "Simulation",
    "simulate",
]

SIM_ORDER_MARGIN = 15  # default N_sim = N_a + margin; TransferMatrix.sim_tail checks it
BALLOON_STEP_DEG = 2.0


@dataclass(frozen=True)
class SamplingGrid:
    """Directions and quadrature weights on a sphere of radius r.

    Gaussian scheme: exact integration of spherical-harmonic products up
    to the grid order; sum of weights is 4 pi.
    """

    order: int
    radius: float
    directions: np.ndarray  # (M, 2) theta, phi
    weights: np.ndarray  # (M,)

    @property
    def num_points(self):
        return self.directions.shape[0]


@dataclass(frozen=True)
class TransferMatrix:
    """Pressure at each grid microphone per unit velocity of each cap.

    ``sim_tail`` is max(|c_{N-2}|, |c_{N-1}|, |c_N|) / max_n |c_n| for
    the per-order series terms c_n of :func:`transfer_matrix` at
    N = ``sim_order``.  The last three terms are taken because the cap
    gain g_n passes near zero at some orders (near n = 23 and n = 44 for
    alpha = 0.3), where the last term alone would understate the tail.
    """

    values: np.ndarray  # (M, L) complex
    sim_order: int
    sim_tail: float


def gaussian_grid(order, radius):
    """Gaussian sampling grid of a given analysis order.

    (order+1) Gauss-Legendre elevations times 2(order+1) uniform
    azimuths, with product quadrature weights; 2(order+1)^2 nodes.
    """
    if order < 0 or not 0 < radius < np.inf:
        raise ValueError("order must be >= 0 and radius finite and positive")
    x, wx = np.polynomial.legendre.leggauss(order + 1)
    theta = np.arccos(x)
    nphi = 2 * (order + 1)
    phi = 2 * np.pi * np.arange(nphi) / nphi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.column_stack([tt.ravel(), pp.ravel()])
    weights = np.repeat(wx, nphi) * (np.pi / (order + 1))
    return SamplingGrid(order=order, radius=radius, directions=dirs, weights=weights)


def transfer_matrix(geom, grid, k, medium=Medium(), sim_order=None):
    """Transfer matrix H[j, l]: pressure at mic j per unit velocity of cap l.

    Column l equals the pressure field of the single-cap velocity
    pattern (v_l = 1, others 0) summed to ``sim_order`` (default
    grid.order + SIM_ORDER_MARGIN), so content above the analysis order
    is included.  By the addition theorem this is

        H[j, l] = sum_n c_n P_n(cos gamma_jl),
        c_n = radial_near(n) g_n (2n+1) / (4 pi),

    with gamma_jl the angle between microphone j and cap l.
    """
    if grid.radius <= geom.r0:
        raise ValueError(f"radius: {grid.radius} m must exceed the source radius {geom.r0} m")
    if sim_order is None:
        sim_order = grid.order + SIM_ORDER_MARGIN
    orders = np.arange(sim_order + 1)
    rg = radial_near(orders, k, grid.radius, geom.r0, medium) * cap_gain(orders, geom.alpha)
    # mic directions as (M, 1) columns against the L caps: gamma is (M, L)
    h = beam_pattern_modal(rg, great_circle_angle(grid.directions.T[..., None], geom.cap_dirs))
    c = np.abs(rg) * (2 * orders + 1)
    return TransferMatrix(values=h, sim_order=sim_order, sim_tail=float(c[-3:].max() / c.max()))


def perturb_transfer(transfer, gain_db=0.0, phase_deg=0.0, noise=0.0, seed=0):
    """Apply per-unit gain/phase errors and additive microphone noise.

    Emulates transducer mismatch and measurement noise; gain errors are
    normally distributed in dB, phase errors in degrees, and ``noise``
    is the standard deviation of complex additive noise per entry.
    Raises ArithmeticError, naming the field, when a perturbed entry is
    not finite.
    """
    rng = np.random.default_rng(seed)
    h = transfer.values.copy()
    num_caps = h.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gains = 10.0 ** (rng.normal(0.0, gain_db, num_caps) / 20.0)
        phases = np.deg2rad(rng.normal(0.0, phase_deg, num_caps))
        h = h * (gains * np.exp(1j * phases))
        if not np.all(np.isfinite(h)):
            field = "gain_db" if np.all(np.isfinite(phases)) else "phase_deg"
            raise ArithmeticError(f"perturb.{field}: perturbed transfer matrix is not finite")
        if noise > 0.0:
            h = h + noise * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
            if not np.all(np.isfinite(h)):
                raise ArithmeticError("perturb.noise: perturbed transfer matrix is not finite")
    return replace(transfer, values=h)


def discrete_sft(samples, grid, order):
    """Discrete spherical Fourier transform on a Gaussian grid.

    f_nm = sum_j a_j f(Omega_j) [Y_n^m(Omega_j)]*, packed as q = n^2 + n + m;
    exact for functions band-limited to the grid order.
    """
    if order > grid.order:
        raise ValueError(f"analysis_order: {grid.order} is below the design order {order}")
    samples = np.asarray(samples)
    if samples.shape != (grid.num_points,):
        raise ValueError("one sample per grid point required")
    ymat = sphmath.sh_matrix(order, grid.directions[:, 0], grid.directions[:, 1])
    return ymat.conj().T @ (grid.weights * samples)


def virtual_measure(w, transfer):
    """Sampled pressure p_j = sum_l H[j, l] w_l of a driven array."""
    wv = np.asarray(w, dtype=complex)
    if wv.shape != (transfer.values.shape[1],):
        raise ValueError(f"w: expected {transfer.values.shape[1]} unit weights, one per cap, "
                         f"got shape {wv.shape}")
    return transfer.values @ wv


def measured_pattern(pnm, dirs):
    """Order-limited beam pattern of measured coefficients at ``dirs``.

    Synthesizes the packed spherical Fourier coefficients ``pnm`` (from
    :func:`discrete_sft`) at directions of shape (M, 2): the measured
    counterpart of the designed pattern, free of the uncontrolled
    harmonics above order sqrt(pnm.size) - 1 (up to quadrature aliasing).
    The overall complex scale of the result is that of the pressure samples.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    return sphmath.sh_matrix(math.isqrt(pnm.size) - 1, dirs[:, 0], dirs[:, 1]) @ pnm


def pattern_error(measured, reference, weights):
    """Scale-aligned relative L2 error between two sampled patterns.

    ||m - rho r|| / ||rho r|| under the quadrature inner product, with
    rho the least-squares complex scale aligning m to r, so the error
    does not change when m is scaled.  Raises ArithmeticError when the
    error is not finite: when rho = 0 (m has no component along r), or
    when a huge measured pattern overflows its squared norm.
    """
    m = np.asarray(measured)
    r = np.asarray(reference)
    a = np.asarray(weights, dtype=float)
    ref_sq = np.sum(a * np.abs(r) ** 2)
    if ref_sq == 0.0:
        raise ValueError("reference pattern has zero norm")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho = np.sum(a * np.conj(r) * m) / ref_sq
        err = float(np.sqrt(np.sum(a * np.abs(m - rho * r) ** 2) / ref_sq) / np.abs(rho))
    if not np.isfinite(err):
        raise ArithmeticError("pattern_error: not finite; the measured pattern overflows "
                              "or has no component along the design")
    return err


@dataclass(frozen=True)
class Simulation:
    """The result of :func:`simulate` at one frequency.

    ``patterns`` maps "balloon" (a BALLOON_STEP_DEG theta x phi grid) and
    "cross_section" (the plane theta = 90 deg in 1-degree steps) to
    (dirs (P, 2) of theta, phi; designed (P,); measured (P,)).  The look
    values are each pattern's reference for dB.
    """

    sim_order: int
    sim_tail: float
    pattern_error: float
    designed_look: complex
    measured_look: complex
    patterns: dict


def _balloon_dirs():
    theta = np.deg2rad(np.arange(0.0, 180.0 + BALLOON_STEP_DEG, BALLOON_STEP_DEG))
    phi = np.deg2rad(np.arange(0.0, 360.0, BALLOON_STEP_DEG))
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack([tt.ravel(), pp.ravel()])


def _cross_section_dirs():
    phi = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    return np.column_stack([np.full_like(phi, np.pi / 2), phi])


def simulate(geom, d, w, k, look, analysis_order, radius, perturbation=None):
    """Virtually measure the unit weights w of modal design d at wavenumber k.

    Samples the pressure on a Gaussian grid of ``analysis_order`` at
    ``radius``, perturbed by :func:`perturb_transfer` with the keyword
    arguments in ``perturbation`` when one of its gain_db, phase_deg or
    noise is nonzero.  Transforms the samples to the design order and
    evaluates the designed and measured patterns on the grid (for
    ``pattern_error``), at ``look`` and at the balloon and cross-section
    directions.  Raises ArithmeticError when a pattern is not finite or a
    look value is zero, so a caller that writes only after this returns
    writes all its files or none.
    """
    grid = gaussian_grid(analysis_order, radius)
    transfer = transfer_matrix(geom, grid, k)
    if perturbation and any(perturbation[key] for key in ("gain_db", "phase_deg", "noise")):
        transfer = perturb_transfer(transfer, **perturbation)
    measured_nm = discrete_sft(virtual_measure(w, transfer), grid, d.size - 1)
    err = pattern_error(measured_pattern(measured_nm, grid.directions),
                        beam_pattern_modal(d, great_circle_angle(look, grid.directions)),
                        grid.weights)
    sim = Simulation(
        sim_order=transfer.sim_order, sim_tail=transfer.sim_tail, pattern_error=err,
        designed_look=beam_pattern_modal(d, 0.0),
        measured_look=measured_pattern(measured_nm, [look])[0],
        patterns={name: (dirs, beam_pattern_modal(d, great_circle_angle(look, dirs)),
                         measured_pattern(measured_nm, dirs))
                  for name, dirs in (("balloon", _balloon_dirs()),
                                     ("cross_section", _cross_section_dirs()))})
    for name, (_, designed, measured) in sim.patterns.items():
        for kind, values, look_value in (("designed", designed, sim.designed_look),
                                         ("measured", measured, sim.measured_look)):
            if not (np.all(np.isfinite(values)) and np.isfinite(look_value)):
                raise ArithmeticError(f"{name}_{kind}: non-finite pattern values")
            if look_value == 0:
                raise ArithmeticError(f"{kind}_look: zero response in the look direction")
    return sim
