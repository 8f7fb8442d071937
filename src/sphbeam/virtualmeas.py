"""Virtual (simulated) measurement of a spherical loudspeaker array.

Builds a Gaussian microphone grid around the source, computes the
per-unit transfer matrix from the radiation model, performs the discrete
spherical Fourier transform of the sampled pressure, and compares the
measured beam pattern against the designed one; :func:`simulate` runs
that chain for one design at one frequency.  Near-field compensated
steering (defined in :mod:`synthesis`, re-exported here) accounts for the
finite analysis radius.

Every direction set (the Gaussian grid, balloon, cross-section and the look
as a 1 x 1 grid) is a theta x phi product, with values in meshgrid "ij" order;
one table pair (:func:`_sh_tables`) serves both SFT analysis and synthesis.

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
import random
from dataclasses import dataclass, replace

import numpy as np

from . import sphmath
from .radiation import beam_pattern_modal, cap_gain, great_circle_angle, radial_near
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

SIM_ORDER_MARGIN = 15  # N_sim = N_a + margin; TransferMatrix.sim_tail checks it
BALLOON_STEP_DEG = 2.0


@dataclass(frozen=True)
class SamplingGrid:
    """A theta x phi product grid on a sphere of radius r, with node weights.

    Gaussian scheme: exact integration of spherical-harmonic products up
    to the grid order; sum of weights is 4 pi.
    """

    order: int
    radius: float
    theta: np.ndarray  # (T,) polar angles
    phi: np.ndarray  # (P,) azimuths
    weights: np.ndarray  # (T * P,)

    @property
    def num_points(self):
        return self.weights.size


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
    Raises ArithmeticError naming ``analysis_order`` when the grid does not
    fit in memory.
    """
    if order < 0 or not 0 < radius < np.inf:
        raise ValueError("order must be >= 0 and radius finite and positive")
    try:
        x, wx = sphmath.leggauss(order + 1)
        theta = np.arccos(x)
        nphi = 2 * (order + 1)
        phi = 2 * np.pi * np.arange(nphi) / nphi
        weights = np.repeat(wx, nphi) * (np.pi / (order + 1))
    except MemoryError as exc:  # leggauss alone takes (order + 1)^2 floats
        raise ArithmeticError(f"analysis_order: a Gaussian grid of order {order} does not "
                              f"fit in memory") from exc
    return SamplingGrid(order=order, radius=radius, theta=theta, phi=phi, weights=weights)


def transfer_matrix(geom, grid, k):
    """Transfer matrix H[j, l]: pressure at mic j per unit velocity of cap l.

    Column l equals the pressure field of the single-cap velocity
    pattern (v_l = 1, others 0) summed to the simulation order
    grid.order + SIM_ORDER_MARGIN, so content above the analysis order
    is included.  By the addition theorem this is

        H[j, l] = sum_n c_n P_n(cos gamma_jl),
        c_n = radial_near(n) g_n (2n+1) / (4 pi),

    with gamma_jl the angle between microphone j and cap l.  A g_n with
    no finite reciprocal raises cap_gain's ArithmeticError naming ``alpha``.
    """
    sim_order = grid.order + SIM_ORDER_MARGIN
    orders = np.arange(sim_order + 1)
    rg = radial_near(orders, k, grid.radius, geom.r0) * cap_gain(orders, geom.alpha)
    # the T x P microphones against the L caps: gamma is (T, P, L)
    gamma = great_circle_angle((grid.theta[:, None, None], grid.phi[:, None]), geom.cap_dirs.T)
    h = beam_pattern_modal(rg, gamma).reshape(grid.num_points, geom.num_caps)
    c = np.abs(rg) * (2 * orders + 1)
    return TransferMatrix(values=h, sim_order=sim_order, sim_tail=float(c[-3:].max() / c.max()))


def perturb_transfer(transfer, gain_db=0.0, phase_deg=0.0, noise=0.0, seed=0):
    """Apply per-unit gain/phase errors and additive microphone noise.

    Emulates transducer mismatch and measurement noise: each unit's gain is
    10^(gain_db z / 20) and its phase error deg2rad(phase_deg z), and each
    entry gains noise (z1 + i z2), every z a standard normal deviate drawn,
    in that order, from ``random.Random(seed)`` by :func:`_complex_normals`.
    Identical arguments give identical bytes.  Raises ArithmeticError,
    naming the field, when a drawn phase error reaches 2^55 rad (its float
    spacing exceeds a full turn, so it has no value modulo 2 pi), when a
    perturbed entry is not finite, or when every gain underflows to 0.
    """
    rnd = random.Random(seed)
    num_caps = transfer.values.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        # one value per unit: its real part sets the gain, its imaginary part the phase
        unit = _complex_normals(rnd, num_caps)
        gains = 10.0 ** (gain_db * unit.real / 20.0)
        phases = np.deg2rad(phase_deg * unit.imag)
        if not np.all(np.abs(phases) < _PHASE_LIMIT):
            raise ArithmeticError("perturb.phase_deg: a drawn phase error reaches 2^55 rad, "
                                  "where it has no value modulo 2 pi")
        h = transfer.values * (gains * np.exp(1j * phases))
        if not (np.all(np.isfinite(h)) and np.any(h)):  # a gain overflows, or every one underflows
            raise ArithmeticError("perturb.gain_db: perturbed transfer matrix is not finite "
                                  "or is all zero")
        if noise > 0.0:
            h = h + noise * _complex_normals(rnd, h.size).reshape(h.shape)
            if not np.all(np.isfinite(h)):
                raise ArithmeticError("perturb.noise: perturbed transfer matrix is not finite")
    return replace(transfer, values=h)


_PHASE_LIMIT = 2.0**55  # rad; from here on adjacent floats lie more than 2 pi apart


def _complex_normals(rnd, size):
    """size deviates z1 + i z2, z1 and z2 independent standard normals, from
    the random.Random rnd: Box-Muller on uniforms u = (k + 1) 2^-53 in (0, 1],
    k the top 53 bits of each little-endian 64-bit word of rnd.randbytes."""
    k = np.frombuffer(rnd.randbytes(16 * size), "<u8") >> 11
    u1, u2 = ((k + 1) * 2.0**-53).reshape(2, size)
    return np.sqrt(-2.0 * np.log(u1)) * np.exp(2j * np.pi * u2)


def _sh_tables(order, theta, phi):
    """Y_n^m(theta, 0) as a (T, Q) and e^{im phi} as a (Q, P) table, q = n^2 + n + m:
    Y_n^m(theta, phi) = Y_n^m(theta, 0) e^{im phi} on the theta x phi grid."""
    m = np.concatenate([np.arange(-n, n + 1) for n in range(order + 1)])  # m of column q
    return sphmath.sh_matrix(order, theta, 0.0), np.exp(1j * np.outer(m, phi))


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
    ytheta, eimphi = _sh_tables(order, grid.theta, grid.phi)
    weighted = (grid.weights * samples).reshape(grid.theta.size, grid.phi.size)
    return np.einsum("tq,qp,tp->q", ytheta.conj(), eimphi.conj(), weighted)


def virtual_measure(w, transfer):
    """Sampled pressure p_j = sum_l H[j, l] w_l of a driven array."""
    wv = np.asarray(w, dtype=complex)
    if wv.shape != (transfer.values.shape[1],):
        raise ValueError(f"w: expected {transfer.values.shape[1]} unit weights, one per cap, "
                         f"got shape {wv.shape}")
    return transfer.values @ wv


def measured_pattern(pnm, theta, phi):
    """Order-limited beam pattern of measured coefficients on the theta x phi
    product grid of T polar angles ``theta`` and P azimuths ``phi``.

    Synthesizes the packed spherical Fourier coefficients ``pnm`` (from
    :func:`discrete_sft`) as (T * P,) values in meshgrid "ij" order: the
    measured counterpart of the designed pattern, free of the uncontrolled
    harmonics above order sqrt(pnm.size) - 1 (up to quadrature aliasing).
    The overall complex scale of the result is that of the pressure samples.
    """
    ytheta, eimphi = _sh_tables(math.isqrt(pnm.size) - 1, theta, phi)
    # einsum, not @: a first level-3 BLAS call raises the process's peak memory
    return np.einsum("tq,qp->tp", ytheta * pnm, eimphi).ravel()


def pattern_error(measured, reference, weights):
    """Scale-aligned relative L2 error between two sampled patterns.

    ||m - rho r|| / ||rho r|| under the quadrature inner product, with
    rho the least-squares complex scale aligning m to r, so the error
    does not change when m is scaled.  Raises ArithmeticError when the
    error is not finite: when rho = 0 (m has no component along r), or
    when a huge measured pattern overflows its squared norm.  Raises it
    too when a tiny measured pattern underflows its squared norm (below
    the smallest normal float), where the error would read 0.
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
        m_sq = np.sum(a * np.abs(m) ** 2)
    if not np.isfinite(err):
        raise ArithmeticError("pattern_error: not finite; the measured pattern overflows "
                              "or has no component along the design")
    if m_sq < np.finfo(float).tiny:
        raise ArithmeticError("pattern_error: the measured pattern underflows; its squared "
                              "norm is below the smallest normal float")
    return err


@dataclass(frozen=True)
class Simulation:
    """The result of :func:`simulate` at one frequency: what its files hold.

    ``report`` holds the simulation file's computed fields: ``sim_order``,
    ``sim_tail`` and ``pattern_error``.  ``patterns`` maps each pattern
    file's stem ("balloon_designed", "balloon_measured",
    "cross_section_designed", "cross_section_measured") to (theta (T,),
    phi (P,), values (T * P,), look_value).  The balloon is a
    BALLOON_STEP_DEG theta x phi grid and the cross-section the plane
    theta = 90 deg in 1-degree steps; each grid is the product of its T
    polar and P azimuthal angles, with the values in meshgrid "ij" order
    (phi varying fastest).  look_value, the pattern's value in the look
    direction, is its reference for dB.
    """

    report: dict
    patterns: dict


def _pattern_grids():
    """(name, theta, phi) of the balloon and cross-section product grids."""
    return (("balloon", np.deg2rad(np.arange(0.0, 180.0 + BALLOON_STEP_DEG, BALLOON_STEP_DEG)),
             np.deg2rad(np.arange(0.0, 360.0, BALLOON_STEP_DEG))),
            ("cross_section", np.array([np.pi / 2]), np.deg2rad(np.arange(0.0, 360.0, 1.0))))


def _patterns(d, look, pnm, theta, phi):
    """Designed and measured patterns on the theta x phi grid, (T * P,) each."""
    designed = beam_pattern_modal(d, great_circle_angle(look, (theta[:, None], phi)))
    return designed.ravel(), measured_pattern(pnm, theta, phi)


def simulate(geom, d, w, k, look, analysis_order, radius, perturbation=None):
    """Virtually measure the unit weights w of modal design d at wavenumber k.

    Samples the pressure on a Gaussian grid of ``analysis_order`` at
    ``radius``, perturbed by :func:`perturb_transfer` with the keyword
    arguments in ``perturbation`` when one of its gain_db, phase_deg or
    noise is nonzero.  Transforms the samples to the design order and
    evaluates the designed and measured patterns on the grid (for
    ``pattern_error``), at ``look`` and at the balloon and cross-section
    directions.  Raises ArithmeticError when a pattern is not finite (naming
    ``d`` when the designed one is not), the measured one underflows or a
    look value is zero, so a caller that writes only after this returns
    writes all its files or none.
    """
    # huge weights overflow the products; the checks below turn that into ArithmeticError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grid = gaussian_grid(analysis_order, radius)
        transfer = transfer_matrix(geom, grid, k)
        if perturbation and any(perturbation[key] for key in ("gain_db", "phase_deg", "noise")):
            transfer = perturb_transfer(transfer, **perturbation)
        measured_nm = discrete_sft(virtual_measure(w, transfer), grid, d.size - 1)
        designed, measured = _patterns(d, look, measured_nm, grid.theta, grid.phi)
        if not np.all(np.isfinite(designed)):
            raise ArithmeticError("d: the designed pattern is not finite")
        err = pattern_error(measured, designed, grid.weights)
        looks = {"designed": beam_pattern_modal(d, 0.0),
                 "measured": measured_pattern(measured_nm, [look[0]], [look[1]])[0]}
        patterns = {f"{name}_{kind}": (theta, phi, values, looks[kind])
                    for name, theta, phi in _pattern_grids()
                    for kind, values in zip(looks, _patterns(d, look, measured_nm, theta, phi))}
    for stem, (_, _, values, look_value) in patterns.items():
        if not (np.all(np.isfinite(values)) and np.isfinite(look_value)):
            raise ArithmeticError(f"{stem}: non-finite pattern values")
        if look_value == 0:
            raise ArithmeticError(f"{stem.rpartition('_')[2]}_look: zero response in the "
                                  "look direction")
    return Simulation(report={"sim_order": transfer.sim_order, "sim_tail": transfer.sim_tail,
                              "pattern_error": err}, patterns=patterns)
