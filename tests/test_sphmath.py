import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from oracles import NUMPY_KERNELS, grid_dirs, sh_index, sh_unpack, sph_bessel_j

from sphbeam import sphmath


class TestShIndex:
    def test_ordering(self):
        # packed ordering: (0,0), (1,-1), (1,0), (1,1), ...
        assert sh_index(0, 0) == 0
        assert sh_index(1, -1) == 1
        assert sh_index(1, 0) == 2
        assert sh_index(1, 1) == 3
        assert sh_index(2, 2) == 8

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            sh_index(1, 2)
        with pytest.raises(ValueError):
            sh_index(-1, 0)

    @given(st.integers(0, 20), st.integers(-20, 20))
    def test_pack_unpack_roundtrip(self, n, m):
        if abs(m) > n:
            return
        assert sh_unpack(sh_index(n, m)) == (n, m)

    def test_index_range(self):
        order = 5
        qs = [sh_index(n, m) for n in range(order + 1) for m in range(-n, n + 1)]
        assert qs == list(range((order + 1) ** 2))


class TestLegendre:
    def test_low_orders(self):
        assert sphmath.legendre(0, 0.3)[0] == 1.0
        assert sphmath.legendre(1, 0.5)[0] == 0.5
        assert sphmath.legendre(2, 0.5)[0] == pytest.approx(-0.125, abs=1e-15)

    def test_against_explicit_polynomials(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, 20)
        explicit = {
            2: (3 * x**2 - 1) / 2,
            3: (5 * x**3 - 3 * x) / 2,
            4: (35 * x**4 - 30 * x**2 + 3) / 8,
        }
        for n, ref in explicit.items():
            assert np.max(np.abs(sphmath.legendre(n, x)[0] - ref)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sphmath.legendre(2, 1.5)

    def test_matches_scipy_to_order_45(self):
        # values within 1e-13, derivatives within 1e-13 of P'_n(1) = n(n+1)/2
        n = np.arange(46)
        x = np.concatenate([np.linspace(-1.0, 1.0, 201), [np.cos(1e-9), -np.cos(1e-9)]])
        p, dp = sphmath.legendre(n, x)
        ref_p, ref_dp = sp.legendre_p(n, x[:, None], diff_n=1)
        assert p.shape == dp.shape == (x.size, n.size)
        assert np.max(np.abs(p - ref_p)) < 1e-13
        assert np.all(np.abs(dp - ref_dp) <= 1e-13 * n * (n + 1) / 2)

    def test_shape_is_x_then_n(self):
        p, dp = sphmath.legendre(np.array([[0, 3, 1]]), np.array([0.2, -0.4]))
        assert p.shape == dp.shape == (2, 1, 3)
        assert p[1, 0, 2] == -0.4 and dp[0, 0, 2] == 1.0
        assert dp[0, 0, 1] == pytest.approx((15 * 0.2**2 - 3) / 2, abs=1e-15)
        assert dp[:, 0, 0].tolist() == [0.0, 0.0]

    def test_rejects_negative_or_fractional_order(self):
        for n in (-1, 1.5, np.array([0, -2])):
            with pytest.raises(ValueError, match="order"):
                sphmath.legendre(n, 0.3)


def _assert_bit_identical(got, want):
    """got equals want bit for bit: the same type, shape, dtype, values and
    sign bits (so -0.0 differs from 0.0), for real and imaginary parts."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


# scalars, 0-d arrays and nd arrays, with both signed zeros and both ends
_LEGENDRE_X = [0.0, -0.0, 1.0, -1.0, 0.3, np.asarray(-0.0), np.asarray(0.7),
               np.linspace(-1.0, 1.0, 41), np.array([[0.1, -0.0], [1.0, -1.0]]),
               np.cos(np.linspace(0.0, np.pi, 181))]

# cos of (T, P, L) angles, as transfer_matrix sums its series over, with both
# signed zeros and both ends
_SIMULATE_X = np.cos(np.random.default_rng(0).uniform(0.0, np.pi, (5, 7, 12)))
_SIMULATE_X[0, :4, 0] = [-0.0, 0.0, 1.0, -1.0]


def _legval_id(x):
    return f"shape{x.shape}" if np.ndim(x) > 2 else repr(x)


class TestNumpyKernels:
    """The Legendre and Chebyshev kernels against numpy.polynomial, bit for bit."""

    @pytest.mark.parametrize("x", _LEGENDRE_X, ids=repr)
    def test_legendre_matches_legvander_and_legder(self, x):
        for deg in range(60):
            for n in (deg, np.arange(deg + 1), np.array([[deg, 0]])):
                got, want = sphmath.legendre(n, x), NUMPY_KERNELS["legendre"](n, x)
                _assert_bit_identical(got[0], want[0])
                _assert_bit_identical(got[1], want[1])

    @pytest.mark.parametrize("deg", [*range(1, 40), 127, 256, 401])
    def test_leggauss(self, deg):
        # degree 1 takes legcompanion's 1 x 1 branch
        for got, want in zip(sphmath.leggauss(deg), NUMPY_KERNELS["leggauss"](deg)):
            _assert_bit_identical(got, want)

    def test_leggauss_rejects_degree_0(self):
        with pytest.raises(ValueError, match="deg"):
            sphmath.leggauss(0)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 46, 48])
    @pytest.mark.parametrize("x", [0.3, -0.0, np.float64(-0.6), np.asarray(0.5),
                                   np.asarray(-0.0), np.linspace(-1.0, 1.0, 7),
                                   np.array([[-0.0, 0.2, 1.0], [-1.0, 0.0, 0.9]]),
                                   _SIMULATE_X], ids=_legval_id)
    def test_legval(self, size, x):
        # 46 terms and a (T, P, L) x: transfer_matrix's series at analysis order 30
        rng = np.random.default_rng(size)
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        c[rng.random(size) < 0.3] = -0.0  # signed zero terms
        for coeffs in (c, c.real.copy()):
            _assert_bit_identical(sphmath.legval(x, coeffs), NUMPY_KERNELS["legval"](x, coeffs))

    @pytest.mark.parametrize("order", range(1, 21))
    def test_chebyshev_t_on_the_dolph_chebyshev_nodes(self, order):
        # T_2N at x0 cos(Theta/2) on the Gauss-Legendre nodes, as the design forms it,
        # and beyond [-1, 1] with both signed zeros
        nodes, _ = sphmath.leggauss(4 * order + 8)
        for sidelobe_db in (10.0, 25.0, 60.0):
            x0 = np.cosh(np.arccosh(10.0 ** (sidelobe_db / 20.0)) / (2 * order))
            for x in (x0 * np.sqrt((1.0 + nodes) / 2.0), np.linspace(-1.5, 1.5, 31),
                      np.array([-0.0, 0.0]), -0.0, np.asarray(0.4)):
                _assert_bit_identical(sphmath.chebyshev_t(2 * order, x),
                                      NUMPY_KERNELS["chebyshev_t"](2 * order, x))

    def test_chebyshev_t_low_degrees(self):
        # odd degrees vanish at x = 0, where Clenshaw's signed zeros show
        x = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0])
        for n in range(8):
            _assert_bit_identical(sphmath.chebyshev_t(n, x), NUMPY_KERNELS["chebyshev_t"](n, x))


def _ynm(n, m, theta, phi):
    """Y_n^m(theta, phi) from the column of sh_matrix at packed index (n, m)."""
    return sphmath.sh_matrix(n, theta, phi)[0, sh_index(n, m)]


class TestSphHarmonic:
    def test_constant_mode(self):
        val = _ynm(0, 0, 0.73, 2.1)
        assert val == pytest.approx(1 / np.sqrt(4 * np.pi), abs=1e-14)

    def test_dipole_at_pole(self):
        assert _ynm(1, 0, 0.0, 0.0) == pytest.approx(
            np.sqrt(3 / (4 * np.pi)), abs=1e-14
        )

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(7)
        for n in range(1, 6):
            for m in range(1, n + 1):
                theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
                lhs = _ynm(n, -m, theta, phi)
                rhs = (-1) ** m * np.conj(_ynm(n, m, theta, phi))
                assert abs(lhs - rhs) < 1e-13

    def test_addition_theorem(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t1, t2 = rng.uniform(0, np.pi, 2)
            p1, p2 = rng.uniform(0, 2 * np.pi, 2)
            cos_gc = np.cos(t1) * np.cos(t2) + np.cos(p1 - p2) * np.sin(t1) * np.sin(t2)
            y1 = sphmath.sh_matrix(10, t1, p1)[0]
            y2 = sphmath.sh_matrix(10, t2, p2)[0]
            for n in range(11):
                degree_n = slice(n * n, (n + 1) ** 2)  # packed indices of m = -n..n
                total = np.sum(y1[degree_n] * np.conj(y2[degree_n]))
                ref = (2 * n + 1) / (4 * np.pi) * sphmath.legendre(n, np.clip(cos_gc, -1, 1))[0]
                assert abs(total - ref) < 1e-10

    def test_orthonormality_on_gaussian_grid(self):
        from sphbeam.virtualmeas import gaussian_grid

        order = 6
        grid = gaussian_grid(order, 1.0)
        dirs = grid_dirs(grid)
        ymat = sphmath.sh_matrix(order, dirs[:, 0], dirs[:, 1])
        gram = ymat.conj().T @ (grid.weights[:, None] * ymat)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9

    def test_matches_scipy_to_order_40(self):
        rng = np.random.default_rng(3)
        theta = np.concatenate([rng.uniform(0, np.pi, 60), [0.0, np.pi, 1e-9, np.pi - 1e-9]])
        phi = rng.uniform(0, 2 * np.pi, theta.size)
        ymat = sphmath.sh_matrix(40, theta, phi)
        n, m = np.array([sh_unpack(q) for q in range(ymat.shape[1])]).T
        ref = sp.sph_harm_y(n, m, theta[:, None], phi[:, None])
        assert np.max(np.abs(ymat - ref)) < 1e-12


class TestBessel:
    def test_j0_value(self):
        val, _ = sph_bessel_j(0, 1.0)
        assert val == pytest.approx(np.sin(1.0), abs=1e-12)  # 0.8414709848...

    def test_j1_value(self):
        val, _ = sph_bessel_j(1, 1.0)
        assert val == pytest.approx(np.sin(1.0) - np.cos(1.0), abs=1e-12)  # 0.3011686789...

    def test_small_argument_limit(self):
        val, _ = sph_bessel_j(0, 1e-8)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_h0_value(self):
        val, _ = sphmath.sph_hankel1(0, 1.0)
        assert val == pytest.approx(-1j * np.exp(1j), abs=1e-12)

    def test_accuracy_against_power_series(self):
        # j_n(x) = x^n sum_s (-x^2/2)^s / (s! (2n+2s+1)!!), >= 10 significant digits
        for n in (0, 5, 15, 30):
            for x in (1e-3, 0.5, 2.0, 8.0):
                dfact = np.prod(np.arange(1, 2 * n + 2, 2, dtype=float))
                term = 1.0 / dfact
                total = term
                for s in range(1, 60):
                    term *= -(x**2) / 2 / (s * (2 * n + 2 * s + 1))
                    total += term
                ref = x**n * total
                val, _ = sph_bessel_j(n, x)
                assert val == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sph_bessel_j(0, 0.0)
        with pytest.raises(ValueError):
            sphmath.sph_hankel1(0, -1.0)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_wronskian(self, x):
        for n in range(16):
            jn, djn = sph_bessel_j(n, x)
            hn, dhn = sphmath.sph_hankel1(n, x)
            assert abs(x**2 * (jn * dhn - djn * hn) - 1j) < 1e-10

    def test_hankel_matches_scipy(self):
        n = np.arange(46)[:, None]
        x = np.geomspace(1e-2, 200.0, 120)
        val, der = sphmath.sph_hankel1(n, x)
        ref_val = sp.spherical_jn(n, x) + 1j * sp.spherical_yn(n, x)
        ref_der = (sp.spherical_jn(n, x, derivative=True)
                   + 1j * sp.spherical_yn(n, x, derivative=True))
        assert np.max(np.abs(val - ref_val) / np.abs(ref_val)) < 1e-12
        assert np.max(np.abs(der - ref_der) / np.abs(ref_der)) < 1e-12

    def test_hankel_overflow_names_order_and_argument(self):
        with pytest.raises(ArithmeticError, match=r"n=\d+, x=1e-200"):
            sphmath.sph_hankel1(np.arange(3), 1e-200)

    def test_large_argument_asymptote(self):
        # leading correction is n(n+1)/(2x), so scale x accordingly
        for n in range(6):
            x = 50.0 * (n + 1) * max(n, 1)
            val, _ = sphmath.sph_hankel1(n, x)
            approx = (-1j) ** (n + 1) * np.exp(1j * x) / x
            assert abs(val - approx) / abs(val) < 0.01
