"""Frequency as an array axis: every stage fed a k of shape (F,) must give
the rows that F scalar calls give, and design.sweep must equal the
per-frequency design -> steer -> synthesis -> metrics chain."""

import numpy as np
import pytest

from sphbeam.design import (
    dolph_chebyshev_weights,
    max_directivity_weights,
    max_wng_weights,
    sweep,
)
from sphbeam.metrics import report
from sphbeam.radiation import dodecahedron, radial_far, radial_near
from sphbeam.synthesis import build_transform, near_field_steer, steer, unit_weights

GEOM = dodecahedron(0.15, 0.3)
R0 = GEOM.r0
RADIUS = 0.57
LOOK = (1.1, 4.0)
# kr0 from 0.05 to 12: below, near and above the modal orders used here
K = np.geomspace(0.05, 12.0, 23) / R0


def assert_rows(batch, rows):
    """``batch`` equals the stacked ``rows`` to 1e-14 of each row's peak."""
    rows = np.asarray(rows)
    assert np.shape(batch) == rows.shape
    diff = np.abs(np.asarray(batch) - rows).reshape(len(rows), -1)
    peak = np.abs(rows).reshape(len(rows), -1).max(axis=1)
    assert np.all(diff.max(axis=1) <= 1e-14 * peak)


class TestBroadcastOverK:
    def test_radial_far(self):
        n = np.arange(6)
        assert_rows(radial_far(n, K, R0), [radial_far(n, k, R0) for k in K])

    def test_radial_near(self):
        n = np.arange(6)
        assert_rows(radial_near(n, K, RADIUS, R0),
                    [radial_near(n, k, RADIUS, R0) for k in K])

    def test_max_wng_weights(self):
        assert_rows(max_wng_weights(4, K, R0),
                    [max_wng_weights(4, k, R0) for k in K])

    @pytest.mark.parametrize("per_k", [True, False], ids=["d_per_k", "one_d"])
    def test_steer(self, per_k):
        d = max_wng_weights(4, K, R0) if per_k else dolph_chebyshev_weights(4, 25.0)
        rows = [steer(d[i] if per_k else d, LOOK, k, R0)
                for i, k in enumerate(K)]
        assert_rows(steer(d, LOOK, K, R0), rows)

    @pytest.mark.parametrize("per_k", [True, False], ids=["d_per_k", "one_d"])
    def test_near_field_steer(self, per_k):
        d = max_wng_weights(4, K, R0) if per_k else max_directivity_weights(4)
        rows = [near_field_steer(d[i] if per_k else d, LOOK, k, RADIUS, R0)
                for i, k in enumerate(K)]
        assert_rows(near_field_steer(d, LOOK, K, RADIUS, R0), rows)

    def test_unit_weights(self):
        transform = build_transform(GEOM, 2)
        w_nm = steer(max_wng_weights(2, K, R0), LOOK, K, R0)
        rows = [unit_weights(coeffs, transform) for coeffs in w_nm]
        assert_rows(unit_weights(w_nm, transform), rows)

    @pytest.mark.parametrize("per_k", [True, False], ids=["d_per_k", "one_d"])
    def test_report(self, per_k):
        d = max_wng_weights(4, K, R0) if per_k else dolph_chebyshev_weights(4, 30.0)
        batch = report(d, K, R0)
        rows = [report(d[i] if per_k else d, k, R0) for i, k in enumerate(K)]
        for field in ("q", "di_db", "wng", "wng_db"):
            assert_rows(batch[field][:, None], [[row[field]] for row in rows])

    def test_scalar_k_keeps_scalar_shapes(self):
        d = max_wng_weights(2, K[3], R0)
        assert d.shape == (3,)
        assert steer(d, LOOK, K[3], R0).shape == (9,)
        rep = report(d, K[3], R0)
        assert all(type(rep[f]) is float for f in ("q", "di_db", "wng", "wng_db"))


class TestSweep:
    @pytest.mark.parametrize("near_field_radius", [None, RADIUS], ids=["far", "near"])
    @pytest.mark.parametrize("method", ["max-di", "max-wng", "dolph-chebyshev"])
    def test_matches_per_frequency_chain(self, method, near_field_radius):
        transform = build_transform(GEOM, 2)
        result = sweep(GEOM, method, 2, K, LOOK, 25.0, near_field_radius)
        rows = {name: [] for name in ("d", "coeffs", "w", "q", "di_db", "wng", "wng_db",
                                      "norm")}
        for k in K:
            d = {"max-di": lambda: max_directivity_weights(2),
                 "max-wng": lambda: max_wng_weights(2, k, R0),
                 "dolph-chebyshev": lambda: dolph_chebyshev_weights(2, 25.0)}[method]()
            if near_field_radius is None:
                w_nm = steer(d, LOOK, k, R0)
            else:
                w_nm = near_field_steer(d, LOOK, k, near_field_radius, R0)
            w = unit_weights(w_nm, transform)
            rep = report(d, k, R0)
            for name, value in (("d", d), ("coeffs", w_nm), ("w", w), ("q", [rep["q"]]),
                                ("di_db", [rep["di_db"]]), ("wng", [rep["wng"]]),
                                ("wng_db", [rep["wng_db"]]),
                                ("norm", [np.sum(np.abs(w) ** 2)])):
                rows[name].append(value)
        assert_rows(result.d, rows["d"])
        assert_rows(result.w_nm, rows["coeffs"])
        assert_rows(result.w, rows["w"])
        for field in ("q", "di_db", "wng", "wng_db"):
            assert_rows(result.report[field][:, None], rows[field])
        assert_rows(result.report["unit_weight_norm"][:, None], rows["norm"])

    def test_rejects_unknown_method_and_missing_sidelobe(self):
        with pytest.raises(ValueError, match="method"):
            sweep(GEOM, "max-snr", 2, K, LOOK)
        with pytest.raises(ValueError, match="sidelobe"):
            sweep(GEOM, "dolph-chebyshev", 2, K, LOOK)

    def test_non_finite_result_names_the_wavenumber(self):
        # at kr0 ~ 1e-64, 1 / b_n overflows the steered coefficients
        with pytest.raises(ArithmeticError, match=r"not finite at k = 1\.8"):
            sweep(GEOM, "max-di", 2, np.array([K[5], 1.8e-62]), LOOK)
