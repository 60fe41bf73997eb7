"""Diversity slope estimation and the closed-form approximation."""

import numpy as np
import pytest

from otfslab import analytic, diversity
from otfslab.diversity import empirical_gd_values, siso_gd_approx
from otfslab.errors import DomainError
from otfslab.fading import PathSpec


class TestEmpiricalSlope:
    def test_exact_power_law(self):
        # ber = c * snr^-2 gives slope exactly 2
        c = 0.37
        b1 = c * 10.0 ** -2
        b2 = c * 100.0 ** -2
        assert empirical_gd_values(b1, b2, 10.0, 20.0) == pytest.approx(2.0, abs=1e-12)

    def test_reference_pairs(self):
        # measured pairs quoted for the 10 -> 20 dB window
        assert empirical_gd_values(0.07919, 0.00903, 10.0, 20.0) \
            == pytest.approx(0.94, abs=0.005)
        assert empirical_gd_values(0.0181, 0.0002918, 10.0, 20.0) \
            == pytest.approx(1.78, abs=0.02)

    def test_zero_ber_rejected(self):
        with pytest.raises(DomainError):
            empirical_gd_values(0.0, 1e-3, 10.0, 20.0)
        with pytest.raises(DomainError):
            empirical_gd_values(1e-3, 0.0, 10.0, 20.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            b1, b2 = rng.uniform(1e-6, 1e-1, 2)
            c = rng.uniform(0.1, 10.0)
            a = empirical_gd_values(b1, b2, 10.0, 20.0)
            b = empirical_gd_values(c * b1, c * b2, 10.0, 20.0)
            assert a == pytest.approx(b, rel=1e-12)


class TestApproximations:
    @pytest.mark.parametrize("shapes,expected", [
        ((1,), 1.0), ((1, 2), 2.0), ((2, 3, 4), 6.0)])
    def test_siso(self, shapes, expected):
        assert siso_gd_approx(shapes) == expected


class TestAnalyticCurveSlopes:
    @pytest.mark.parametrize("m", [1, 2])
    def test_asymptotic_window_approaches_approximation(self, m):
        # closed-form curves at 30 -> 40 dB sit within 0.25 of P * min(m)
        mod = analytic.mod_params("qpsk")
        paths = [PathSpec(m=m, omega=1.0)]
        b1 = analytic.siso_ber(10.0 ** 3.0, paths, mod)
        b2 = analytic.siso_ber(10.0 ** 4.0, paths, mod)
        slope = empirical_gd_values(b1, b2, 30.0, 40.0)
        assert abs(slope - siso_gd_approx((m,))) <= 0.25
