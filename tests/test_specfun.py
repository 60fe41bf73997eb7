"""Special-function kernel tests: every closed form against an independent
oracle (mpmath, direct quadrature, or an elementary identity)."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfslab import specfun
from otfslab.errors import DomainError, NumericError
from otfslab.specfun import QuadratureSpec

mp.mp.dps = 40


class TestLnGamma:
    def test_factorial_points(self):
        assert specfun.ln_gamma(1.0) == 0.0
        assert abs(specfun.ln_gamma(5.0) - math.log(24.0)) < 1e-14
        assert abs(specfun.ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_against_mpmath_over_range(self):
        for x in np.logspace(-3, 3, 140):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            got = specfun.ln_gamma(float(x))
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            specfun.ln_gamma(bad)


class TestIncompleteGamma:
    def test_zero_argument_gives_complete_gamma(self):
        for m in (1, 2, 3, 4.5):
            assert specfun.reg_upper_incomplete_gamma(m, 0.0) == 1.0
            assert specfun.reg_lower_incomplete_gamma(m, 0.0) == 0.0

    def test_shape_one_is_exponential_tail(self):
        for x in (0.1, 1.0, 5.0, 30.0):
            assert abs(specfun.reg_upper_incomplete_gamma(1.0, x) - math.exp(-x)) \
                <= 1e-13 * math.exp(-x) + 1e-300

    def test_integer_shape_finite_sum_identity(self):
        # Gamma(3, 2) = 2! e^-2 (1 + 2 + 2) = 10 e^-2, confirmed by quadrature
        expected = 10.0 * math.exp(-2.0)
        oracle = specfun.integrate_semi_infinite(
            lambda u: (u + 2.0) ** 2 * math.exp(-(u + 2.0)))
        assert abs(oracle - expected) < 1e-10
        assert abs(2.0 * specfun.reg_upper_incomplete_gamma(3.0, 2.0) - expected) < 1e-12

    def test_lower_plus_upper_is_complete(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            s = float(rng.uniform(0.05, 60.0))
            x = float(rng.uniform(0.0, 120.0))
            total = specfun.reg_lower_incomplete_gamma(s, x) \
                + specfun.reg_upper_incomplete_gamma(s, x)
            assert abs(total - 1.0) <= 1e-10

    def test_against_mpmath(self):
        for s in (0.3, 1.0, 2.5, 7.0, 40.0):
            for x in (0.0, 0.2, 1.0, 5.0, 60.0):
                ref = float(mp.gammainc(s, x, mp.inf, regularized=True))
                got = specfun.reg_upper_incomplete_gamma(s, x)
                assert abs(got - ref) <= 1e-12 * max(ref, 1e-12) + 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.reg_upper_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.reg_upper_incomplete_gamma(1.0, -0.5)
        with pytest.raises(DomainError):
            specfun.reg_lower_incomplete_gamma(0.0, 1.0)


class TestQFunction:
    def test_zero_is_half(self):
        assert specfun.q_function(0.0) == 0.5

    def test_large_argument_decreases_to_zero(self):
        values = [specfun.q_function(x) for x in (2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-200

    def test_value_at_one_by_quadrature(self):
        # tail integral of the standard normal density beyond 1
        phi = lambda u: math.exp(-(u + 1.0) ** 2 / 2.0) / math.sqrt(2 * math.pi)
        oracle = specfun.integrate_semi_infinite(phi)
        assert abs(oracle - 0.15865525393145707) < 1e-12
        assert abs(specfun.q_function(1.0) - oracle) < 1e-12

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert abs(specfun.q_function(x) + specfun.q_function(-x) - 1.0) < 1e-14

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            specfun.q_function(float("inf"))


class TestDoubleFactorial:
    @pytest.mark.parametrize("n,expected", [(-1, 1), (0, 1), (1, 1), (2, 2),
                                            (5, 15), (7, 105), (8, 384)])
    def test_values(self, n, expected):
        assert specfun.double_factorial(n) == expected

    def test_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            specfun.double_factorial(-2)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        got = specfun.integrate_semi_infinite(lambda y: math.exp(-y))
        assert abs(got - 1.0) < 1e-12

    def test_sqrt_singularity(self):
        got = specfun.integrate_semi_infinite(
            lambda y: math.exp(-y) / math.sqrt(y))
        assert abs(got - math.sqrt(math.pi)) < 1e-11

    def test_scaled_gaussian_weight(self):
        # int y^-1/2 e^{-B y} dy = sqrt(pi / B); the B = 4 case plus a spread
        got = specfun.integrate_semi_infinite(
            lambda y: math.exp(-4.0 * y) / math.sqrt(y))
        assert abs(got - math.sqrt(math.pi / 4.0)) < 1e-11
        rng = np.random.default_rng(7)
        for b in rng.uniform(0.1, 10.0, 20):
            got = specfun.integrate_semi_infinite(
                lambda y, b=b: math.exp(-b * y) / math.sqrt(y))
            ref = math.sqrt(math.pi / b)
            assert abs(got - ref) <= 1e-10 * ref

    def test_nonconvergence_reports_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
        with pytest.raises(NumericError) as exc:
            specfun.integrate_semi_infinite(
                lambda y: math.sin(40.0 * y) / (1.0 + y) ** 1.2, spec)
        assert math.isfinite(exc.value.estimate)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=10**7)


class TestMeijerG:
    def test_high_snr_limit_vanishes(self):
        values = [specfun.meijer_g_2313(x, 2.0) for x in (5.0, 10.0, 20.0, 39.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_zero_snr_limit_is_coin_flip(self):
        # with unit constants the bit error rate is G/2 -> 1/2
        for m_z in (1.0, 2.0, 3.5):
            assert abs(0.5 * specfun.meijer_g_2313(1e-9, m_z) - 0.5) < 1e-3

    def test_single_interferer_case_matches_direct_quadrature(self):
        # x = (Es/N0)/Omega_z = 2 for one shape-2 unit-power interferer at 20 dB
        x, m_z = 2.0, 2.0

        def integrand(y):
            return math.exp(-y) / math.sqrt(y) \
                * specfun.reg_upper_incomplete_gamma(m_z, x / y)

        oracle = specfun.integrate_semi_infinite(integrand) / math.sqrt(math.pi)
        got = specfun.meijer_g_2313(x, m_z)
        assert abs(got - oracle) <= 1e-10 * oracle

    def test_series_and_quadrature_agree_on_grid(self):
        xs = np.logspace(-2, 0.9, 10)
        mzs = (0.8, 1.0, 1.2, 1.7, 2.0, 2.2, 2.8, 3.0, 3.3, 4.1)
        for m_z in mzs:
            for x in xs:
                q = specfun.meijer_g_2313(float(x), m_z)
                s = specfun.meijer_g_2313(float(x), m_z, method="series")
                assert abs(q - s) <= 1e-6 * abs(q)

    def test_series_rejects_half_integer_shapes(self):
        with pytest.raises(DomainError):
            specfun.meijer_g_2313(1.0, 2.5, method="series")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.meijer_g_2313(-1.0, 2.0)
        with pytest.raises(DomainError):
            specfun.meijer_g_2313(1.0, float("nan"))
        with pytest.raises(DomainError):
            specfun.meijer_g_2313(1.0, 2.0, method="bogus")

    def test_general_kernel_shift_reduces_to_unshifted(self):
        a = specfun.gamma_tail_ser_integral(3.0, 2.0, b=1.0, shift=0.0)
        b = specfun.meijer_g_2313(3.0, 2.0)
        assert abs(a - b) < 1e-14
