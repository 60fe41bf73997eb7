"""Special-function tests: every value against an independent oracle
(mpmath, direct quadrature, or an elementary identity)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from otfslab import specfun
from otfslab.errors import DomainError, NumericError


class TestQFunction:
    def test_zero_is_half(self):
        assert specfun.q_function(0.0) == 0.5

    def test_large_argument_decreases_to_zero(self):
        values = [specfun.q_function(x) for x in (2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-200

    def test_value_at_one_by_quadrature(self):
        # tail integral of the standard normal density beyond 1
        phi = lambda u: math.exp(-u * u / 2.0) / math.sqrt(2 * math.pi)
        oracle, _ = integrate.quad(phi, 1.0, math.inf, epsabs=0.0, epsrel=1e-13)
        assert abs(oracle - 0.15865525393145707) < 1e-12
        assert abs(specfun.q_function(1.0) - oracle) < 1e-12

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert abs(specfun.q_function(x) + specfun.q_function(-x) - 1.0) < 1e-14

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            specfun.q_function(float("inf"))


# The Gamma-average domain: every (m_z, x) pair meets each b once and three
# of the four shifts, which rotate so that each m_z and each x meets them all.
AVERAGE_SHAPES = (0.5, 1.3, 4.0, 40.0)
AVERAGE_XS = (1e-3, 1.0, 1e3, 1e5)
AVERAGE_SHIFTS = (0.0, 0.05, 1.0, 20.0)
AVERAGE_BS = (0.1, 0.5, 1.0)


def average_cases():
    return [pytest.param(m_z, x, [(AVERAGE_SHIFTS[(i + k + j) % 4], b)
                                  for j, b in enumerate(AVERAGE_BS)],
                         id=f"m{m_z:g}-x{x:g}")
            for i, m_z in enumerate(AVERAGE_SHAPES)
            for k, x in enumerate(AVERAGE_XS)]


class TestErfcGammaAverage:
    @pytest.mark.parametrize("m_z,x,shift_b", average_cases())
    def test_matches_oracle_over_the_domain(self, gamma_average_oracle, m_z, x,
                                            shift_b):
        for shift, b in shift_b:
            ref = gamma_average_oracle(x, m_z, b, shift)
            got = specfun.erfc_gamma_average(x, m_z, b=b, shift=shift)
            assert abs(got - ref) <= 1e-9 * ref, (shift, b, got, ref)

    @pytest.mark.parametrize("m_z", (0.5, 1.0, 2.0, 40.0))
    def test_meijer_g_matches_oracle(self, gamma_average_oracle, m_z):
        # the unshifted, unit-b average, the paper's Meijer-G form G(x);
        # m_z = 1 at x = 1000 was 132% off under an absolute quadrature
        # tolerance of 1e-13
        for x in (1e-3, 2.0, 1e3, 1e5):
            ref = gamma_average_oracle(x, m_z)
            assert abs(specfun.erfc_gamma_average(x, m_z) - ref) <= 1e-9 * ref

    def test_high_snr_limit_vanishes(self):
        values = [specfun.erfc_gamma_average(x, 2.0) for x in (5.0, 10.0, 20.0, 39.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_zero_snr_limit_is_coin_flip(self):
        # with unit constants the bit error rate is G/2 -> 1/2
        for m_z in (1.0, 2.0, 3.5):
            assert abs(0.5 * specfun.erfc_gamma_average(1e-9, m_z) - 0.5) < 1e-3

    def test_single_interferer_case_matches_direct_quadrature(self):
        # x = (Es/N0)/Omega_z = 2 for one shape-2 unit-power interferer at 20 dB;
        # G(x) = (1/sqrt(pi)) int_0^inf e^-y y^-1/2 Gamma_upper(m_z, x/y) dy,
        # integrated in y = t^2 to remove the singularity at 0
        x, m_z = 2.0, 2.0

        def integrand(t):
            return 2.0 * math.exp(-t * t) * special.gammaincc(m_z, x / (t * t))

        value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0,
                                  epsrel=1e-13, limit=200)
        oracle = value / math.sqrt(math.pi)
        got = specfun.erfc_gamma_average(x, m_z)
        assert abs(got - oracle) <= 1e-10 * oracle

    # the second peaks narrower than the first rule's step, and its midpoints
    # beat the first nodes' peak by ~1750 nats: without the rescale to them,
    # its sums overflow
    @pytest.mark.parametrize("args", [(1e9, 2.0, 1.0, 0.0), (1e7, 0.05, 1.0, 0.001)])
    def test_below_the_double_range_raises(self, args):
        with pytest.raises(NumericError, match="below the double range"):
            specfun.erfc_gamma_average(*args)

    def test_nonconvergence_raises(self, monkeypatch):
        # a node cap below the first halving leaves two rules never compared;
        # the estimate is the first rule, already close on this smooth case
        value = specfun.erfc_gamma_average(3.0, 2.0)
        monkeypatch.setattr(specfun, "_MAX_NODES", 2 * specfun._SEARCH_POINTS - 2)
        with pytest.raises(NumericError, match="did not converge") as exc:
            specfun.erfc_gamma_average(3.0, 2.0)
        assert math.isfinite(exc.value.estimate)
        assert abs(exc.value.estimate - value) <= 1e-6 * value

    @pytest.mark.parametrize("args", [(0.0, 2.0, 1.0, 0.0), (1.0, -1.0, 1.0, 0.0),
                                      (1.0, 2.0, 0.0, 0.0), (1.0, 2.0, 1.0, -1.0),
                                      (math.inf, 2.0, 1.0, 0.0),
                                      (1.0, math.nan, 1.0, 0.0)])
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            specfun.erfc_gamma_average(*args)
