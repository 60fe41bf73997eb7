"""Closed-form error-rate machinery against independent numerical oracles."""

import math

import numpy as np
import pytest
from scipy import signal, special

from otfslab import analytic, cli, fading, specfun
from otfslab.analytic import (GammaMixTerm, gamma_approx, mod_params,
                              multiuser_ber, semi_analytic_mc_ber, sinr_cdf,
                              sinr_moments, sinr_pdf, siso_ber,
                              siso_ber_quadrature, xi_coefficients)
from otfslab.errors import (ConfigError, DegenerateScalesError, DomainError,
                            NoInterferenceSignal)
from otfslab.fading import PathSpec, make_stream


class TestModParams:
    def test_bpsk(self):
        p = mod_params("bpsk")
        assert (p.A, p.B, p.order) == (1.0, 1.0, 2)

    def test_qpsk(self):
        p = mod_params("qpsk")
        assert (p.A, p.B, p.order) == (2.0, 0.5, 4)

    def test_square_16qam(self):
        p = mod_params("qam", 16)
        assert abs(p.A - 3.0) < 1e-15
        assert abs(p.B - 0.1) < 1e-15

    def test_mpsk_sine_constant(self):
        p = mod_params("psk", 8)
        assert abs(p.B - math.sin(math.pi / 8) ** 2) < 1e-15

    def test_dbpsk(self):
        p = mod_params("dbpsk")
        assert (p.A, p.B) == (2.0, 0.5)

    def test_unlisted_rejected(self):
        with pytest.raises(ConfigError):
            mod_params("chirp", 4)
        with pytest.raises(ConfigError):
            mod_params("fsk", 2)
        with pytest.raises(ConfigError):
            mod_params("qam", 12)


class TestErlang:
    def test_exponential_density_at_zero(self):
        assert abs(analytic.erlang_pdf(0.0, 1, 0.25) - 4.0) < 1e-14

    def test_pdf_integrates_to_one(self):
        for m, mu in ((1, 0.5), (2, 1.3), (4, 0.2)):
            total = specfun.integrate_semi_infinite(
                lambda z, m=m, mu=mu: analytic.erlang_pdf(z, m, mu))
            assert abs(total - 1.0) < 1e-10

    def test_finite_sum_cdf_equals_regularized_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            mu = float(rng.uniform(0.1, 5.0))
            z = float(rng.uniform(0.0, 20.0))
            direct = analytic.erlang_cdf(z, m, mu)
            oracle = specfun.reg_lower_incomplete_gamma(m, z / mu)
            assert abs(direct - oracle) < 1e-12

    def test_cdf_endpoints(self):
        assert analytic.erlang_cdf(0.0, 3, 1.0) == 0.0
        assert abs(analytic.erlang_cdf(1e4, 3, 1.0) - 1.0) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            analytic.erlang_pdf(1.0, 0, 1.0)
        with pytest.raises(DomainError):
            analytic.erlang_cdf(-1.0, 1, 1.0)


def draw_well_conditioned_configs(seed, count):
    """Random (P <= 3, m <= 4) configurations for closed-vs-quadrature checks.

    Scale ratios >= 2 and bit error rates >= 1e-6 keep the partial-fraction
    weights small enough that float64 can certify 1e-8 relative agreement;
    outside that regime the representation itself (not either evaluation
    route) loses digits to cancellation.
    """
    rng = np.random.default_rng(seed)
    mods = [mod_params("bpsk"), mod_params("qpsk"), mod_params("qam", 16)]
    produced = 0
    while produced < count:
        P = int(rng.integers(1, 4))
        shapes = rng.integers(1, 5, P)
        omegas = rng.uniform(0.2, 1.0, P)
        mus = np.sort(omegas / shapes)
        if P > 1 and np.min(mus[1:] / mus[:-1]) < 2.0:
            continue
        paths = [PathSpec(m=int(m), omega=float(o), l=i)
                 for i, (m, o) in enumerate(zip(shapes, omegas))]
        mod = mods[produced % 3]
        snr = float(10 ** (rng.uniform(-3.0, 15.0) / 10.0))
        closed = siso_ber(snr, paths, mod)
        if closed < 1e-6:
            continue
        quad = siso_ber_quadrature(snr, paths, mod)
        produced += 1
        yield closed, quad


def convolution_oracle_pdf(shapes, scales, z_grid, h=2e-4):
    """Trapezoid/FFT convolution of Gamma densities on a fine grid."""
    fine = np.arange(0.0, z_grid[-1] + 40.0 * max(scales), h)
    pdfs = []
    for m, mu in zip(shapes, scales):
        p = np.array([analytic.erlang_pdf(float(z), m, mu) for z in fine])
        p[0] *= 0.5  # trapezoid endpoint weight at the origin
        pdfs.append(p)
    acc = pdfs[0]
    for nxt in pdfs[1:]:
        acc = signal.fftconvolve(acc, nxt)[:len(fine)] * h
    return np.interp(z_grid, fine, acc)


class TestXiCoefficients:
    def test_single_path_single_term(self):
        terms = xi_coefficients((2,), (0.5,))
        assert terms == (GammaMixTerm(i=1, k=2, weight=1.0, scale=0.5),)

    def test_two_path_mixture_matches_convolution(self):
        shapes, scales = (1, 2), (1.0, 0.4)
        terms = xi_coefficients(shapes, scales)
        z = np.linspace(0.02, 12.0, 200)
        oracle = convolution_oracle_pdf(shapes, scales, z)
        mix = np.array([analytic.mixture_pdf(float(v), terms) for v in z])
        assert np.max(np.abs(mix - oracle)) < 1e-6

    def test_three_path_mixture_normalizes(self):
        terms = xi_coefficients((1, 2, 3), (1.0, 0.45, 0.21))
        total = specfun.integrate_semi_infinite(
            lambda z: analytic.mixture_pdf(z, terms))
        assert abs(total - 1.0) < 1e-8

    def test_completeness_and_nonnegativity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            P = int(rng.integers(1, 4))
            shapes = tuple(int(m) for m in rng.integers(1, 5, P))
            scales = []
            v = rng.uniform(0.2, 0.8)
            for _ in range(P):
                scales.append(float(v))
                v *= rng.uniform(1.6, 3.0)
            terms = xi_coefficients(shapes, tuple(scales))
            assert abs(math.fsum(t.weight for t in terms) - 1.0) < 1e-9
            grid = np.linspace(1e-3, 30.0, 1000)
            pdf = np.array([analytic.mixture_pdf(float(z), terms) for z in grid])
            assert pdf.min() > -1e-9

    def test_duplicate_scales_rejected(self):
        with pytest.raises(DegenerateScalesError):
            xi_coefficients((1, 2), (0.5, 0.5 * (1 + 1e-12)))

    def test_non_integer_shape_rejected(self):
        with pytest.raises(DomainError):
            xi_coefficients((0,), (1.0,))


class TestSisoBer:
    def test_rayleigh_closed_form(self):
        mod = mod_params("bpsk")
        p = [PathSpec(m=1, omega=1.0)]
        for snr in (1.0, 10.0, 100.0):
            ref = analytic.rayleigh_bpsk_ber(snr)
            assert abs(siso_ber(snr, p, mod) - ref) <= 1e-9 * ref

    def test_matches_quadrature_on_random_configs(self):
        checked = 0
        for closed, quad in draw_well_conditioned_configs(seed=77, count=15):
            assert abs(closed - quad) <= 1e-8 * quad
            checked += 1
        assert checked == 15

    def test_monotone_in_snr(self):
        mod = mod_params("qpsk")
        paths = [PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1)]
        values = [siso_ber(10 ** (d / 10), paths, mod) for d in np.linspace(0, 30, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_snr_scale_mapping(self):
        # mu_i = EsN0 * omega_i / m_i
        scales = analytic.path_snr_scales(8.0, [PathSpec(m=2, omega=0.5)])
        assert scales == (2.0,)


class TestSinrMachinery:
    def test_single_interferer_moments(self):
        g = 7.0
        mu, var = sinr_moments(g, [[PathSpec(m=2, omega=1.0)]])
        assert abs(mu - g) < 1e-14
        assert abs(var - g * g / 2) < 1e-14

    def test_identical_interferers_add_shapes(self):
        g = 4.0
        users = [[PathSpec(m=3, omega=0.2)] for _ in range(4)]
        approx = gamma_approx(*sinr_moments(g, users))
        assert abs(approx.m_z - 12.0) < 1e-12

    def test_mixed_shapes_hand_value(self):
        # two single-path interferers, shapes 1 and 3, equal power
        g = 1.0
        users = [[PathSpec(m=1, omega=1.0)], [PathSpec(m=3, omega=1.0)]]
        approx = gamma_approx(*sinr_moments(g, users))
        assert abs(approx.m_z - 3.0) < 1e-12

    def test_sampled_moments_match(self):
        g = 10.0
        users = [[PathSpec(m=1, omega=0.6)], [PathSpec(m=3, omega=0.4)]]
        mu, var = sinr_moments(g, users)
        rng = make_stream(31, 0)
        flat = [p for u in users for p in u]
        gains = fading.sample_nakagami_gains(flat, rng, 1_000_000)
        S = g * (np.abs(gains) ** 2).sum(axis=1)
        assert abs(float(S.mean()) - mu) < 0.01 * mu
        assert abs(float(S.var()) - var) < 0.01 * var * 3

    def test_moment_round_trip_exact(self):
        approx = gamma_approx(5.0, 12.5)
        assert approx.m_z * approx.omega_z == pytest.approx(5.0, abs=0)
        assert approx.m_z * approx.omega_z ** 2 == pytest.approx(12.5, abs=0)

    def test_no_interference_signals_degeneracy(self):
        with pytest.raises(NoInterferenceSignal):
            gamma_approx(0.0, 0.0)
        mu, var = sinr_moments(3.0, [])
        assert (mu, var) == (0.0, 0.0)


class TestSinrDistribution:
    APPROX = gamma_approx(2.0, 2.0)  # m_z = 2, omega_z = 1

    def test_printed_form_endpoints(self):
        g = 10.0
        assert sinr_cdf(g, g, self.APPROX) == pytest.approx(0.0, abs=1e-15)
        assert sinr_cdf(1e-9 * g, g, self.APPROX) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonincreasing_in_y(self):
        g = 10.0
        ys = np.linspace(0.05, g, 60)
        vals = [sinr_cdf(float(y), g, self.APPROX) for y in ys]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sinr_cdf(0.0, 10.0, self.APPROX)
        with pytest.raises(DomainError):
            sinr_cdf(11.0, 10.0, self.APPROX)

    def test_pdf_integrates_to_complement_of_printed_form(self):
        # the printed distribution form carries the upper-tail probability,
        # so the density integrates to 1 - F_printed from the left and to
        # F_printed from the right
        g = 10.0
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = float(rng.uniform(0.2, 0.95) * g)
            left, _ = _quad(lambda t: sinr_pdf(t, g, self.APPROX), 1e-9, y)
            right, _ = _quad(lambda t: sinr_pdf(t, g, self.APPROX), y, g)
            printed = sinr_cdf(y, g, self.APPROX)
            assert abs(left - (1.0 - printed)) < 1e-8
            assert abs(right - printed) < 1e-8


def _quad(f, a, b):
    from scipy.integrate import quad
    return quad(f, a, b, limit=300)


class TestMultiuserBer:
    def test_kernel_equals_quadrature_grid(self):
        mod = mod_params("qpsk")
        for m_z in (1.0, 2.0, 3.5):
            for snr_db in (0.0, 10.0, 20.0):
                g = 10 ** (snr_db / 10)
                approx = analytic.SinrGammaApprox(mu_S=1, sigma2_S=1,
                                                  m_z=m_z, omega_z=g / 20.0)
                a = multiuser_ber(g, approx, mod, method="kernel")
                b = multiuser_ber(g, approx, mod, method="quadrature")
                assert abs(a - b) <= 1e-8 * max(b, 1e-300)

    def test_reference_anchor_order_of_magnitude(self):
        # two-user preset: one shape-2 interferer at the assumed power;
        # the reported simulated value at 20 dB is 3.87e-7
        mod = mod_params("qpsk")
        approx = gamma_approx(*sinr_moments(100.0, [[PathSpec(m=2, omega=0.015)]]))
        ber = multiuser_ber(100.0, approx, mod)
        assert 3.87e-8 < ber < 3.87e-6

    def test_zero_snr_limit_bounded(self):
        mod = mod_params("qpsk")
        approx = gamma_approx(*sinr_moments(1e-6, [[PathSpec(m=2, omega=1.0)]]))
        ber = multiuser_ber(1e-6, approx, mod)
        assert 0.0 < ber <= 0.5

    def test_monotone_in_snr(self):
        mod = mod_params("qpsk")
        vals = []
        for snr_db in range(0, 21, 2):
            g = 10 ** (snr_db / 10)
            approx = gamma_approx(*sinr_moments(g, [[PathSpec(m=2, omega=0.015)]]))
            vals.append(multiuser_ber(g, approx, mod))
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_paper_form_tracks_exact_in_interference_dominated_regime(self):
        # unit Gaussian-tail constant and overwhelming interference: the bare
        # closed form and the exact integral converge
        mod = mod_params("bpsk")
        g = 1e4
        approx = analytic.SinrGammaApprox(mu_S=2e4, sigma2_S=2e8,
                                          m_z=2.0, omega_z=1e4)
        exact = multiuser_ber(g, approx, mod)
        paper = analytic.multiuser_ber_paper_form(g, approx, mod)
        assert abs(paper - exact) < 0.05 * exact


class TestSemiAnalyticMc:
    def test_zero_interferers_deterministic(self):
        mod = mod_params("qpsk")
        rng = make_stream(40, 0)
        ber, se = semi_analytic_mc_ber(100.0, [], [], mod, rng, 10_000)
        expected = mod.A * specfun.q_function(math.sqrt(2 * mod.B * 100.0)) / 2
        assert ber == pytest.approx(expected, abs=0)
        assert se == 0.0

    def test_sqrt_law_of_standard_error(self):
        mod = mod_params("qpsk")
        users = [[PathSpec(m=2, omega=0.3)]]
        _, se1 = semi_analytic_mc_ber(10.0, [], users, mod, make_stream(41, 0), 40_000)
        _, se2 = semi_analytic_mc_ber(10.0, [], users, mod, make_stream(41, 1), 160_000)
        assert se2 == pytest.approx(se1 / 2, rel=0.15)

    def test_trials_floor(self):
        mod = mod_params("qpsk")
        with pytest.raises(ConfigError):
            semi_analytic_mc_ber(10.0, [], [], mod, make_stream(42, 0), 100)

    def test_matches_closed_form_within_three_se(self):
        mod = mod_params("qpsk")
        users = [[PathSpec(m=2, omega=0.02)], [PathSpec(m=2, omega=0.02)]]
        g = 100.0
        approx = gamma_approx(*sinr_moments(g, users))
        exact = multiuser_ber(g, approx, mod)
        ber, se = semi_analytic_mc_ber(g, [], users, mod, make_stream(43, 0), 300_000)
        assert abs(ber - exact) < 3 * se


def complex_gain_semi_mc(es_n0, interferers, mod, rng, trials):
    """The semi-analytic MC through complex gains, drawn path by path as
    a Gamma power and then a uniform phase."""
    flat = [p for user in interferers for p in user]
    gains = np.empty((trials, len(flat)), dtype=complex)
    for i, spec in enumerate(flat):
        mag = np.sqrt(rng.gamma(spec.m, spec.omega / spec.m, trials))
        gains[:, i] = mag * np.exp(1j * rng.uniform(0.0, 2 * math.pi, trials))
    S = es_n0 * (np.abs(gains) ** 2).sum(axis=1)
    snr = es_n0 / (1.0 + S)
    cond = mod.A * 0.5 * special.erfc(np.sqrt(mod.B * snr)) / mod.bits_per_symbol
    return float(np.mean(cond)), float(np.std(cond, ddof=1) / math.sqrt(trials))


def figure_interferer_sets():
    """Interferer sets of the figure 3 and 4 presets, plus a mixed-shape one."""
    sets = [cfg.interferers for number in (3, 4)
            for cfg, _ in cli.figure_config(number, None, None, None, 1)
            if cfg.interferers]
    sets.append(((PathSpec(m=3, omega=0.01), PathSpec(m=1, omega=0.004, l=1)),
                 (PathSpec(m=2, omega=0.006),)))
    return sets


class TestSemiAnalyticMcPowerDraw:
    """The power draw gives the complex-gain route's BER and standard error."""

    @pytest.mark.parametrize("users", figure_interferer_sets())
    @pytest.mark.parametrize("es_n0", [1.0, 10.0, 100.0, 1000.0])
    def test_matches_complex_gain_route(self, users, es_n0):
        mod = mod_params("qpsk")
        for seed in range(3):
            ber, se = semi_analytic_mc_ber(es_n0, [], users, mod,
                                           make_stream(44, seed), 10_000)
            ref_ber, ref_se = complex_gain_semi_mc(es_n0, users, mod,
                                                   make_stream(44, seed), 10_000)
            assert ber == pytest.approx(ref_ber, rel=1e-12, abs=0)
            assert se == pytest.approx(ref_se, rel=1e-12, abs=0)

    def test_leaves_the_stream_where_the_gain_draw_does(self):
        mod = mod_params("qpsk")
        users = figure_interferer_sets()[-1]
        a, b = make_stream(45, 0), make_stream(45, 0)
        semi_analytic_mc_ber(10.0, [], users, mod, a, 10_000)
        fading.sample_nakagami_gains([p for u in users for p in u], b, 10_000)
        assert np.array_equal(a.random(8), b.random(8))
