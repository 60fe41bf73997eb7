"""Closed-form error-rate machinery against independent numerical oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

import paper_forms
from otfslab import analytic, cli, fading, specfun
from otfslab.analytic import (MAX_TOTAL_SHAPE, gamma_approx, mod_params,
                              multiuser_ber, semi_analytic_mc_ber, sinr_moments,
                              siso_ber)
from otfslab.errors import ConfigError, DomainError, NumericError
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

    def test_two_psk_is_bpsk_but_two_depsk_doubles(self):
        # one neighbour per point; differential encoding doubles the SER
        for scheme in ("psk", "m-psk", "mpsk"):
            assert mod_params(scheme, 2) == mod_params("bpsk")
        assert (mod_params("depsk", 2).A, mod_params("depsk", 2).B) == (2.0, 1.0)

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


def _quad(f, a, b):
    return integrate.quad(f, a, b, limit=300)


class TestErlang:
    """The Erlang densities of the paper's mixture (paper_forms.erlang_pdf)."""

    def test_exponential_density_at_zero(self):
        assert abs(paper_forms.erlang_pdf(0.0, 1, 0.25) - 4.0) < 1e-14

    def test_pdf_integrates_to_one(self):
        for k, mu in ((1, 0.5), (2, 1.3), (4, 0.2)):
            total, _ = _quad(lambda z, k=k, mu=mu: paper_forms.erlang_pdf(z, k, mu),
                             0.0, math.inf)
            assert abs(total - 1.0) < 1e-10


class TestXiCoefficients:
    """The Erlang mixture of a sum of Gamma path SNRs (paper_forms.xi_terms)."""

    def test_single_path_single_term(self):
        # the lower orders of the one pole carry weight exactly 0
        terms = paper_forms.xi_terms((2,), (0.5,))
        assert [t for t in terms if t[0] != 0.0] == [(1.0, 2, 0.5)]

    def test_three_path_mixture_normalizes(self):
        terms = paper_forms.xi_terms((1, 2, 3), (1.0, 0.45, 0.21))
        total, _ = _quad(lambda z: paper_forms.mixture_pdf(z, terms), 0.0, math.inf)
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
            terms = paper_forms.xi_terms(shapes, scales)
            assert abs(math.fsum(w for w, _, _ in terms) - 1.0) < 1e-9
            grid = np.linspace(1e-3, 30.0, 1000)
            pdf = np.array([paper_forms.mixture_pdf(float(z), terms) for z in grid])
            assert pdf.min() > -1e-9


ORACLE_MODS = (mod_params("bpsk"), mod_params("qpsk"), mod_params("qam", 16))
ORACLE_SHAPES = (0.5, 1, 1.5, 3.7, 6)
# equal powers, a 1% gap, and the paper's 2/3-1/3 split (halving again for P = 3)
ORACLE_POWERS = {1: ((1.0,),),
                 2: ((1.0, 1.0), (1.0, 0.99), (2.0, 1.0)),
                 3: ((1.0, 1.0, 1.0), (1.0, 0.99, 0.98), (4.0, 2.0, 1.0))}
ORACLE_MIXED = (((1, 2), (2.0, 1.0)), ((0.5, 4), (1.0, 1.0)),
                ((1.5, 2.5), (1.0, 0.99)), ((1, 2, 3), (4.0, 2.0, 1.0)))


def oracle_domain():
    """(paths, mod) over P in {1, 2, 3}: every shape of ORACLE_SHAPES on all
    paths under every power split, then mixed shapes; the modulation cycles."""
    configs = [((m,) * P, w) for P, splits in ORACLE_POWERS.items()
               for w in splits for m in ORACLE_SHAPES] + list(ORACLE_MIXED)
    out = []
    for i, (shapes, w) in enumerate(configs):
        paths = tuple(PathSpec(m=m, omega=wi / sum(w), l=p)
                      for p, (m, wi) in enumerate(zip(shapes, w)))
        out.append((paths, ORACLE_MODS[i % 3]))
    return out


class TestSisoBer:
    def test_rayleigh_closed_form(self):
        mod = mod_params("bpsk")
        p = [PathSpec(m=1, omega=1.0)]
        for snr in (1.0, 10.0, 100.0):
            ref = analytic.rayleigh_bpsk_ber(snr)
            assert abs(siso_ber(snr, p, mod) - ref) <= 1e-9 * ref

    def test_matches_craig_oracle_over_the_domain(self, craig_oracle):
        for paths, mod in oracle_domain():
            for snr_db in (0.0, 20.0, 40.0):
                es_n0 = 10 ** (snr_db / 10)
                ref = craig_oracle(es_n0, paths, mod)
                got = siso_ber(es_n0, paths, mod)
                assert abs(got - ref) <= 1e-12 * ref, (paths, mod, snr_db, got, ref)

    @pytest.mark.parametrize("shapes,powers,mod,snr_db", [
        ((0.61,), (1.0,), ("qpsk", None), 20.6),
        ((0.53,), (1.0,), ("psk", 8), 25.8),
        ((0.75, 0.9), (0.6, 0.4), ("qpsk", None), 30.0),
        ((0.91,), (1.0,), ("qpsk", None), -5.0),
        ((0.7, 0.7, 0.7), (0.5, 0.3, 0.2), ("qam", 256), -10.0),
        ((3.3, 49.0), (0.9, 0.1), ("qam", 16), -13.0),
        ((100.0, 100.0), (0.5, 0.5), ("qam", 64), -20.0),
        ((0.5,), (1.0,), ("bpsk", None), -150.0),
    ])
    def test_matches_craig_oracle_at_hard_ends(self, craig_oracle, shapes, powers,
                                               mod, snr_db):
        # a theta^(2 sum m) end with 2 sum m not an integer, or a low-SNR
        # layer near theta = 0, where a 64-node Gauss-Legendre rule in theta
        # is off by up to 1e-5; at -150 dB the integrand in ln cot(theta)
        # stays near 1 / (2 cosh s) out to s = 17
        mod = mod_params(*mod)
        paths = [PathSpec(m=m, omega=w, l=i) for i, (m, w) in enumerate(zip(shapes, powers))]
        es_n0 = 10 ** (snr_db / 10)
        ref = craig_oracle(es_n0, paths, mod)
        assert abs(siso_ber(es_n0, paths, mod) - ref) <= 1e-12 * ref

    def test_largest_total_shape_matches_oracle(self, craig_oracle):
        mod = mod_params("qpsk")
        half = MAX_TOTAL_SHAPE / 2
        for paths in ((PathSpec(m=MAX_TOTAL_SHAPE, omega=1.0),),
                      (PathSpec(m=half, omega=2 / 3), PathSpec(m=half, omega=1 / 3, l=1))):
            for snr_db in (0.0, 10.0, 20.0, 30.0):
                es_n0 = 10 ** (snr_db / 10)
                ref = craig_oracle(es_n0, paths, mod)
                assert abs(siso_ber(es_n0, paths, mod) - ref) <= 1e-12 * ref

    def test_total_shape_beyond_the_bound_raises(self):
        mod = mod_params("qpsk")
        for paths in ((PathSpec(m=MAX_TOTAL_SHAPE + 0.5, omega=1.0),),
                      (PathSpec(m=MAX_TOTAL_SHAPE / 2, omega=0.5),
                       PathSpec(m=MAX_TOTAL_SHAPE / 2 + 1, omega=0.5, l=1))):
            with pytest.raises(DomainError):
                siso_ber(10.0, paths, mod)

    def test_underflow_raises_instead_of_returning_zero(self):
        # (1 + 0.5 * 1e6 / 512)^-512 is below 1e-1500
        with pytest.raises(NumericError):
            siso_ber(1e6, [PathSpec(m=MAX_TOTAL_SHAPE, omega=1.0)], mod_params("qpsk"))

    def test_no_paths_rejected(self):
        with pytest.raises(ConfigError):
            siso_ber(10.0, [], mod_params("qpsk"))

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
        with pytest.raises(DomainError):
            gamma_approx(0.0, 0.0)
        mu, var = sinr_moments(3.0, [])
        assert (mu, var) == (0.0, 0.0)


class TestSinrDistribution:
    """The printed SINR distribution F(y) (paper_forms.sinr_cdf)."""

    M_Z, OMEGA_Z = 2.0, 1.0

    def test_printed_form_endpoints(self):
        g = 10.0
        assert paper_forms.sinr_cdf(g, g, self.M_Z, self.OMEGA_Z) == \
            pytest.approx(0.0, abs=1e-15)
        assert paper_forms.sinr_cdf(1e-9 * g, g, self.M_Z, self.OMEGA_Z) == \
            pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonincreasing_in_y(self):
        g = 10.0
        ys = np.linspace(0.05, g, 60)
        vals = [paper_forms.sinr_cdf(float(y), g, self.M_Z, self.OMEGA_Z) for y in ys]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestMultiuserBer:
    def test_kernel_equals_quadrature_grid(self):
        # direct quadrature of (A/2) E_S[erfc(sqrt(B g / (1 + S)))] over the
        # Gamma(m_z, omega_z) density of S
        mod = mod_params("qpsk")
        for m_z in (1.0, 2.0, 3.5):
            for snr_db in (0.0, 10.0, 20.0):
                g = 10 ** (snr_db / 10)
                approx = analytic.SinrGammaApprox(m_z=m_z, omega_z=g / 20.0)

                def integrand(s):
                    return special.erfc(math.sqrt(mod.B * g / (1.0 + s))) \
                        * stats.gamma.pdf(s, m_z, scale=approx.omega_z)

                ser, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0,
                                        epsrel=1e-12, limit=200)
                b = 0.5 * mod.A * ser / mod.bits_per_symbol
                a = multiuser_ber(g, approx, mod)
                assert abs(a - b) <= 1e-8 * max(b, 1e-300)

    @pytest.mark.parametrize("scheme,order", [("bpsk", 2), ("qpsk", 4), ("qam", 16)])
    def test_matches_oracle(self, gamma_average_oracle, scheme, order):
        # SER = (A/2) E_W[erfc(sqrt(B x / (1/omega_z + W)))], x = Es/N0 / omega_z
        mod = mod_params(scheme, order)
        for users in ([[PathSpec(m=2, omega=0.015)]],
                      [[PathSpec(m=1, omega=1.0)], [PathSpec(m=3, omega=0.05)]],
                      [[PathSpec(m=0.5, omega=0.3), PathSpec(m=4, omega=0.2)]]):
            for snr_db in (0.0, 10.0, 20.0, 30.0):
                g = 10 ** (snr_db / 10)
                approx = gamma_approx(*sinr_moments(g, users))
                ref = 0.5 * mod.A * gamma_average_oracle(
                    g / approx.omega_z, approx.m_z, mod.B, 1.0 / approx.omega_z) \
                    / mod.bits_per_symbol
                got = multiuser_ber(g, approx, mod)
                assert abs(got - ref) <= 1e-9 * ref, (users, snr_db, got, ref)

    def test_weak_interferer_matches_oracle(self, gamma_average_oracle):
        # one m = 2 interferer of power 0.001 at 20 dB, QPSK: m_z = 2,
        # x = 2000, shift = 20; the earlier absolute-tolerance kernel read
        # 7.854483e-19, 25% low
        mod = mod_params("qpsk")
        approx = gamma_approx(*sinr_moments(100.0, [[PathSpec(m=2, omega=0.001)]]))
        ref = 0.5 * gamma_average_oracle(100.0 / approx.omega_z, approx.m_z, 0.5,
                                         1.0 / approx.omega_z)
        got = multiuser_ber(100.0, approx, mod)
        assert abs(got - ref) <= 1e-9 * ref
        assert f"{got:.6e}" == "1.044289e-18"

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

    def test_raises_instead_of_clamping(self, monkeypatch):
        mod = mod_params("qpsk")
        approx = gamma_approx(*sinr_moments(10.0, [[PathSpec(m=2, omega=0.1)]]))
        for kernel in (1.01, -1e-3):
            monkeypatch.setattr(specfun, "erfc_gamma_average",
                                lambda *a, kernel=kernel, **k: kernel)
            with pytest.raises(NumericError):
                multiuser_ber(10.0, approx, mod)
        # an overshoot inside the quadrature tolerance is the bound A/2
        monkeypatch.setattr(specfun, "erfc_gamma_average",
                            lambda *a, **k: 1.0 + 1e-12)
        assert multiuser_ber(10.0, approx, mod) == 0.5 * mod.A / mod.bits_per_symbol


class TestSemiAnalyticMc:
    def test_zero_interferers_deterministic(self):
        mod = mod_params("qpsk")
        rng = make_stream(40, 0)
        ber, se = semi_analytic_mc_ber(100.0, [], mod, rng, 10_000)
        expected = mod.A * specfun.q_function(math.sqrt(2 * mod.B * 100.0)) / 2
        assert ber == pytest.approx(expected, abs=0)
        assert se == 0.0

    def test_sqrt_law_of_standard_error(self):
        mod = mod_params("qpsk")
        users = [[PathSpec(m=2, omega=0.3)]]
        _, se1 = semi_analytic_mc_ber(10.0, users, mod, make_stream(41, 0), 40_000)
        _, se2 = semi_analytic_mc_ber(10.0, users, mod, make_stream(41, 1), 160_000)
        assert se2 == pytest.approx(se1 / 2, rel=0.15)

    def test_trials_floor(self):
        mod = mod_params("qpsk")
        with pytest.raises(ConfigError):
            semi_analytic_mc_ber(10.0, [], mod, make_stream(42, 0), 100)

    def test_matches_closed_form_within_three_se(self):
        mod = mod_params("qpsk")
        users = [[PathSpec(m=2, omega=0.02)], [PathSpec(m=2, omega=0.02)]]
        g = 100.0
        approx = gamma_approx(*sinr_moments(g, users))
        exact = multiuser_ber(g, approx, mod)
        ber, se = semi_analytic_mc_ber(g, users, mod, make_stream(43, 0), 300_000)
        assert abs(ber - exact) < 3 * se


class TestSemiAnalyticMcMoments:
    """The moments are np.mean's and np.std's, formed in the drawn array."""

    # not a multiple of fading._POWER_CHUNK, so the last chunk is partial
    TRIALS = 200_003
    USERS = {
        "one-path": [[PathSpec(m=2, omega=0.02)]],
        "three-path": [[PathSpec(m=1, omega=0.01), PathSpec(m=2, omega=0.005, l=1)],
                       [PathSpec(m=0.7, omega=0.002, k=1)]],
    }

    @pytest.mark.parametrize("name", sorted(USERS))
    @pytest.mark.parametrize("es_n0", [1.0, 100.0])
    def test_equals_numpy_mean_and_std(self, name, es_n0):
        users, trials = self.USERS[name], self.TRIALS
        mod = mod_params("qpsk")
        ber, se = semi_analytic_mc_ber(es_n0, users, mod, make_stream(46, 0), trials)
        u = fading.sample_total_power([p for user in users for p in user],
                                      make_stream(46, 0), trials)
        u = special.erfc(np.sqrt(mod.B * (es_n0 / (1.0 + es_n0 * u))))
        scale = 0.5 * mod.A / mod.bits_per_symbol
        assert ber == scale * float(np.mean(u))
        assert se == scale * float(np.std(u, ddof=1)) / math.sqrt(trials)

    @pytest.mark.parametrize("name", sorted(USERS))
    def test_holds_one_array_of_trials(self, name):
        # the draw's array plus one chunk; np.std's temporary would add a
        # second array of trials
        users, trials = self.USERS[name], self.TRIALS
        mod = mod_params("qpsk")
        tracemalloc.start()
        try:
            semi_analytic_mc_ber(10.0, users, mod, make_stream(47, 0), trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * trials


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
            ber, se = semi_analytic_mc_ber(es_n0, users, mod,
                                           make_stream(44, seed), 10_000)
            ref_ber, ref_se = complex_gain_semi_mc(es_n0, users, mod,
                                                   make_stream(44, seed), 10_000)
            assert ber == pytest.approx(ref_ber, rel=1e-12, abs=0)
            assert se == pytest.approx(ref_se, rel=1e-12, abs=0)

    def test_leaves_the_stream_where_the_gain_draw_does(self):
        mod = mod_params("qpsk")
        users = figure_interferer_sets()[-1]
        a, b = make_stream(45, 0), make_stream(45, 0)
        semi_analytic_mc_ber(10.0, users, mod, a, 10_000)
        fading.sample_nakagami_gains([p for u in users for p in u], b, 10_000)
        assert np.array_equal(a.random(8), b.random(8))
