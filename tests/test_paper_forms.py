"""The paper's printed forms (paper_forms.py) against the library routes
that must agree with them: a reproduction check of its derivations."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import paper_forms
from otfslab import analytic, cli, specfun
from otfslab.analytic import SinrGammaApprox, mod_params
from otfslab.fading import PathSpec

# integer shapes with distinct path SNR scales, the mixture's domain
MIXTURE_CASES = {
    "one-path-m3": ((3,), (1.0,), ("bpsk", None)),
    "fig2-m12": ((1, 2), cli.FIG2_OMEGAS, ("qpsk", None)),
    "fig2-m23": ((2, 3), cli.FIG2_OMEGAS, ("qpsk", None)),
    "table3-p2m12": ((1, 2), cli.TABLE3_P2_OMEGAS, ("qpsk", None)),
    "three-path": ((1, 2, 3), (4 / 7, 2 / 7, 1 / 7), ("qam", 16)),
}


class TestErlangMixture:
    @pytest.mark.parametrize("case", list(MIXTURE_CASES))
    def test_ber_matches_siso_ber(self, case):
        shapes, powers, mod = MIXTURE_CASES[case]
        mod = mod_params(*mod)
        paths = tuple(PathSpec(m=m, omega=w, l=i)
                      for i, (m, w) in enumerate(zip(shapes, powers)))
        for snr_db in range(0, 21):
            es_n0 = 10 ** (snr_db / 10)
            # the weights sum to the transform at s = 0, which is 1
            terms = paper_forms.xi_terms(shapes, analytic.path_snr_scales(es_n0, paths))
            assert math.fsum(w for w, _, _ in terms) == pytest.approx(1.0, abs=1e-12)
            ref = analytic.siso_ber(es_n0, paths, mod)
            got = paper_forms.mixture_ber(es_n0, paths, mod)
            assert abs(got - ref) <= 1e-9 * ref, (snr_db, got, ref)


class TestMeijerG:
    def test_series_and_quadrature_agree_on_grid(self):
        xs = np.logspace(-2, 0.9, 10)
        mzs = (0.8, 1.0, 1.2, 1.7, 2.0, 2.2, 2.8, 3.0, 3.3, 4.1)
        for m_z in mzs:
            for x in xs:
                q = specfun.erfc_gamma_average(float(x), m_z)
                s = paper_forms.meijer_g(float(x), m_z)
                assert abs(q - s) <= 1e-6 * abs(q)

    def test_paper_form_tracks_exact_in_interference_dominated_regime(self):
        # unit Gaussian-tail constant and overwhelming interference: the bare
        # closed form and the exact integral converge
        mod = mod_params("bpsk")
        g, m_z, omega_z = 1e4, 2.0, 1e4
        exact = analytic.multiuser_ber(g, SinrGammaApprox(m_z=m_z, omega_z=omega_z), mod)
        paper = paper_forms.meijer_ber(g, m_z, omega_z, mod)
        assert abs(paper - exact) < 0.05 * exact


class TestSinrDistribution:
    @pytest.mark.parametrize("m_z,omega_z", [(0.3, 1.0), (2.0, 1.0), (7.5, 0.2),
                                             (40.0, 3.0)])
    def test_printed_form_is_the_upper_tail_of_the_sinr(self, m_z, omega_z):
        # F(y) = P(SINR >= y) = P(S <= (Es/N0)/y - 1), S ~ Gamma(m_z, omega_z):
        # 1 as y -> 0, 0 at y = Es/N0
        g = 10.0
        for y in (1e-9 * g, 1e-3, 0.5, 2.0, 9.99, g):
            ref = stats.gamma.cdf(g / y - 1.0, m_z, scale=omega_z)
            got = paper_forms.sinr_cdf(y, g, m_z, omega_z)
            assert abs(got - ref) <= 1e-12 * ref + 1e-300, (y, got, ref)

    def test_pdf_integrates_to_complement_of_printed_form(self):
        # the printed distribution form carries the upper-tail probability,
        # so the density integrates to 1 - F_printed from the left and to
        # F_printed from the right
        g, m_z, omega_z = 10.0, 2.0, 1.0
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = float(rng.uniform(0.2, 0.95) * g)
            left, _ = integrate.quad(paper_forms.sinr_pdf, 1e-9, y,
                                     args=(g, m_z, omega_z), limit=300)
            right, _ = integrate.quad(paper_forms.sinr_pdf, y, g,
                                      args=(g, m_z, omega_z), limit=300)
            printed = paper_forms.sinr_cdf(y, g, m_z, omega_z)
            assert abs(left - (1.0 - printed)) < 1e-8
            assert abs(right - printed) < 1e-8


class TestDiversityApproximation:
    @pytest.mark.parametrize("k_u,shapes,expected", [
        (2, (1,), 2.0), (2, (2,), 4.0), (2, (2, 3), 2 * (2 + math.log2(3) / 2))])
    def test_simo(self, k_u, shapes, expected):
        assert paper_forms.simo_gd_approx(k_u, shapes) == pytest.approx(expected, rel=1e-12)
