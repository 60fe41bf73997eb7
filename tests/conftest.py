"""Shared test oracles."""

import mpmath as mp
import pytest


def craig_ber(es_n0, paths, mod, pieces=16, grading=12):
    """mpmath value of the MGF (Craig) form of the single-user BER,

        (A/pi) int_0^{pi/2} prod_p (1 + B mu_p / sin^2 t)^{-m_p} dt / log2 M,

    with mu_p = es_n0 * omega_p / m_p, by adaptive Gauss-Legendre at 20
    digits on `pieces` equal subintervals of [0, pi/2], the first of them
    split again at `grading` points halving towards 0, where the integrand
    goes like t^(2 sum m).  A low-SNR layer, near t = sqrt(B Es/N0), that
    lies below (pi/2) / pieces / 2^grading needs a larger grading.

    The integrand is divided by its value at pi/2, where it peaks, so that
    mp.quad's absolute tolerance acts as a relative one.  Unscaled, a tiny
    BER meets that tolerance at the lowest degree however wrong it is: one
    path of m = 100 at 40 dB (QPSK, BER 5e-173) came back 5e-11 off.
    """
    with mp.workdps(20):
        terms = [(mp.mpf(mod.B) * es_n0 * p.omega / p.m, mp.mpf(p.m)) for p in paths]

        def scaled(t):
            s2 = mp.sin(t) ** 2
            return mp.fprod(((1 + c) * s2 / (s2 + c)) ** m for c, m in terms)

        edges = mp.linspace(0, mp.pi / 2, pieces + 1)
        edges[1:1] = [edges[1] / 2 ** j for j in range(grading, 0, -1)]
        value = mp.quad(scaled, edges, method="gauss-legendre")
        peak = mp.fprod((1 + c) ** -m for c, m in terms)
        return float(mod.A * value * peak / mp.pi / mod.bits_per_symbol)


@pytest.fixture
def craig_oracle():
    return craig_ber
