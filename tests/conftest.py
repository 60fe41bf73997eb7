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


def gamma_erfc_average(x, m_z, b=1.0, shift=0.0, depth=60):
    """mpmath value of E_W[erfc(sqrt(b x / (shift + W)))], W ~ Gamma(m_z, 1).

    In u = ln W the integrand is erfc(sqrt(z)) w^m_z e^-w / Gamma(m_z) with
    w = e^u and z = b x / (shift + w).  Its log is taken at 20 digits and
    the integrand is divided by its value at the peak, so that the stopping
    rule below is a relative one: a value of 1e-277 keeps its digits.  The
    log integrand rises to one peak and falls after it; a golden-section
    search finds the peak and bisection the points `depth` nats below it on
    either side.  Between them a trapezoid rule on nodes peak + i h, so that
    the peak is always a node, halves h until two rules agree to 1e-8: the
    integrand is analytic and decays at both ends, so the error of the rule
    falls like exp(-c/h) and squares with each halving, and the last rule
    is good to far below that.
    """
    with mp.workdps(20):
        x, m, b, s = (mp.mpf(v) for v in (x, m_z, b, shift))
        ln_gm = mp.loggamma(m)

        def log_f(u):
            w = mp.exp(u)
            return mp.log(mp.erfc(mp.sqrt(b * x / (s + w)))) + m * u - w - ln_gm

        lo, hi = mp.log(m) - 2 - 70 / m, mp.log(8 * (m + mp.sqrt(b * x)) + 200)
        r = (mp.sqrt(5) - 1) / 2
        u1, u2 = hi - r * (hi - lo), lo + r * (hi - lo)
        f1, f2 = log_f(u1), log_f(u2)
        a, c = lo, hi
        while c - a > 1e-4:
            if f1 < f2:
                a, u1, f1 = u1, u2, f2
                u2 = a + r * (c - a)
                f2 = log_f(u2)
            else:
                c, u2, f2 = u2, u1, f1
                u1 = c - r * (c - a)
                f1 = log_f(u1)
        peak = (a + c) / 2
        top = log_f(peak)

        def edge(inside, outside):
            for _ in range(24):
                mid = (inside + outside) / 2
                if log_f(mid) > top - depth:
                    inside = mid
                else:
                    outside = mid
            return outside

        a, c = edge(peak, lo), edge(peak, hi)

        def rule_sum(h, step):
            nodes = range(-int((peak - a) / h), int((c - peak) / h) + 1)
            return h * mp.fsum(mp.exp(log_f(peak + i * h) - top)
                               for i in nodes if i % step == step - 1)

        h = (c - a) / 16
        total = rule_sum(h, 1)
        while True:
            h /= 2
            # the old nodes are the even ones of the halved step
            refined = total / 2 + rule_sum(h, 2)
            if abs(refined - total) <= 1e-8 * refined:
                return float(mp.exp(top) * refined)
            total = refined


@pytest.fixture
def craig_oracle():
    return craig_ber


@pytest.fixture
def gamma_average_oracle():
    return gamma_erfc_average
