"""Closed-form error-rate engine.

Single-user path: squared Nakagami-m gains are Erlang variates; the sum over
paths has a finite Gamma-mixture density whose weights come from the partial
fraction expansion of the product of the component Laplace transforms.  The
average symbol error rate then reduces to elementary terms (the C and D
integrals), and bit error rate follows by dividing by bits per symbol.

Multi-user path: aggregate interference power is moment-matched to a Gamma
variate; the SINR tail statistics feed the single-integral SER representation
evaluated in specfun.  Every closed form here has an independent quadrature
route so the two can be cross-checked at tight tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import (ConfigError, DegenerateScalesError, DomainError,
                     NoInterferenceSignal)
from .fading import PathSpec, sample_total_power
# not called here, but kept: traced benchmark runs wrap analytic.sample_nakagami_gains
from .fading import sample_nakagami_gains  # noqa: F401

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Modulation error constants: P_s(g) ~ A * Q(sqrt(2 * B * g))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModErrorParams:
    A: float
    B: float
    order: int

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))


def mod_params(scheme: str, order: int | None = None) -> ModErrorParams:
    """Gaussian-tail SER constants (A, B) for the supported constellations."""
    scheme = scheme.lower()
    fixed = {
        "bpsk": (2, 1.0, 1.0),
        "bfsk": (2, 1.0, 0.5),
        "gmsk": (2, 1.0, 1.0),
        "qpsk": (4, 2.0, 0.5),
        "dbpsk": (2, 2.0, 0.5),
    }
    if scheme in fixed:
        m0, A, B = fixed[scheme]
        if order is not None and order != m0:
            raise ConfigError(f"{scheme} has order {m0}, got {order}")
        return ModErrorParams(A=A, B=B, order=m0)
    if order is None or order < 2 or 2 ** int(math.log2(order)) != order:
        raise ConfigError(f"scheme {scheme!r} needs a power-of-two order, got {order}")
    if scheme in ("psk", "m-psk", "mpsk", "depsk", "m-depsk"):
        return ModErrorParams(A=2.0, B=math.sin(math.pi / order) ** 2, order=order)
    if scheme in ("dpsk", "m-dpsk"):
        return ModErrorParams(A=2.0, B=math.sin(math.pi / (2 * order)) ** 2, order=order)
    if scheme in ("fsk", "m-fsk"):
        if order <= 2:
            raise ConfigError("coherent orthogonal M-FSK needs order > 2")
        return ModErrorParams(A=float(order - 1), B=0.5, order=order)
    if scheme in ("qam", "m-qam", "square-qam"):
        if order < 4 or int(round(math.sqrt(order))) ** 2 != order:
            raise ConfigError(f"square M-QAM needs a square order >= 4, got {order}")
        return ModErrorParams(A=4.0 * (1.0 - 1.0 / math.sqrt(order)),
                              B=1.5 / (order - 1), order=order)
    if scheme in ("pam", "m-pam"):
        return ModErrorParams(A=2.0 * (order - 1) / order, B=3.0 / (order ** 2 - 1),
                              order=order)
    raise ConfigError(f"no error constants tabulated for scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Erlang building blocks
# ---------------------------------------------------------------------------

def erlang_pdf(z: float, m: int, mu: float) -> float:
    """Gamma density with integer shape m and scale mu."""
    _check_erlang_args(m, mu)
    if z < 0:
        raise DomainError(f"density argument must be >= 0, got {z}")
    if z == 0.0:
        return 1.0 / mu if m == 1 else 0.0
    return math.exp((m - 1) * math.log(z) - z / mu
                    - m * math.log(mu) - math.lgamma(m))


def erlang_cdf(z: float, m: int, mu: float) -> float:
    """Erlang CDF as the finite sum 1 - e^{-z/mu} sum_{l<m} (z/mu)^l / l!."""
    _check_erlang_args(m, mu)
    if z < 0:
        raise DomainError(f"CDF argument must be >= 0, got {z}")
    r = z / mu
    acc = math.fsum(math.exp(-r + l * math.log(r) - math.lgamma(l + 1))
                    for l in range(1, m)) if r > 0 else 0.0
    return max(0.0, min(1.0, 1.0 - math.exp(-r) - acc))


def _check_erlang_args(m, mu):
    if int(m) != m or m < 1:
        raise DomainError(f"Erlang shape must be a positive integer, got {m}")
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"Erlang scale must be finite and positive, got {mu}")


# ---------------------------------------------------------------------------
# Partial-fraction mixture for sums of independent Gamma variates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaMixTerm:
    """One component of the finite Gamma mixture: weight * Erlang(k, scale)."""

    i: int        # originating path index (1-based)
    k: int        # component shape
    weight: float
    scale: float


MIN_SCALE_GAP = 1e-9


def xi_coefficients(shapes, scales) -> tuple:
    """Mixture terms so that sum_i,k w * erlang_pdf(z; k, mu_i) is the density
    of sum_q Gamma(m_q, mu_q) with pairwise distinct scales.

    The weights are the principal-part coefficients of the product Laplace
    transform prod_q (1 + mu_q s)^{-m_q} at each pole, generated by the
    power-sum recursion; their total is exactly 1 (value of the transform at
    s = 0).  Scales closer than MIN_SCALE_GAP in relative terms are rejected
    because the expansion divides by scale differences.
    """
    shapes = tuple(int(m) for m in shapes)
    scales = tuple(float(mu) for mu in scales)
    if len(shapes) != len(scales) or not shapes:
        raise ConfigError("shapes and scales must be equal-length and non-empty")
    for m in shapes:
        if m < 1:
            raise DomainError(f"shapes must be positive integers, got {m}")
    for mu in scales:
        if not (math.isfinite(mu) and mu > 0):
            raise DomainError(f"scales must be finite and positive, got {mu}")
    P = len(shapes)
    if P == 1:
        return (GammaMixTerm(i=1, k=shapes[0], weight=1.0, scale=scales[0]),)
    for a in range(P):
        for b in range(a + 1, P):
            gap = abs(scales[a] - scales[b]) / max(scales[a], scales[b])
            if gap <= MIN_SCALE_GAP:
                raise DegenerateScalesError(
                    f"scales {scales[a]} and {scales[b]} coincide to within "
                    f"relative gap {MIN_SCALE_GAP}; the partial-fraction "
                    f"expansion requires pairwise distinct scales")
    return _xi_terms_cached(shapes, scales)


@lru_cache(maxsize=256)
def _xi_terms_cached(shapes: tuple, scales: tuple) -> tuple:
    P = len(shapes)
    terms = []
    for i in range(P):
        mi, mui = shapes[i], scales[i]
        others = [(shapes[q], scales[q]) for q in range(P) if q != i]
        # leading coefficient prod_{q != i} (mu_i / (mu_i - mu_q))^{m_q},
        # accumulated in the log domain to survive large shape totals
        log_mag = 0.0
        sign = 1.0
        for mq, muq in others:
            ratio = mui / (mui - muq)
            log_mag += mq * math.log(abs(ratio))
            if ratio < 0 and mq % 2 == 1:
                sign = -sign
        g0 = sign * math.exp(log_mag)
        # Taylor coefficients of prod_{q != i} (1 + b_q u)^{-m_q} about u = 0
        # via the power-sum recursion  n c_n = sum_j e_j c_{n-j}
        nmax = mi - 1
        e = [0.0] * (nmax + 1)
        for j in range(1, nmax + 1):
            e[j] = math.fsum(mq * (muq / (muq - mui)) ** j for mq, muq in others)
        c = [1.0] + [0.0] * nmax
        for n in range(1, nmax + 1):
            c[n] = math.fsum(e[j] * c[n - j] for j in range(1, n + 1)) / n
        for n in range(nmax + 1):
            terms.append(GammaMixTerm(i=i + 1, k=mi - n, weight=g0 * c[n], scale=mui))
    return tuple(terms)


def mixture_pdf(z: float, terms) -> float:
    return math.fsum(t.weight * erlang_pdf(z, t.k, t.scale) for t in terms)


def mixture_cdf(z: float, terms) -> float:
    # regularized-gamma evaluation keeps each component relatively accurate
    # even far in the lower tail, where the finite-sum form cancels badly
    if z <= 0:
        return 0.0
    return math.fsum(t.weight * specfun.reg_lower_incomplete_gamma(t.k, z / t.scale)
                     for t in terms)


# ---------------------------------------------------------------------------
# Single-user BER
# ---------------------------------------------------------------------------

def path_snr_scales(es_n0: float, paths) -> tuple:
    """Per-path Gamma scales mu_i = (Es/N0) * Omega_i / m_i of the SNR sum."""
    if not (math.isfinite(es_n0) and es_n0 > 0):
        raise DomainError(f"Es/N0 must be finite and positive, got {es_n0}")
    return tuple(es_n0 * p.omega / p.m for p in paths)


def _erlang_ser(k: int, mu: float, A: float, B: float) -> float:
    """Average SER when the combined SNR is Erlang(k, mu).

    Closed form assembled from the C and D integrals:
        (A/2) * [1 - sqrt(Bmu/(1+Bmu)) * sum_{l<k} C(2l,l)/4^l (1+Bmu)^-l].
    """
    r = B * mu / (1.0 + B * mu)
    acc = 0.0
    coeff = 1.0
    for l in range(k):
        if l > 0:
            # C(2l, l)/4^l = prod (2j-1)/(2j)
            coeff *= (2 * l - 1) / (2.0 * l)
        acc += coeff * (1.0 + B * mu) ** (-l)
    return 0.5 * A * (1.0 - math.sqrt(r) * acc)


def siso_ber(es_n0: float, paths, mod: ModErrorParams) -> float:
    """Closed-form average BER of the single-user link over summed path SNRs."""
    mus = path_snr_scales(es_n0, paths)
    shapes = tuple(p.m for p in paths)
    terms = xi_coefficients(shapes, mus)
    # weights alternate in sign; compensated summation keeps the cancellation
    ser = math.fsum(t.weight * _erlang_ser(t.k, t.scale, mod.A, mod.B)
                    for t in terms)
    ber = ser / mod.bits_per_symbol
    return max(0.0, min(ber, min(1.0, 0.5 * mod.A)))


def siso_ber_quadrature(es_n0: float, paths, mod: ModErrorParams,
                        spec: specfun.QuadratureSpec | None = None) -> float:
    """Oracle route: numerically integrate the SER representation

        (A sqrt(B) / (2 sqrt(pi))) * int_0^inf y^{-1/2} e^{-By} F(y) dy

    with F the Gamma-mixture CDF of the combined SNR.
    """
    spec = spec or specfun.DEFAULT_QUAD
    mus = path_snr_scales(es_n0, paths)
    terms = xi_coefficients(tuple(p.m for p in paths), mus)
    A, B = mod.A, mod.B

    def integrand(y: float) -> float:
        return math.exp(-B * y) * mixture_cdf(y, terms) / math.sqrt(y)

    raw = specfun.integrate_semi_infinite(integrand, spec)
    ser = A * math.sqrt(B) / (2.0 * _SQRT_PI) * raw
    return ser / mod.bits_per_symbol


def rayleigh_bpsk_ber(es_n0: float) -> float:
    """Textbook flat-Rayleigh BPSK closed form, kept as an external anchor."""
    return 0.5 * (1.0 - math.sqrt(es_n0 / (1.0 + es_n0)))


# ---------------------------------------------------------------------------
# Multi-user machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SinrGammaApprox:
    """Moment-matched Gamma model of the aggregate interference power."""

    mu_S: float
    sigma2_S: float
    m_z: float
    omega_z: float


def sinr_moments(es_n0: float, interferers) -> tuple:
    """Mean and variance of the aggregate interference power.

    `interferers` is a sequence of per-user path lists; an empty sequence
    models the interference-free receiver and yields (0, 0).
    """
    if not (math.isfinite(es_n0) and es_n0 > 0):
        raise DomainError(f"Es/N0 must be finite and positive, got {es_n0}")
    mu = es_n0 * sum(p.omega for user in interferers for p in user)
    var = es_n0 ** 2 * sum(p.omega ** 2 / p.m for user in interferers for p in user)
    return mu, var


def gamma_approx(mu_S: float, sigma2_S: float) -> SinrGammaApprox:
    """Match a Gamma(m_z, omega_z) to the interference moments."""
    if mu_S < 0 or sigma2_S < 0:
        raise DomainError("moments must be nonnegative")
    if sigma2_S == 0.0:
        raise NoInterferenceSignal(
            "zero interference variance: use the deterministic-SINR path")
    return SinrGammaApprox(mu_S=mu_S, sigma2_S=sigma2_S,
                           m_z=mu_S ** 2 / sigma2_S, omega_z=sigma2_S / mu_S)


def sinr_cdf(y: float, es_n0: float, approx: SinrGammaApprox) -> float:
    """Lower-incomplete-Gamma SINR distribution form, kept exactly as printed:

        F(y) = gamma(m_z, ((Es/N0)/y - 1)/Omega_z) / Gamma(m_z).

    As a function of y on (0, Es/N0] this is monotone nonincreasing with
    F(0+) = 1 and F(Es/N0) = 0, i.e. it carries the upper-tail probability
    P(SINR >= y); sinr_pdf integrates to its complement from the left.
    """
    if not (0.0 < y <= es_n0):
        raise DomainError(f"y must lie in (0, Es/N0] = (0, {es_n0}], got {y}")
    arg = (es_n0 / y - 1.0) / approx.omega_z
    return specfun.reg_lower_incomplete_gamma(approx.m_z, arg)


def sinr_pdf(y: float, es_n0: float, approx: SinrGammaApprox) -> float:
    """Density of the SINR  (Es/N0) / (1 + S)  with S ~ Gamma(m_z, omega_z)."""
    if not (0.0 < y <= es_n0):
        raise DomainError(f"y must lie in (0, Es/N0] = (0, {es_n0}], got {y}")
    m_z, oz = approx.m_z, approx.omega_z
    w = es_n0 / y - 1.0
    if w <= 0.0:
        return 0.0 if m_z >= 1 else math.inf
    log_pdf = ((m_z - 1.0) * math.log(w) - w / oz - m_z * math.log(oz)
               - math.lgamma(m_z) + math.log(es_n0) - 2.0 * math.log(y))
    return math.exp(log_pdf)


def multiuser_ber(es_n0: float, approx: SinrGammaApprox, mod: ModErrorParams,
                  method: str = "kernel") -> float:
    """Average BER with SINR = (Es/N0)/(1 + S), S ~ Gamma(m_z, omega_z).

    "kernel" routes through the specfun single-integral SER evaluator (the
    same machinery behind the Meijer-G closed form, with the unit noise floor
    restored); "quadrature" independently averages the conditional SER over
    the normalized interference density.  The two agree to quadrature
    tolerance and the semi-analytic Monte Carlo estimates the same quantity.
    """
    if approx.m_z <= 0 or approx.omega_z <= 0:
        raise NoInterferenceSignal("degenerate interference model")
    A, B = mod.A, mod.B
    x = es_n0 / approx.omega_z
    if method == "kernel":
        kernel = specfun.gamma_tail_ser_integral(
            x, approx.m_z, b=B, shift=1.0 / approx.omega_z)
        ser = 0.5 * A * kernel
    elif method == "quadrature":
        m_z, oz = approx.m_z, approx.omega_z

        def integrand(s: float) -> float:
            if s <= 0.0:
                return 0.0
            snr = es_n0 / (1.0 + oz * s)
            cond = A * specfun.q_function(math.sqrt(2.0 * B * snr))
            return cond * math.exp((m_z - 1.0) * math.log(s) - s - math.lgamma(m_z))

        ser = specfun.integrate_semi_infinite(integrand)
    else:
        raise DomainError(f"unknown method {method!r}")
    # conditional BER never exceeds A*Q(0)/log2(M)
    return min(ser / mod.bits_per_symbol, 1.0, 0.5 * A / mod.bits_per_symbol)


def multiuser_ber_paper_form(es_n0: float, approx: SinrGammaApprox,
                             mod: ModErrorParams) -> float:
    """BER through the bare Meijer-G closed form (A / (2 log2 M)) * G(x).

    The closed form drops the unit noise floor and the Gaussian-tail constant
    of the modulation, so it coincides with multiuser_ber only in the
    interference-dominated unit-B regime; exposed for reference.
    """
    g = specfun.meijer_g_2313(es_n0 / approx.omega_z, approx.m_z)
    return 0.5 * mod.A * g / mod.bits_per_symbol


def deterministic_ber(es_n0: float, mod: ModErrorParams) -> float:
    """Interference-free BER A * Q(sqrt(2 B Es/N0)) / log2 M."""
    return mod.A * specfun.q_function(math.sqrt(2.0 * mod.B * es_n0)) \
        / mod.bits_per_symbol


def semi_analytic_mc_ber(es_n0: float, desired, interferers, mod: ModErrorParams,
                         rng: np.random.Generator, trials: int = 100_000) -> tuple:
    """Monte Carlo over SINR realizations averaged through the conditional SER.

    Draws the interference power S = (Es/N0) * sum_p |h_p|^2 per trial with
    fading.sample_total_power, which consumes `rng` exactly as
    sample_nakagami_gains would, forms SINR = (Es/N0)/(1 + S), and averages
    A*Q(sqrt(2*B*SINR))/log2(M).  The printed SINR carries no desired-channel
    fading, so `desired` is unused.  Returns (ber, standard_error).  With no
    interferers the result is the deterministic formula and the standard
    error is zero.
    """
    if trials < 10_000:
        raise ConfigError(f"semi-analytic MC needs >= 1e4 trials, got {trials}")
    flat = [p for user in interferers for p in user]
    if not flat:
        return deterministic_ber(es_n0, mod), 0.0
    from scipy.special import erfc
    # one float array, transformed in place: S, SINR, then erfc(sqrt(B SINR))
    x = sample_total_power(flat, rng, trials)
    x *= es_n0
    x += 1.0
    np.divide(es_n0, x, out=x)
    x *= mod.B
    np.sqrt(x, out=x)
    erfc(x, out=x)
    # A*Q(sqrt(2u)) = (A/2) erfc(sqrt(u)); the constant factors out of both moments
    scale = 0.5 * mod.A / mod.bits_per_symbol
    ber = scale * float(np.mean(x))
    se = scale * float(np.std(x, ddof=1)) / math.sqrt(trials)
    return ber, se
