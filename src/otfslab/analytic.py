"""Closed-form error-rate engine.

Single-user path: the combined SNR is a sum of independent Gamma(m_p, mu_p)
path SNRs (squared Nakagami-m gains), whose moment generating function is a
product of (1 + mu_p s)^{-m_p} factors.  Craig's form of the Gaussian tail
turns the average of A*Q(sqrt(2 B gamma)) into one integral of that product
over [0, pi/2] (Simon & Alouini, *Digital Communication over Fading
Channels*), which siso_ber evaluates with one fixed quadrature rule for any
real shapes and any path powers.

Multi-user path: the aggregate interference power S is moment-matched to a
Gamma(m_z, omega_z) variate.  multiuser_ber averages A*Q(sqrt(2 B SINR)) with
SINR = (Es/N0) / (1 + S) through specfun.erfc_gamma_average, and
semi_analytic_mc_ber estimates it from interference powers that
fading.sample_total_power draws, skipping the phases.

Of scipy only scipy.special loads, on first use, not on import: erfcx in
specfun.erfc_gamma_average (a trapezoid rule in ln W, so multiuser_ber) and
erfc in semi_analytic_mc_ber.  The Monte Carlo sweeps and siso_ber are numpy
only, and their cold start does not load scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConfigError, DomainError, NumericError
from .fading import sample_total_power
# not called here, but kept: traced benchmark runs wrap analytic.sample_nakagami_gains
from .fading import sample_nakagami_gains  # noqa: F401


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
        # 2-PSK is BPSK, one neighbour per point; differential encoding
        # doubles the SER, so 2-DEPSK keeps A = 2
        A = 1.0 if order == 2 and scheme in ("psk", "m-psk", "mpsk") else 2.0
        return ModErrorParams(A=A, B=math.sin(math.pi / order) ** 2, order=order)
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
# Single-user BER
# ---------------------------------------------------------------------------

def path_snr_scales(es_n0: float, paths) -> tuple:
    """Per-path Gamma scales mu_i = (Es/N0) * Omega_i / m_i of the SNR sum."""
    if not (math.isfinite(es_n0) and es_n0 > 0):
        raise DomainError(f"Es/N0 must be finite and positive, got {es_n0}")
    return tuple(es_n0 * p.omega / p.m for p in paths)


# Largest total shape sum_p m_p siso_ber accepts, and its rule in ln cot(theta)
MAX_TOTAL_SHAPE = 512
CRAIG_STEP = 0.15
CRAIG_S_RANGE = (-14.0, 36.0)


def _craig_rule(h: float, s_lo: float, s_hi: float) -> tuple:
    """csc^2(theta) at the nodes of the Craig-integral rule, and the weights.

    The trapezoid rule in s = ln cot(theta), where d theta = ds / (2 cosh s)
    and csc^2 = 1 + e^{2s}: the integrand is analytic in |Im s| < pi/2 and
    decays like e^{-|s|}, so the rule converges geometrically in 1/h.  In s
    the peak at theta = pi/2 (width 1/sqrt(sum m)), the low-SNR layer near
    theta = 0 and the theta^(2 sum m) end all take one gentle shape; a
    64-node Gauss-Legendre rule in theta misses the last two by up to 1e-9
    (m = 0.61, 20 dB) and 1e-5 (-20 dB).  The nodes below s_lo, where the
    integrand is its theta = pi/2 value to within e^{2 s_lo}, fold into one
    node there of weight h e^{s_lo} / (e^h - 1); above s_hi it is below e^{-s_hi}.
    """
    s = np.arange(math.ceil(s_lo / h), math.floor(s_hi / h) + 1) * h
    tail = h * math.exp(s[0]) / math.expm1(h)
    return (np.concatenate(([1.0], 1.0 + np.exp(2.0 * s))),
            np.concatenate(([tail], h / (2.0 * np.cosh(s)))))


_CSC2, _CRAIG_WEIGHTS = _craig_rule(CRAIG_STEP, *CRAIG_S_RANGE)


def siso_ber(es_n0: float, paths, mod: ModErrorParams) -> float:
    """Average BER of the single-user link over summed path SNRs.

    Craig's form of Q averages A*Q(sqrt(2 B gamma)) over independent
    Gamma(m_p, mu_p) path SNRs, mu_p = (Es/N0) Omega_p / m_p, through their
    MGF (Simon & Alouini, *Digital Communication over Fading Channels*, 2005):

        SER = (A/pi) int_0^{pi/2} prod_p (1 + B mu_p / sin^2 t)^{-m_p} dt,

    and BER = SER / log2 M, on the fixed rule of _craig_rule.  Against mpmath
    it holds to ~1e-13 relative for any real m_p >= 0.5, any path powers and
    any Es/N0, up to a total shape of MAX_TOTAL_SHAPE; beyond it raises
    DomainError.  A BER below the smallest normal double raises NumericError.
    """
    if not paths:
        raise ConfigError("siso_ber needs at least one path")
    mus = path_snr_scales(es_n0, paths)
    shapes = [p.m for p in paths]
    if sum(shapes) > MAX_TOTAL_SHAPE:
        raise DomainError(f"total Nakagami shape {sum(shapes):g} exceeds "
                          f"{MAX_TOTAL_SHAPE}, the largest siso_ber accepts")
    # -log of the MGF product at every node, sum_p m_p log1p(B mu_p csc^2)
    x = np.multiply.outer([mod.B * mu for mu in mus], _CSC2)
    np.log1p(x, out=x)
    mgf = np.dot(shapes, x)
    np.negative(mgf, out=mgf)
    np.exp(mgf, out=mgf)
    ser = mod.A / math.pi * float(_CRAIG_WEIGHTS @ mgf)
    if not ser >= sys.float_info.min:
        raise NumericError(f"BER at Es/N0 = {es_n0:g} is below the double range", ser)
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
        raise DomainError(
            "zero interference variance: use the deterministic-SINR path")
    return SinrGammaApprox(m_z=mu_S ** 2 / sigma2_S, omega_z=sigma2_S / mu_S)


def multiuser_ber(es_n0: float, approx: SinrGammaApprox,
                  mod: ModErrorParams) -> float:
    """Average BER with SINR = (Es/N0)/(1 + S), S ~ Gamma(m_z, omega_z).

    Writing S = omega_z W with W ~ Gamma(m_z, 1), the SER is

        (A/2) E_W[erfc(sqrt(B x / (1/omega_z + W)))],  x = (Es/N0) / omega_z,

    which specfun.erfc_gamma_average evaluates with shift = 1/omega_z and
    b = B, to its relative tolerance specfun.GAMMA_AVERAGE_RTOL, for any
    m_z > 0, omega_z > 0 and Es/N0 > 0; its docstring gives the domain
    held against the mpmath oracle.  The semi-analytic Monte Carlo
    estimates the same quantity.  Raises DomainError for a
    degenerate model, and NumericError when the average does not converge,
    falls below the double range, or leaves [0, A/2] by more than the
    tolerance (an overshoot inside it reads A/2).
    """
    if approx.m_z <= 0 or approx.omega_z <= 0:
        raise DomainError("degenerate interference model")
    A = mod.A
    ser = 0.5 * A * specfun.erfc_gamma_average(
        es_n0 / approx.omega_z, approx.m_z, b=mod.B, shift=1.0 / approx.omega_z)
    # the SER lies in [0, A*Q(0)] = [0, A/2]: an estimate past A/2 within the
    # quadrature tolerance is that bound, one past it by more a failed evaluation
    if not 0.0 <= ser <= 0.5 * A * (1.0 + specfun.GAMMA_AVERAGE_RTOL):
        raise NumericError(f"multi-user SER outside [0, A/2] = [0, {0.5 * A:g}]", ser)
    return min(ser, 0.5 * A) / mod.bits_per_symbol


def deterministic_ber(es_n0: float, mod: ModErrorParams) -> float:
    """Interference-free BER A * Q(sqrt(2 B Es/N0)) / log2 M."""
    return mod.A * specfun.q_function(math.sqrt(2.0 * mod.B * es_n0)) \
        / mod.bits_per_symbol


# the fewest trials semi_analytic_mc_ber accepts; the engine raises a
# smaller frame cap to it
SEMI_MC_MIN_TRIALS = 10_000


def semi_analytic_mc_ber(es_n0: float, interferers, mod: ModErrorParams,
                         rng: np.random.Generator, trials: int) -> tuple:
    """Monte Carlo over SINR realizations averaged through the conditional SER.

    Draws the interference power S = (Es/N0) * sum_p |h_p|^2 per trial with
    fading.sample_total_power, which draws only the path powers and skips
    the phases, so `rng` (a Philox stream from fading.make_stream; any other
    raises TypeError) ends where sample_nakagami_gains would leave it.  It
    forms SINR = (Es/N0)/(1 + S) and averages A*Q(sqrt(2*B*SINR))/log2(M);
    the printed SINR carries no desired-channel fading.  `trials` is at
    least SEMI_MC_MIN_TRIALS.  Returns (ber, standard_error) over the
    trials' conditional BERs: their mean, and the bits of
    np.std(ddof=1) / sqrt(trials) formed in the drawn array, so one array of
    `trials` doubles plus one draw chunk is live.  With no interferers the
    result is the deterministic formula and the standard error is zero.

    The engine may call this from a worker thread, several points at once.
    It reads only `rng`, the stream its caller made for this point, and
    allocates its own arrays, so concurrent calls on distinct streams give
    the values serial calls give.
    """
    if trials < SEMI_MC_MIN_TRIALS:
        raise ConfigError(f"semi-analytic MC needs >= {SEMI_MC_MIN_TRIALS} "
                          f"trials, got {trials}")
    flat = [p for user in interferers for p in user]
    if not flat:
        return deterministic_ber(es_n0, mod), 0.0
    from scipy import special

    # one float array, transformed in place: S, SINR, then erfc(sqrt(B SINR))
    x = sample_total_power(flat, rng, trials)
    x *= es_n0
    x += 1.0
    np.divide(es_n0, x, out=x)
    x *= mod.B
    np.sqrt(x, out=x)
    special.erfc(x, out=x)
    # the variance in place, by np.std(ddof=1)'s own steps, so it is that
    # function's bits without std's temporary of `trials`
    mean = x.mean()
    x -= mean
    np.square(x, out=x)
    var = float(np.add.reduce(x)) / (trials - 1)
    # A*Q(sqrt(2u)) = (A/2) erfc(sqrt(u)); the constant factors out of both moments
    scale = 0.5 * mod.A / mod.bits_per_symbol
    ber = scale * float(mean)
    se = scale * math.sqrt(var) / math.sqrt(trials)
    return ber, se
