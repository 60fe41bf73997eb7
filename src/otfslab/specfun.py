"""Special functions for the error-rate analysis.

Two pieces live here: the Gaussian tail Q, and the average of erfc over a
Gamma-distributed interference power (erfc_gamma_average), the numeric
route of analytic.multiuser_ber, which calls it with the unit noise floor
as its shift.  It is a trapezoid rule in u = ln W whose step halves until
two successive rules agree to a relative tolerance, under a cap on the
nodes, so that values far below 1 keep their digits.  Of scipy it loads only
scipy.special (erfcx), on first use: the routes that never call it (the
Monte Carlo sweeps and analytic.siso_ber) do not load scipy at all.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, NumericError

# Relative tolerance of erfc_gamma_average.  Its window keeps the part of
# the integrand within e^-_WINDOW_DEPTH (~1e-20) of the peak; its first rule
# has _SEARCH_POINTS nodes, and it halves the step at most ten times.
GAMMA_AVERAGE_RTOL = 1e-10
_WINDOW_DEPTH = 46.0
_SEARCH_POINTS = 441
_MAX_NODES = (_SEARCH_POINTS - 1) * 2 ** 10 + 1


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    if not math.isfinite(x):
        raise DomainError(f"q_function requires finite x, got {x}")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def erfc_gamma_average(x: float, m_z: float, b: float = 1.0,
                       shift: float = 0.0) -> float:
    """E_W[erfc(sqrt(b x / (shift + W)))] for W ~ Gamma(m_z, 1).

    A/2 times this is the symbol error rate of A*Q(sqrt(2 b SNR)) averaged
    over SNR = x / (shift + W); with b = 1 and no shift it is the Meijer-G
    function G(x) of the paper's multi-user closed form.  In u = ln W the
    integrand is

        exp(ln erfcx(sqrt(z)) - z + m_z u - e^u - ln Gamma(m_z)),
        z = b x / (shift + e^u),

    which is evaluated in the log domain on a window from ln m_z - 1 - 46/m_z,
    below which the Gamma factor has fallen by e^-46, to
    ln(4 (m_z + sqrt(b x)) + 92), past the peak that erfc pulls towards
    sqrt(b x).  There the integrand is analytic and decays at both ends, so
    the trapezoid rule converges exponentially (Trefethen & Weideman, SIAM
    Review 56, 2014): from 441 nodes, each halving of the step adds only the
    midpoints, until two successive rules agree to GAMMA_AVERAGE_RTOL, a
    relative tolerance with no absolute one.  The sums are kept in units of
    the largest node value, rescaled when a midpoint beats it, so that
    values far below 1 keep their digits.  The narrowest peak the tests
    reach (x = 1e7, m_z = 0.05) takes nine halvings.

    Domain: finite x > 0, m_z > 0, b > 0 and shift >= 0.  Against the
    mpmath oracle of the tests it holds to 1e-9 relative over m_z in
    [0.5, 40], x in [1e-3, 1e5], b in [0.1, 1] and shift in [0, 20]
    (~1e-13 seen).  Raises NumericError if the rule has not converged at
    _MAX_NODES nodes, if the peak sits at the end of the window, or if the
    value is below the smallest normal double.
    """
    for name, value in (("x", x), ("m_z", m_z), ("b", b)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    if not (math.isfinite(shift) and shift >= 0):
        raise DomainError(f"shift must be finite and nonnegative, got {shift}")
    from scipy import special

    bx = b * x
    ln_gm = math.lgamma(m_z)

    def log_f(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            z = bx / (shift + np.exp(u))
            return np.log(special.erfcx(np.sqrt(z))) - z + m_z * u - np.exp(u) - ln_gm

    lo = math.log(m_z) - 1.0 - _WINDOW_DEPTH / m_z
    hi = math.log(4.0 * (m_z + math.sqrt(bx)) + 2.0 * _WINDOW_DEPTH)
    g = log_f(np.linspace(lo, hi, _SEARCH_POINTS))
    peak = float(np.max(g))
    if not g[-1] < peak - _WINDOW_DEPTH:
        raise NumericError(f"Gamma average at x = {x:g}, m_z = {m_z:g} peaks "
                           f"outside its window", float("nan"))
    nodes = _SEARCH_POINTS
    h = (hi - lo) / (nodes - 1)
    rule = h * float(np.sum(np.exp(g - peak)))     # in units of e^peak
    while 2 * nodes - 1 <= _MAX_NODES:
        g = log_f(lo + h * (np.arange(nodes - 1) + 0.5))   # the midpoints
        # rescale to a midpoint that beats the peak (exp(0) = 1 otherwise)
        top = max(peak, float(np.max(g)))
        rule *= math.exp(peak - top)
        peak, h, nodes, last = top, h / 2.0, 2 * nodes - 1, rule
        rule = 0.5 * rule + h * float(np.sum(np.exp(g - peak)))
        if abs(rule - last) <= GAMMA_AVERAGE_RTOL * rule:
            break
    else:
        raise NumericError(f"Gamma average at x = {x:g}, m_z = {m_z:g} did not "
                           f"converge in {nodes} nodes", rule * math.exp(peak))
    ln_value = peak + math.log(rule)
    if not ln_value >= math.log(sys.float_info.min):
        raise NumericError(f"Gamma average at x = {x:g}, m_z = {m_z:g} is "
                           f"below the double range", 0.0)
    return math.exp(ln_value)
