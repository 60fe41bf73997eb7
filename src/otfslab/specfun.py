"""Special functions for the error-rate analysis.

Two pieces live here: the Gaussian tail Q, and the average of erfc over a
Gamma-distributed interference power (erfc_gamma_average), the numeric
route of analytic.multiuser_ber, which calls it with the unit noise floor
as its shift.  It is one adaptive quadrature in u = ln W on a window and
breakpoint read off the log integrand, with a relative tolerance only, so
that values far below 1 keep their digits.

scipy loads on first use, inside erfc_gamma_average (scipy.integrate and
scipy.special), not when this module is imported: importing scipy.integrate
pulls in scipy.optimize, scipy.sparse.linalg and scipy.linalg, which would
be most of the cold start of the routes that never call it (the Monte
Carlo sweeps and analytic.siso_ber).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, NumericError

# Relative tolerance of erfc_gamma_average.  Its window keeps the part of
# the integrand within e^-_WINDOW_DEPTH (~1e-20) of the peak, found on a
# grid of _SEARCH_POINTS points.
GAMMA_AVERAGE_RTOL = 1e-10
_WINDOW_DEPTH = 46.0
_SEARCH_POINTS = 441


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

    which is evaluated in the log domain and divided by its largest value
    on a grid, so that one scipy quad, run with a relative tolerance of
    GAMMA_AVERAGE_RTOL and no absolute one, keeps the digits of values far
    below 1.  The grid runs from ln m_z - 1 - 46/m_z, below which the Gamma
    factor has fallen by e^-46, to ln(4 (m_z + sqrt(b x)) + 92), past the
    peak that erfc pulls towards sqrt(b x), and is searched again around
    its best point, where a narrow peak (large b x) may hide between nodes.
    quad runs over the grid points within e^-46 of the peak, with a
    breakpoint at the peak.

    Domain: finite x > 0, m_z > 0, b > 0 and shift >= 0.  Against the
    mpmath oracle of the tests it holds to 1e-9 relative over m_z in
    [0.5, 40], x in [1e-3, 1e5], b in [0.1, 1] and shift in [0, 20]
    (~1e-13 seen).  Raises NumericError if quad does not converge, if the
    peak sits at the end of the window, or if the value is below the
    smallest normal double.
    """
    for name, value in (("x", x), ("m_z", m_z), ("b", b)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    if not (math.isfinite(shift) and shift >= 0):
        raise DomainError(f"shift must be finite and nonnegative, got {shift}")
    from scipy import integrate, special

    bx = b * x
    ln_gm = math.lgamma(m_z)

    def log_f(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            z = bx / (shift + np.exp(u))
            return np.log(special.erfcx(np.sqrt(z))) - z + m_z * u - np.exp(u) - ln_gm

    lo = math.log(m_z) - 1.0 - _WINDOW_DEPTH / m_z
    hi = math.log(4.0 * (m_z + math.sqrt(bx)) + 2.0 * _WINDOW_DEPTH)
    u = np.linspace(lo, hi, _SEARCH_POINTS)
    # the integrand rises to one peak and falls after it, so the peak lies
    # within a step of the grid's best point; search that span again
    k = int(np.argmax(log_f(u)))
    u = np.union1d(u, np.linspace(u[max(k - 1, 0)], u[min(k + 1, u.size - 1)],
                                  _SEARCH_POINTS))
    g = log_f(u)
    k = int(np.argmax(g))
    peak = float(g[k])
    if not g[-1] < peak - _WINDOW_DEPTH:
        raise NumericError(f"Gamma average at x = {x:g}, m_z = {m_z:g} peaks "
                           f"outside its window", float("nan"))
    inside = np.flatnonzero(g >= peak - _WINDOW_DEPTH)
    a, c = u[max(inside[0] - 1, 0)], u[inside[-1] + 1]

    def scaled(v: float) -> float:
        w = math.exp(v)
        t = bx / (shift + w)
        return math.exp(math.log(special.erfcx(math.sqrt(t))) - t
                        + m_z * v - w - ln_gm - peak)

    value, abserr, *rest = integrate.quad(
        scaled, a, c, points=(u[k],), epsabs=0.0, epsrel=GAMMA_AVERAGE_RTOL,
        limit=200, full_output=1)
    if len(rest) > 1:
        raise NumericError(f"Gamma average did not converge: {rest[1]}",
                           value * math.exp(peak), abserr * math.exp(peak))
    ln_value = peak + math.log(value)
    if not ln_value >= math.log(sys.float_info.min):
        raise NumericError(f"Gamma average at x = {x:g}, m_z = {m_z:g} is "
                           f"below the double range", 0.0)
    return math.exp(ln_value)
