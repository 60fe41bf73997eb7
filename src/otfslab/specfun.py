"""Special functions for the error-rate analysis.

Three pieces live here: the Gaussian tail Q, the average of erfc over a
Gamma-distributed interference power (erfc_gamma_average), and the one
Meijer-G instance the paper's multi-user closed form is written in.

erfc_gamma_average is the single numeric route for both multi-user values:
analytic.multiuser_ber calls it with the unit noise floor as its shift, and
meijer_g_2313 calls it with no shift.  It is one adaptive quadrature in
u = ln W on a window and breakpoint read off the log integrand, with a
relative tolerance only, so that values far below 1 keep their digits.  A
residue series of the Meijer-G instance (_meijer_series) stays as an
independent cross-check.  No general Meijer-G engine is provided.

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

_SQRT_PI = math.sqrt(math.pi)

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
    over SNR = x / (shift + W).  In u = ln W the integrand is

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


def meijer_g_2313(x: float, m_z: float) -> float:
    """The Meijer-G(3,1;2,3) instance carrying the multi-user closed form.

    Defined operationally: G(x) = E_W[erfc(sqrt(x / W))], W ~ Gamma(m_z, 1),
    so that (A/2)*G is the SER of A*Q(sqrt(2 SNR)) at SNR = x / W.  It is
    erfc_gamma_average with b = 1 and no shift: its domain, relative
    tolerance (GAMMA_AVERAGE_RTOL) and errors are that function's.
    _meijer_series evaluates an independent residue expansion (valid for
    x <= 40 and m_z away from half-odd-integers) for cross-checking.
    """
    return erfc_gamma_average(x, m_z)


def _meijer_series(x: float, m_z: float) -> float:
    """Residue series for the kernel: two families of simple poles plus 1.

    Undefined when m_z sits on a half-odd-integer (pole families collide) or
    when cancellation would destroy the result (large x); both raise.
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    if not (math.isfinite(m_z) and m_z > 0):
        raise DomainError(f"m_z must be finite and positive, got {m_z}")
    if abs(m_z % 1.0 - 0.5) < 1e-9:
        raise DomainError(f"series path undefined for half-odd-integer m_z = {m_z}")
    if x > 40.0:
        raise NumericError("series path loses all precision for x > 40", float("nan"))

    ln_gm = math.lgamma(m_z)
    terms = [1.0]
    for k in range(160):
        sign = -1.0 if k % 2 else 1.0
        # poles of Gamma(s + 1/2) at s = -(k + 1/2)
        t1 = (sign / math.factorial(k)) * _gamma_signed(m_z - 0.5 - k, ln_gm) \
            / (-(k + 0.5) * _SQRT_PI) * x ** (k + 0.5)
        # poles of Gamma(m_z + s) at s = -(m_z + k)
        t2 = (sign / math.factorial(k)) * _gamma_signed(0.5 - m_z - k, ln_gm) \
            / (-(m_z + k) * _SQRT_PI) * x ** (m_z + k)
        terms.append(t1)
        terms.append(t2)
        if k > 4 and abs(t1) < 1e-18 and abs(t2) < 1e-18:
            break
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise NumericError("series path overflowed", total)
    return total


def _gamma_signed(z: float, ln_gamma_mz: float) -> float:
    """Gamma(z)/Gamma(m_z) with correct sign via the reflection formula."""
    if z > 0:
        return math.exp(math.lgamma(z) - ln_gamma_mz)
    # Gamma(z) = pi / (sin(pi z) Gamma(1 - z)) for non-integer z < 0
    s = math.sin(math.pi * z)
    if s == 0.0:
        raise DomainError(f"Gamma pole at z = {z}")
    return math.pi / (s * math.exp(math.lgamma(1.0 - z) + ln_gamma_mz))
