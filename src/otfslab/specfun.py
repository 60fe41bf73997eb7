"""Self-contained special-function and quadrature kernel.

Everything downstream of the error-rate analysis funnels through this module:
the Gamma family, the Gaussian tail, double factorials, adaptive quadrature on
[0, inf) with a built-in y = t**2 substitution for inverse-square-root endpoint
weights, and the one Meijer-G instance the multi-user error rate needs.

The Meijer-G instance is evaluated through its defining single-integral
error-rate representation (quadrature), with an independent residue-series
path available for cross-checking.  No general Meijer-G engine is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate

from .errors import DomainError, NumericError

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise DomainError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if not (1 <= self.max_subdivisions <= 10**6):
            raise DomainError(f"max_subdivisions must be in [1, 1e6], got {self.max_subdivisions}")


DEFAULT_QUAD = QuadratureSpec()


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    if not math.isfinite(x):
        raise DomainError(f"q_function requires finite x, got {x}")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def double_factorial(n: int) -> int:
    """n!! for integer n >= -1, with (-1)!! = 0!! = 1 (empty product)."""
    if int(n) != n or n < -1:
        raise DomainError(f"double_factorial requires integer n >= -1, got {n}")
    n = int(n)
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# Incomplete Gamma family.
#
# Regularized forms are computed directly (series for x < s + 1, Lentz
# continued fraction otherwise, per Numerical Recipes ch. 6) so that
# non-integer shape parameters from moment matching are supported and large
# shapes stay in the ln domain.
# ---------------------------------------------------------------------------

def _reg_lower_series(s: float, x: float, max_iter: int = 500) -> float:
    if x == 0.0:
        return 0.0
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(max_iter):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise NumericError("incomplete-gamma series did not converge", total)


def _reg_upper_contfrac(s: float, x: float, max_iter: int = 500) -> float:
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h
    raise NumericError("incomplete-gamma continued fraction did not converge", h)


def reg_lower_incomplete_gamma(s: float, x: float) -> float:
    """P(s, x) = gamma(s, x) / Gamma(s), the regularized lower tail."""
    if not (math.isfinite(s) and s > 0):
        raise DomainError(f"shape must be finite and positive, got {s}")
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"argument must be finite and nonnegative, got {x}")
    if x < s + 1.0:
        return _reg_lower_series(s, x)
    return 1.0 - _reg_upper_contfrac(s, x)


def reg_upper_incomplete_gamma(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s), the regularized upper tail."""
    if not (math.isfinite(s) and s > 0):
        raise DomainError(f"shape must be finite and positive, got {s}")
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"argument must be finite and nonnegative, got {x}")
    if x < s + 1.0:
        return 1.0 - _reg_lower_series(s, x)
    return _reg_upper_contfrac(s, x)


# ---------------------------------------------------------------------------
# Quadrature on [0, inf).
# ---------------------------------------------------------------------------

def integrate_semi_infinite(f: Callable[[float], float],
                            spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integrate f over [0, inf), tolerating a y**(-1/2) endpoint singularity.

    The substitution y = t**2 turns the weight into a bounded factor, so the
    same call handles both smooth integrands and the inverse-square-root
    weighted ones that error-rate integrals produce.
    """

    def g(t: float) -> float:
        return 2.0 * t * f(t * t)

    value, abserr, *rest = integrate.quad(
        g, 0.0, math.inf, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=1)
    if len(rest) > 1:
        # quadpack flagged trouble; trust the run only if its own error
        # bound still meets the requested tolerances
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if not math.isfinite(value) or abserr > 100.0 * tol:
            raise NumericError(f"quadrature did not converge: {rest[1]}",
                               value, abserr)
    if not math.isfinite(value):
        raise NumericError("quadrature produced a non-finite value", value, abserr)
    return value


# ---------------------------------------------------------------------------
# The single-integral SER kernel and the Meijer-G instance built on it.
# ---------------------------------------------------------------------------

KERNEL_QUAD = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-9, max_subdivisions=300)


def gamma_tail_ser_integral(x: float, m_z: float, b: float = 1.0,
                            shift: float = 0.0,
                            spec: QuadratureSpec = KERNEL_QUAD) -> float:
    """Normalized single-integral SER kernel for Gamma-tail SNR statistics.

    Computes
        K = sqrt(b/pi) * int_0^inf y^{-1/2} e^{-b y} Q(m_z, max(x/y - shift, 0)) dy
    where Q(a, u) is the regularized upper incomplete Gamma function.  K lies
    in (0, 1]; A/2 * K is the symbol error rate of a system whose SNR equals
    x / (shift + W) with W ~ Gamma(m_z, 1), under the A*Qfunc(sqrt(2*b*SNR))
    conditional-error model.

    shift = 0 reduces to the pure reciprocal-Gamma SNR kernel that defines
    the closed-form multi-user expression; shift = 1/Omega_z restores the
    unit noise floor of the exact SINR model.
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    if not (math.isfinite(m_z) and m_z > 0):
        raise DomainError(f"m_z must be finite and positive, got {m_z}")
    if not (math.isfinite(b) and b > 0):
        raise DomainError(f"b must be finite and positive, got {b}")
    if shift < 0:
        raise DomainError(f"shift must be nonnegative, got {shift}")

    def integrand(y: float) -> float:
        u = x / y - shift
        tail = reg_upper_incomplete_gamma(m_z, u) if u > 0 else 1.0
        return math.exp(-b * y) * tail / math.sqrt(y)

    raw = integrate_semi_infinite(integrand, spec)
    return math.sqrt(b) / _SQRT_PI * raw


def meijer_g_2313(x: float, m_z: float, method: str = "quadrature") -> float:
    """The Meijer-G(3,1;2,3) instance carrying the multi-user closed form.

    Defined operationally: the value G such that (A/2)*G reproduces the
    single-integral SER representation for SNR = x / W, W ~ Gamma(m_z, 1),
    with unit Gaussian-tail constant.  The quadrature path is the reference;
    ``method="series"`` evaluates an independent residue expansion (valid for
    moderate x and m_z away from half-odd-integers) for cross-checking.
    """
    if method == "quadrature":
        return gamma_tail_ser_integral(x, m_z, b=1.0, shift=0.0)
    if method == "series":
        return _meijer_series(x, m_z)
    raise DomainError(f"unknown method {method!r}")


def _meijer_series(x: float, m_z: float, k_max: int = 400) -> float:
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
    for k in range(min(k_max, 160)):
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
