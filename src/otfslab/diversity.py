"""Diversity-slope estimation from BER curves and closed-form approximations."""

from __future__ import annotations

import math
from .errors import ConfigError, DomainError


def empirical_gd_values(ber1: float, ber2: float, snr1_db: float,
                        snr2_db: float) -> float:
    """Negative log-log slope between two (SNR, BER) samples."""
    if ber1 <= 0.0 or ber2 <= 0.0:
        raise DomainError("both BER values must be positive; gather more "
                          "errors before estimating a slope")
    if snr1_db == snr2_db:
        raise DomainError("SNR points must differ")
    dlog_ber = math.log10(ber2) - math.log10(ber1)
    dlog_snr = (snr2_db - snr1_db) / 10.0
    return -dlog_ber / dlog_snr


def empirical_gd(curve, snr1_db: float, snr2_db: float,
                 use_analytic: bool = False) -> float:
    """Slope of a BerCurve between two of its SNR points.

    use_analytic selects the attached closed-form values instead of the
    Monte Carlo estimates (useful near the asymptote where simulation
    would need prohibitively many errors).
    """
    try:
        p1 = curve.point_at(snr1_db)
        p2 = curve.point_at(snr2_db)
    except KeyError as e:
        raise ConfigError(str(e)) from e
    if use_analytic:
        b1, b2 = p1.analytic_ber, p2.analytic_ber
    else:
        b1, b2 = p1.ber, p2.ber
    return empirical_gd_values(b1, b2, snr1_db, snr2_db)


def siso_gd_approx(shapes) -> float:
    """Closed-form single-user diversity approximation P * min(m), P = len(shapes)."""
    shapes = tuple(shapes)
    return float(len(shapes) * min(shapes))
