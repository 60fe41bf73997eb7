"""Random channel generation: Nakagami-m path gains on a delay-Doppler grid.

Squared Nakagami-m magnitudes are Gamma(m, omega/m) variates, so gains are
sampled as sqrt(Gamma) with an independent uniform phase (the isotropic
completion; the magnitude law alone does not pin down a phase, but coherent
detection needs one).  All sampling goes through counter-based Philox streams
so that distinct stream ids can run concurrently and reproduce bit-identically
regardless of scheduling.  Every draw reads a stream in one order, per path a
Gamma power and then a uniform phase, so complex gains and summed powers drawn
from the same key see the same variates.

Draws fill caller-provided buffers in place.  ``rng.standard_gamma(m, out=b)``
followed by ``b *= omega / m`` gives the bits of ``rng.gamma(m, omega / m)``,
whose variates are that scale times a standard Gamma variate; and
``rng.random(out=b)`` followed by ``b *= 2 pi`` gives the bits of
``rng.uniform(0, 2 pi)``, which is ``0 + 2 pi * random`` and reads one double
per value, as ``random`` does.  So a power draw that only sums the powers
needs one scratch buffer beside its result, however many paths there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

SPEED_OF_LIGHT = 3.0e8  # m/s

# 3GPP EVA power-delay profile: tap delays [ns] and relative powers [dB]
EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: Nakagami shape, mean power, grid placement."""

    m: float               # Nakagami shape
    omega: float           # mean power E[|h|^2]
    l: int = 0             # delay bin
    k: int = 0             # Doppler bin
    kappa: float = 0.0     # fractional Doppler offset

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m >= 0.5):
            raise DomainError(f"Nakagami shape must be >= 0.5, got {self.m}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise DomainError(f"path power must be finite and positive, got {self.omega}")
        if not (-0.5 <= self.kappa < 0.5):
            raise DomainError(f"fractional Doppler must lie in [-0.5, 0.5), got {self.kappa}")


def make_stream(master_seed: int, *stream_id: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (master_seed, stream_id...)."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=tuple(int(s) for s in stream_id))
    return np.random.Generator(np.random.Philox(seq))


def _path_draws(specs, rng: np.random.Generator, power: np.ndarray,
                phase: np.ndarray):
    """Draw each path in turn into the given buffers: Gamma(m, omega/m)
    powers into ``power``, then uniform phases on [0, 2 pi) into ``phase``.

    Yields ``(p, "power")`` after the powers of path p and ``(p, "phase")``
    after its phases.  A caller that reads the powers at the first yield may
    pass one buffer as both.
    """
    for p, spec in enumerate(specs):
        rng.standard_gamma(spec.m, out=power)
        power *= spec.omega / spec.m
        yield p, "power"
        rng.random(out=phase)
        phase *= 2.0 * math.pi
        yield p, "phase"


def sample_nakagami_gains(specs, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized draw: (size, len(specs)) complex gains, one column per path."""
    out = np.empty((size, len(specs)), dtype=np.complex128)
    power, phase = np.empty(size), np.empty(size)
    for p, drawn in _path_draws(specs, rng, power, phase):
        if drawn == "phase":
            out[:, p] = np.sqrt(power) * np.exp(1j * phase)
    return out


def sample_total_power(specs, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size,) sums over paths of the powers |h_p|^2.

    Consumes the stream exactly as sample_nakagami_gains does: each path's
    phase is drawn and discarded, so the next path's powers, and any later
    draw, are the same variates as there.  The sums equal those of the
    gains' squared magnitudes to within rounding.  Powers and discarded
    phases share one scratch buffer, so two arrays of ``size`` are live.
    """
    total = np.zeros(size)
    scratch = np.empty(size)
    for _p, drawn in _path_draws(specs, rng, scratch, scratch):
        if drawn == "power":
            total += scratch
    return total


def max_doppler_hz(fc_hz: float, speed_mps: float) -> float:
    """Maximum Doppler shift fc * v / c."""
    return fc_hz * speed_mps / SPEED_OF_LIGHT


def eva_grid_placement(grid, fc_hz: float, speed_mps: float, P: int,
                       rng: np.random.Generator) -> tuple:
    """Place P paths on the grid from the EVA profile with Jakes Doppler.

    The strongest P EVA taps are kept, renormalized to unit total power, and
    assigned to delay bins 0..P-1 as Rayleigh (m = 1) paths.  Each path's
    Doppler is nu_max * cos(theta) with theta uniform, quantized to the
    nearest integer Doppler bin (kappa = 0); at vehicular speeds and
    kilohertz-scale bin widths every path quantizes to bin zero.
    """
    if P < 1:
        raise ConfigError(f"need at least one path, got {P}")
    if P > grid.M:
        raise ConfigError(f"P = {P} exceeds the {grid.M} available delay bins")

    powers_lin = np.array([10.0 ** (p / 10.0) for p in EVA_POWERS_DB])
    strongest = np.sort(np.argsort(powers_lin)[::-1][:P])
    omegas = powers_lin[strongest]
    omegas = omegas / omegas.sum()

    nu_max = max_doppler_hz(fc_hz, speed_mps)
    frame_duration = grid.N * grid.T
    specs = []
    for p in range(P):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        nu = nu_max * math.cos(theta)
        k = int(round(nu * frame_duration))
        specs.append(PathSpec(m=1, omega=float(omegas[p]),
                              l=p, k=k, kappa=0.0))
    return tuple(specs)
