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
per value, as ``random`` does.  A draw that only sums the powers does not
compute the phases at all: each double is one 64-bit Philox word, so it moves
the stream past them with ``Philox.advance`` and lands where drawing them
would have left it.  Every path's powers are drawn in chunks of _POWER_CHUNK
and added into the zeroed sum, so one array of the sum's size plus one chunk
is live, however many paths there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Philox4x64 counter step: four 64-bit words, one per double drawn
_PHILOX_WORDS = 4

# doubles per chunk in which sample_total_power adds each path's powers to the
# sum (128 KiB)
_POWER_CHUNK = 16_384


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
        if self.l < 0:
            raise DomainError(f"delay bin must be >= 0, got {self.l}")
        if not (-0.5 <= self.kappa < 0.5):
            raise DomainError(f"fractional Doppler must lie in [-0.5, 0.5), got {self.kappa}")


def make_stream(master_seed: int, *stream_id: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (master_seed, stream_id...)."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=tuple(int(s) for s in stream_id))
    return np.random.Generator(np.random.Philox(seq))


def _skip_doubles(rng: np.random.Generator, n: int) -> None:
    """Move a Philox stream past ``n`` doubles without computing them.

    Philox4x64 makes four 64-bit words per counter step and a double reads
    one word.  The words left in the current block are drawn, the whole
    blocks are skipped with ``Philox.advance`` and the remainder is drawn,
    so every later draw sees the variates it would have seen after
    ``rng.random(n)``.  ``advance`` zeroes a pending 32-bit half word, so
    ``has_uint32`` and ``uinteger`` are put back through the state dict.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    head = min(n, _PHILOX_WORDS - state["buffer_pos"])
    blocks, tail = divmod(n - head, _PHILOX_WORDS)
    if not blocks:
        bitgen.random_raw(n)
        return
    bitgen.random_raw(head)
    bitgen.advance(blocks)
    advanced = bitgen.state
    advanced["has_uint32"], advanced["uinteger"] = state["has_uint32"], state["uinteger"]
    bitgen.state = advanced
    bitgen.random_raw(tail)


def _draw_power(spec: PathSpec, rng: np.random.Generator, out: np.ndarray) -> None:
    """Gamma(m, omega/m) powers into ``out``, the bits of rng.gamma's."""
    rng.standard_gamma(spec.m, out=out)
    out *= spec.omega / spec.m


def sample_nakagami_gains(specs, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized draw: (size, len(specs)) complex gains, one column per path.

    Each path draws its Gamma(m, omega/m) powers and then its uniform phases
    on [0, 2 pi).  The magnitude times cos and sin of the phase go straight
    into the real and imaginary parts of the path's column, which are the
    bits of ``np.sqrt(power) * np.exp(1j * phase)`` without its temporaries."""
    out = np.empty((size, len(specs)), dtype=np.complex128)
    power, phase, trig = np.empty(size), np.empty(size), np.empty(size)
    for p, spec in enumerate(specs):
        _draw_power(spec, rng, power)
        rng.random(out=phase)
        phase *= 2.0 * math.pi
        np.sqrt(power, out=power)
        np.multiply(power, np.cos(phase, out=trig), out=out[:, p].real)
        np.multiply(power, np.sin(phase, out=trig), out=out[:, p].imag)
    return out


def sample_total_power(specs, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size,) sums over paths of the powers |h_p|^2.

    Leaves ``rng``, which must be a Philox stream (make_stream; any other
    raises TypeError before anything is drawn), where sample_nakagami_gains
    would: each path's phases are skipped rather than drawn, so the next
    path's powers, and any later draw, are the same variates as there.  The
    sums equal those of the gains' squared magnitudes to within rounding.
    Each path's powers are drawn _POWER_CHUNK at a time, which reads the
    stream as one draw of ``size`` does, and added into the zeroed sums.  So
    one array of ``size`` plus one chunk is live, whatever the number of
    paths.
    """
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"skipping phases needs a Philox stream (make_stream), "
                        f"got {type(rng.bit_generator).__name__}")
    total = np.zeros(size)
    chunk = np.empty(min(size, _POWER_CHUNK))
    for spec in specs:
        for start in range(0, size, _POWER_CHUNK):
            part = chunk[:min(_POWER_CHUNK, size - start)]
            _draw_power(spec, rng, part)
            total[start:start + part.size] += part
        _skip_doubles(rng, size)
    return total
