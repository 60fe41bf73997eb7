"""Matrix-level OTFS transmitter/channel/receiver and the OFDM per-symbol DFT.

The frame is small enough (M*N complex symbols) that every transform is an
explicit matrix: the delay operator is the MN-point cyclic shift, the Doppler
operator a unit-modulus diagonal, and the delay-Doppler transform a Kronecker
factor of the unitary DFT.  Detection is exhaustive maximum likelihood over
the full symbol hypercube, guarded by a hypothesis-count cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ConfigError

DEFAULT_ML_CAP = 2 ** 20


@dataclass(frozen=True)
class OtfsGrid:
    """Delay-Doppler grid geometry: M delay bins, N Doppler bins.

    Paths are placed in bins, so no spacing in Hz is kept.  The transmit
    and receive pulses are assumed rectangular, so their windows are the
    identity and every transform below is a plain DFT.
    """

    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ConfigError(f"grid must have M, N >= 1, got ({self.M}, {self.N})")

    @property
    def frame_size(self) -> int:
        return self.M * self.N


def _gray_code(n_bits: int) -> list:
    codes = [0]
    for b in range(n_bits):
        codes += [c | (1 << b) for c in reversed(codes)]
    return codes


@dataclass(frozen=True)
class Constellation:
    """Unit-energy symbol alphabet with Gray bit labels.

    Only memoryless linear alphabets (PSK/QAM/PAM families) can be placed on
    the waveform grid; orthogonal/differential schemes exist solely in the
    analytic error-constant table.
    """

    scheme: str
    order: int
    points: np.ndarray = field(repr=False)
    bit_labels: np.ndarray = field(repr=False)

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))


def make_constellation(scheme: str, order: int | None = None) -> Constellation:
    scheme = scheme.lower()
    if scheme == "bpsk":
        order = order or 2
        if order != 2:
            raise ConfigError("BPSK has order 2")
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        labels = np.array([[0], [1]], dtype=np.uint8)
    elif scheme == "qpsk":
        order = order or 4
        if order != 4:
            raise ConfigError("QPSK has order 4")
        # Gray per quadrature axis: bit0 -> real sign, bit1 -> imag sign
        points = np.array([(1 - 2 * b0) + 1j * (1 - 2 * b1)
                           for b0 in (0, 1) for b1 in (0, 1)]) / math.sqrt(2.0)
        labels = np.array([[b0, b1] for b0 in (0, 1) for b1 in (0, 1)], dtype=np.uint8)
    elif scheme in ("psk", "m-psk", "mpsk"):
        if order is None or order < 2:
            raise ConfigError("M-PSK needs an order >= 2")
        nb = int(math.log2(order))
        if 2 ** nb != order:
            raise ConfigError(f"M-PSK order must be a power of two, got {order}")
        gray = _gray_code(nb)
        points = np.empty(order, dtype=complex)
        labels = np.empty((order, nb), dtype=np.uint8)
        for idx, g in enumerate(gray):
            points[idx] = np.exp(2j * math.pi * idx / order)
            labels[idx] = [(g >> (nb - 1 - b)) & 1 for b in range(nb)]
    elif scheme in ("qam", "m-qam", "square-qam"):
        if order is None or order < 4:
            raise ConfigError("square M-QAM needs an order >= 4")
        side = int(round(math.sqrt(order)))
        if side * side != order or 2 ** int(math.log2(order)) != order:
            raise ConfigError(f"square M-QAM order must be an even power of two, got {order}")
        nb_axis = int(math.log2(side))
        gray = _gray_code(nb_axis)
        pam = np.arange(side) * 2.0 - (side - 1)
        pts, labs = [], []
        for gi, i in enumerate(range(side)):
            for gq, q in enumerate(range(side)):
                pts.append(pam[i] + 1j * pam[q])
                bits_i = [(gray[i] >> (nb_axis - 1 - b)) & 1 for b in range(nb_axis)]
                bits_q = [(gray[q] >> (nb_axis - 1 - b)) & 1 for b in range(nb_axis)]
                labs.append(bits_i + bits_q)
        points = np.array(pts, dtype=complex)
        points = points / math.sqrt(float(np.mean(np.abs(points) ** 2)))
        labels = np.array(labs, dtype=np.uint8)
    elif scheme in ("pam", "m-pam"):
        if order is None or order < 2:
            raise ConfigError("M-PAM needs an order >= 2")
        nb = int(math.log2(order))
        if 2 ** nb != order:
            raise ConfigError(f"M-PAM order must be a power of two, got {order}")
        gray = _gray_code(nb)
        amps = np.arange(order) * 2.0 - (order - 1)
        points = (amps / math.sqrt(float(np.mean(amps ** 2)))).astype(complex)
        labels = np.array([[(gray[i] >> (nb - 1 - b)) & 1 for b in range(nb)]
                           for i in range(order)], dtype=np.uint8)
    else:
        raise ConfigError(f"scheme {scheme!r} has no waveform constellation")
    return Constellation(scheme=scheme, order=order, points=points, bit_labels=labels)


@dataclass(frozen=True)
class DdFrame:
    """Symbols on the delay-Doppler grid: M x N matrix, delay along rows."""

    symbols: np.ndarray

    def __post_init__(self):
        if self.symbols.ndim != 2:
            raise ConfigError("frame symbols must be an M x N matrix")

    @property
    def vectorized(self) -> np.ndarray:
        """Column-stacked MN vector."""
        return self.symbols.reshape(-1, order="F")

    @classmethod
    def from_vector(cls, vec: np.ndarray, grid: OtfsGrid) -> "DdFrame":
        if vec.size != grid.frame_size:
            raise ConfigError(f"vector length {vec.size} != frame size {grid.frame_size}")
        return cls(symbols=vec.reshape(grid.M, grid.N, order="F"))


@dataclass(frozen=True)
class ChannelMatrices:
    """Time-domain channel H and its delay-Doppler image H_eff."""

    H: np.ndarray
    H_eff: np.ndarray


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _dft_unitary(n: int) -> np.ndarray:
    return np.fft.fft(np.eye(n)) / math.sqrt(n)


def dd_to_time_operator(grid: OtfsGrid) -> np.ndarray:
    """(F_N^dagger kron I_M): maps the symbol vector to time samples."""
    return np.kron(_dft_unitary(grid.N).conj().T, np.eye(grid.M))


def time_to_dd_operator(grid: OtfsGrid) -> np.ndarray:
    """(F_N kron I_M): maps received time samples to the delay-Doppler grid."""
    return np.kron(_dft_unitary(grid.N), np.eye(grid.M))


def cyclic_shift_matrix(n: int, shift: int = 1) -> np.ndarray:
    """Permutation matrix advancing samples by `shift` (delay operator)."""
    return np.roll(np.eye(n), shift % n, axis=0)


def doppler_matrix(n: int, exponent: float) -> np.ndarray:
    """diag(alpha^(0..n-1))^exponent with alpha = exp(2j pi / n)."""
    return np.diag(np.exp(2j * math.pi * exponent * np.arange(n) / n))


def build_channel_matrix(paths, grid: OtfsGrid) -> ChannelMatrices:
    """Assemble H = sum_p h_p Pi^l_p Delta^(k_p + kappa_p) and its DD image.

    `paths` is a sequence of (gain, l, k, kappa) tuples.
    """
    mn = grid.frame_size
    norm = [(complex(h), int(l), float(k) + float(kappa))
            for h, l, k, kappa in paths]
    if not norm:
        raise ConfigError("channel needs at least one path")
    for _, l, _ in norm:
        if not (0 <= l < mn):
            raise ConfigError(f"delay index {l} outside [0, {mn})")

    H = np.zeros((mn, mn), dtype=complex)
    for h, l, dopp in norm:
        H += h * cyclic_shift_matrix(mn, l) @ doppler_matrix(mn, dopp)
    U = time_to_dd_operator(grid)
    V = dd_to_time_operator(grid)
    return ChannelMatrices(H=H, H_eff=U @ H @ V)


# ---------------------------------------------------------------------------
# Links and detection
# ---------------------------------------------------------------------------

def otfs_link(frame: DdFrame, channel: ChannelMatrices, noise: np.ndarray,
              grid: OtfsGrid, noise_domain: str = "time") -> np.ndarray:
    """Received delay-Doppler vector y = H_eff x + transformed noise.

    noise_domain "time" applies the receive-side DD transform to the noise
    (the physical chain); "dd" injects it directly, which is statistically
    identical for white noise because the transform is unitary.
    """
    x = frame.vectorized
    noise = np.asarray(noise)
    if noise.shape != x.shape:
        raise ConfigError(f"noise shape {noise.shape} != frame vector {x.shape}")
    if noise_domain == "time":
        w = time_to_dd_operator(grid) @ noise
    elif noise_domain == "dd":
        w = noise
    else:
        raise ConfigError(f"unknown noise domain {noise_domain!r}")
    return channel.H_eff @ x + w


@lru_cache(maxsize=16)
def _candidate_indices(order: int, n_sym: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(order)] * n_sym), indexing="ij")
    idx = np.stack(grids, axis=-1).reshape(-1, n_sym)
    # every caller shares this array
    idx.flags.writeable = False
    return idx


def candidate_indices(order: int, n_sym: int) -> np.ndarray:
    """The order^n_sym index vectors of n_sym symbols in lexicographic order,
    at most DEFAULT_ML_CAP of them; cached and read-only."""
    required = order ** n_sym
    if required > DEFAULT_ML_CAP:
        raise CapacityError(required, DEFAULT_ML_CAP)
    return _candidate_indices(order, n_sym)


def enumerate_candidates(constellation: Constellation, n_sym: int) -> tuple:
    """(index matrix, symbol matrix) of all |A|^n_sym hypotheses, at most
    DEFAULT_ML_CAP of them."""
    idx = candidate_indices(constellation.order, n_sym)
    return idx, constellation.points[idx]


def ml_detect(y: np.ndarray, H_eff: np.ndarray,
              constellation: Constellation) -> np.ndarray:
    """Exhaustive ML: argmin over all symbol vectors of ||y - H_eff x||^2.

    Ties resolve to the lowest lexicographic symbol-index order (np.argmin
    returns the first minimizer and candidates are enumerated in
    lexicographic order), so detection is deterministic.
    """
    y = np.asarray(y)
    n_sym = y.size
    if H_eff.shape != (n_sym, n_sym):
        raise ConfigError(f"H_eff shape {H_eff.shape} incompatible with y of length {n_sym}")
    idx, cands = enumerate_candidates(constellation, n_sym)
    dist = np.abs(y[None, :] - cands @ H_eff.T) ** 2
    best = int(np.argmin(dist.sum(axis=1)))
    return idx[best]


def ofdm_effective_channel(H: np.ndarray, grid: OtfsGrid) -> np.ndarray:
    """(I_N kron F_M) H (I_N kron F_M^dagger): H through the per-symbol DFT."""
    FM = _dft_unitary(grid.M)
    A = np.kron(np.eye(grid.N), FM)
    return A @ H @ A.conj().T
