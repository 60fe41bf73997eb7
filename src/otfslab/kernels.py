"""Hot Monte Carlo kernels: frame-level ML detection and bit-error counting.

There is one backend, numpy.

Matrix-channel frames (OTFS, and the shared-H OFDM reference) see the
effective channel ``H = sum_p h_p A_p``, with the path operators ``A_p``
fixed per preset.  Exhaustive ML minimises the expanded metric

    ||y - H c||^2 = ||y||^2 - 2 Re sum_p h_p <y, A_p c>
                    + sum_{p,q} conj(h_p) h_q G[p,q,c]

with ``<u, v> = u^H v`` and ``G[p,q,c] = <A_p c, A_q c>``.  ``||y||^2`` is the
same for every candidate and is dropped.  The candidate images ``A_p c`` and
the Gram terms are computed once per call, so the metric of a chunk of frames
against all candidates is one real matrix product: per-frame features (the
gain products ``conj(h_p) h_q`` and ``h_p conj(y)``) times per-candidate
columns (``G`` and ``A_p c``).  No per-frame channel matrix is formed.

Ties resolve to the lowest candidate index (``np.argmin`` returns the first
minimiser and candidates are enumerated in lexicographic order), the rule of
``modem.ml_detect``; decisions differ from the direct metric's only where two
candidates' distances agree to rounding.  Each frame's decision depends on
that frame's inputs alone, so error counts do not depend on how frames are
split into batches or chunks, and both returned sums are integer sums.
"""

from __future__ import annotations

import numpy as np

# Bytes of the (chunk, C) float64 block of candidate metrics: frames are
# processed in row chunks sized so that the block stays about this large.
_CHUNK_BYTES = 8 << 20


def active_backend() -> str:
    """Name of the kernel implementation, for run headers."""
    return "numpy"


def _chunk_rows(n_cand: int) -> int:
    """Frames per chunk for n_cand candidates."""
    return max(1, _CHUNK_BYTES // (8 * n_cand))


def _per_frame_totals(per_frame: np.ndarray) -> tuple:
    return int(per_frame.sum()), int((per_frame ** 2).sum())


# ---------------------------------------------------------------------------
# Matrix-channel frames: the frame's effective channel is sum_p h_p * A_p.
# ---------------------------------------------------------------------------

def matrix_frame_errors(A_ops, gains, sym_idx, noise, points, cand_idx,
                        cand_pts, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) over a batch of frames.

    A_ops (P, MN, MN) path operators; gains (F, P); sym_idx (F, MN) indices
    into points; noise (F, MN); cand_idx / cand_pts (C, MN) the candidate
    index and symbol vectors; hamming (order, order) bit distances.
    """
    P, MN, _ = A_ops.shape
    C = len(cand_pts)
    F = len(gains)
    # metric[f, c] - ||y_f||^2 = Re(feat[f] . W[:, c]) with
    # feat[f] = [conj(h_p) h_q, -2 h_p conj(y_i)], W[:, c] = [G[p, q, c], (A_p c)_i]
    AC = np.matmul(cand_pts[None], A_ops.transpose(0, 2, 1))
    G = np.einsum("pci,qci->pqc", AC.conj(), AC)
    W = np.concatenate([G.reshape(P * P, C),
                        AC.transpose(0, 2, 1).reshape(P * MN, C)])

    y = np.einsum("fp,pfi->fi", gains,
                  np.matmul(points[sym_idx], A_ops.transpose(0, 2, 1))) + noise
    feat = np.concatenate([
        (gains.conj()[:, :, None] * gains[:, None, :]).reshape(F, P * P),
        (-2.0 * gains[:, :, None] * y.conj()[:, None, :]).reshape(F, P * MN)],
        axis=1)
    # Re(a . b) = [Re a, Im a] . [Re b, -Im b]: one real product per chunk
    feat = np.concatenate([feat.real, feat.imag], axis=1)
    W = np.concatenate([W.real, -W.imag])
    best = np.empty(F, dtype=np.intp)
    rows = _chunk_rows(C)
    for lo in range(0, F, rows):
        best[lo:lo + rows] = np.argmin(feat[lo:lo + rows] @ W, axis=1)
    return _per_frame_totals(hamming[cand_idx[best], sym_idx].sum(axis=1))


# ---------------------------------------------------------------------------
# Subcarrier-diagonal frames (conventional CP-OFDM): each subcarrier sees a
# flat gain lambda_q = sum_p h_p phi[p, q]; per-block ML factorizes into
# per-subcarrier nearest-point decisions because the block channel is
# diagonal after the FFT.
# ---------------------------------------------------------------------------

def diag_frame_errors(phi, scale, gains, sym_idx, noise, points, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) for diagonal frames."""
    lam = np.zeros((gains.shape[0], phi.shape[1]), dtype=np.complex128)
    for p in range(phi.shape[0]):
        lam += gains[:, p, None] * phi[p]
    scale = float(scale)
    y = scale * lam * points[sym_idx] + noise
    ref = scale * lam[:, :, None] * points[None, None, :]
    diff = y[:, :, None] - ref
    dist = diff.real ** 2 + diff.imag ** 2
    det = np.argmin(dist, axis=2)
    return _per_frame_totals(hamming[det, sym_idx].sum(axis=1))
