"""Hot Monte Carlo kernels: frame-level ML detection and bit-error counting.

There is one backend, numpy.

Frames of every chain (OTFS, CP-OFDM and the shared-H OFDM reference) see
the effective channel ``H = sum_p h_p A_p``, with the path operators ``A_p``
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

Frames whose path operators are all diagonal skip the joint search: then
``H = sum_p h_p A_p`` is diagonal for every gain draw, with
``lambda = sum_p h_p phi_p`` on its diagonal (``phi_p = diag(A_p)``), so
``||y - H c||^2`` is a sum of per-symbol terms and the joint minimisers are
exactly the symbol vectors that minimise every term.  This holds for the
conventional CP-OFDM chain always (the per-symbol DFT diagonalises each
path's circulant delay) and for one path with l = k = kappa = 0, whose
operator is the identity up to the DFT round trip.  "Diagonal" means every
off-diagonal entry has modulus at most ``_DIAGONAL_RTOL`` times the smallest
diagonal modulus of its operator (``symbol_wise``), an ``O(P MN^2)`` test
made on every call.  The symbol-wise kernel works on ``(MN, frames)``
blocks, frames on the long contiguous axis, in blocks of about
``_DIAG_BLOCK_SYMBOLS`` symbols so the temporaries stay cache-resident.  It
visits the constellation points in index order and keeps a running minimum
distance per symbol; a decision moves to point ``c`` only where ``d_c`` is
strictly smaller than the best so far, so ties resolve to the lowest point
index as ``np.argmin`` does, and the lowest point index per symbol is the
lexicographically first joint minimiser, the rule of ``modem.ml_detect``.
Each ``d_c = |y - (scale lambda) p_c|^2`` is formed with the operations,
and operand order, of the direct ``(F, MN, order)`` formula, so distances
and decisions are bit-identical to it; no ``(F, MN, order)`` array is made.
"""

from __future__ import annotations

import numpy as np

# Bytes of the (chunk, C) float64 block of candidate metrics: frames are
# processed in row chunks sized so that the block stays about this large.
_CHUNK_BYTES = 8 << 20

# An operator counts as diagonal when no off-diagonal entry's modulus exceeds
# this times the smallest diagonal modulus.
_DIAGONAL_RTOL = 1e-12

# Symbols per (MN, frames) block of the diagonal kernel: frames are processed
# in blocks of this many symbols so that its temporaries stay cache-resident.
_DIAG_BLOCK_SYMBOLS = 8192


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

def symbol_wise(A_ops) -> bool:
    """True when ``matrix_frame_errors`` detects frames over these path
    operators symbol by symbol: every operator's off-diagonal entries are
    negligible (``_DIAGONAL_RTOL``), so every frame's channel is diagonal.
    Such batches read no candidate table."""
    n = A_ops.shape[-1]
    mag = np.abs(A_ops).reshape(len(A_ops), n * n)
    # a stride of n + 1 walks each flattened operator's diagonal
    floor = _DIAGONAL_RTOL * mag[:, ::n + 1].min(axis=1)
    mag[:, ::n + 1] = 0.0
    return bool((mag.max(axis=1) <= floor).all())


def matrix_frame_errors(A_ops, gains, sym_idx, noise, points, cand_idx,
                        cand_pts, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) over a batch of frames.

    A_ops (P, MN, MN) path operators; gains (F, P); sym_idx (F, MN) indices
    into points; noise (F, MN); cand_idx / cand_pts (C, MN) the candidate
    index and symbol vectors; hamming (order, order) bit distances.

    Diagonal operators (``symbol_wise``) are exact ML symbol by symbol: the
    batch goes to ``diag_frame_errors`` with ``phi = diag(A_p)`` and unit
    scale, which resolves ties to the lowest point index per symbol, i.e. to
    the lexicographically first joint minimiser (module docstring), and reads
    neither cand_idx nor cand_pts, which may then be None.  Every other batch
    takes the joint search over all C candidates.
    """
    if symbol_wise(A_ops):
        return diag_frame_errors(np.diagonal(A_ops, axis1=1, axis2=2), 1.0,
                                 gains, sym_idx, noise, points, hamming)
    return _joint_frame_errors(A_ops, gains, sym_idx, noise, points, cand_idx,
                               cand_pts, hamming)


def _joint_frame_errors(A_ops, gains, sym_idx, noise, points, cand_idx,
                        cand_pts, hamming) -> tuple:
    """``matrix_frame_errors`` by the joint search over all candidates."""
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
# Diagonal frames: symbol q sees the flat gain lambda_q = sum_p h_p phi[p, q],
# so ML factorizes into per-symbol nearest-point decisions.  Complex products
# keep the direct formula's operand order (h_p phi_p, (scale lambda) p): with
# fused multiply-adds numpy's complex product is not bitwise commutative.
# ---------------------------------------------------------------------------

def _diag_rows(mn: int) -> int:
    """Frames per block for mn symbols per frame."""
    return max(1, _DIAG_BLOCK_SYMBOLS // mn)


def diag_frame_errors(phi, scale, gains, sym_idx, noise, points, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) for diagonal frames.

    phi (P, MN) the diagonals of the path operators; scale the data-symbol
    amplitude; gains (F, P); sym_idx (F, MN) indices into points;
    noise (F, MN); hamming (order, order) bit distances.
    """
    P, MN = phi.shape
    F = len(gains)
    order = len(points)
    scale = float(scale)
    ham = hamming.ravel()
    det_type = np.min_scalar_type(order - 1)
    per_frame = np.empty(F, dtype=np.int64)
    rows = _diag_rows(MN)
    for lo in range(0, F, rows):
        s = slice(lo, lo + rows)
        lam = np.zeros((MN, len(gains[s])), dtype=np.complex128)
        for p in range(P):
            lam += gains[s, p] * phi[p][:, None]
        sl = scale * lam
        sym = np.ascontiguousarray(sym_idx[s].T)
        # a call, not `sl * points[sym]`: numpy may evaluate an operator whose
        # right operand is a large temporary with the operands swapped
        y = np.multiply(sl, points[sym]) + np.ascontiguousarray(noise[s].T)
        det = np.zeros(sym.shape, dtype=det_type)
        for c in range(order):
            diff = y - sl * points[c]
            dist = diff.real ** 2 + diff.imag ** 2
            if c == 0:
                best = dist
                continue
            # c grows, so the last strict improvement is the largest c that
            # improved: the first minimiser, as np.argmin picks it
            np.maximum(det, (dist < best).view(np.uint8) * det_type.type(c),
                       out=det)
            np.minimum(best, dist, out=best)
        per_frame[s] = ham[det.astype(np.intp) * order + sym].sum(axis=0)
    return _per_frame_totals(per_frame)
