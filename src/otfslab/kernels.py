"""Hot Monte Carlo kernels: frame-level ML detection and bit-error counting.

There is one backend, numpy.

Frames of both chains (OTFS and CP-OFDM) see the effective channel
``H = sum_p h_p A_p``, with the path operators ``A_p`` fixed per preset.
Exhaustive ML minimises the expanded metric

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

Independent blocks.  Symbols i and j are linked when some operator has
``|A_p[i, j]| > _DIAGONAL_RTOL * max|A_p|`` (the largest modulus, since a
delayed path's diagonal is zero), and the blocks are the connected
components of the links (``independent_blocks``).  No operator mixes two
blocks, so for every gain draw ``H`` is block diagonal up to a permutation
and ``||y - H c||^2`` is a sum of per-block terms: exact ML detects each
block on its own, over ``order^s_k`` candidates of its ``s_k`` symbols, and
the lexicographically first joint minimiser is the combination of each
block's lexicographically first minimiser (at the first symbol where another
joint minimiser differs, that symbol's block already prefers the lower
index).  With integer delays and Dopplers every path operator is a
phase-weighted cyclic shift on the delay-Doppler grid, so the paper's 2x2
grid with paths at l = 0 and l = 1 splits into {0, 1} and {2, 3}: 2 x 16
candidates instead of 256.  A fractional Doppler spreads a path over the
Doppler axis and may leave one block, which is the plain joint search.
Entries within the tolerance are numerical residue of the DFT round trip;
detection neglects them, so it can differ from the full metric only where
two candidates' distances agree to about that tolerance.

Blocks of one symbol are the diagonal case (``symbol_wise``): then
``H = sum_p h_p A_p`` is diagonal for every gain draw, with
``lambda = sum_p h_p phi_p`` on its diagonal (``phi_p = diag(A_p)``), and
each symbol's lowest minimising point index is the lexicographically first
joint minimiser.  This holds for the CP-OFDM chain always (the per-symbol
DFT diagonalises each path's circulant delay) and for one path with
l = k = kappa = 0, whose operator is the identity up to the DFT round trip.
The symbol-wise kernel works on ``(MN, frames)`` arrays, frames on the long
contiguous axis, about ``_DIAG_BLOCK_SYMBOLS`` symbols at a time so the
temporaries stay cache-resident.  It forms ``y = (scale lambda) p + noise``
with the operations, and operand order, of the direct ``(F, MN, order)``
formula, and then decides each symbol one of two ways:

- a sign slicer when ``points`` equal ``modem.make_constellation``'s BPSK
  ``[1, -1]`` or Gray QPSK ``[(+-1 +-j)/sqrt 2]`` table exactly (a property
  of the input, so no option selects it).  Every point has the same modulus,
  so ``|y - (scale lambda) p_c|^2`` is least where ``Re(conj(p_c) z)`` is
  greatest, with ``z = conj(scale lambda) y``: BPSK decides
  ``Re z < 0`` and QPSK ``2 (Re z < 0) + (Im z < 0)``.  A zero, -0.0
  included, is not ``< 0``, so a tie goes to the lower point index.
  Decisions equal the distance comparison except where ``|Re z|`` or
  ``|Im z|`` is at rounding level.
- for every other table, a running minimum over the points in index order:
  a decision moves to point ``c`` only where ``d_c`` is strictly smaller
  than the best so far, so ties resolve to the lowest point index as
  ``np.argmin`` does.  Each ``d_c = |y - (scale lambda) p_c|^2`` is formed
  as the direct formula forms it, without its array, so distances and
  decisions are bit-identical to it.

Either way the lowest point index per symbol is the lexicographically first
joint minimiser, the rule of ``modem.ml_detect``.
"""

from __future__ import annotations

import math

import numpy as np

from . import modem

# Bytes of the (chunk, C) float64 block of candidate metrics: frames are
# processed in row chunks sized so that the block stays about this large.
_CHUNK_BYTES = 8 << 20

# An operator entry links its row and column symbols when its modulus exceeds
# this times the operator's largest modulus.
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


def _aligned(nbytes: int) -> int:
    return -(-nbytes // 64) * 64


def _nbytes(specs) -> int:
    """Bytes ``_carve`` takes for these (shape, dtype) pairs."""
    return sum(_aligned(math.prod(shape) * np.dtype(dtype).itemsize)
               for shape, dtype in specs)


def _carve(buf, specs) -> list:
    """Arrays of the given (shape, dtype) pairs, laid out one after another
    from the start of the uint8 array buf at 64-byte boundaries."""
    out, start = [], 0
    for shape, dtype in specs:
        n = math.prod(shape) * np.dtype(dtype).itemsize
        out.append(buf[start:start + n].view(dtype).reshape(shape))
        start += _aligned(n)
    return out


# ---------------------------------------------------------------------------
# Matrix-channel frames: the frame's effective channel is sum_p h_p * A_p.
# ---------------------------------------------------------------------------

def _support(A_ops) -> np.ndarray:
    """(MN, MN) bool: entry (i, j) of some operator exceeds ``_DIAGONAL_RTOL``
    times that operator's largest modulus."""
    mag = np.abs(A_ops)
    return (mag > _DIAGONAL_RTOL * mag.max(axis=(1, 2), keepdims=True)).any(axis=0)


def symbol_wise(A_ops) -> bool:
    """True when ``matrix_frame_errors`` detects frames over these path
    operators symbol by symbol: no operator links two symbols, i.e. every
    ``independent_blocks`` block has one symbol and every frame's channel is
    diagonal.  Such batches build no candidate table."""
    links = _support(A_ops)
    np.fill_diagonal(links, False)
    return not links.any()


def independent_blocks(A_ops) -> list:
    """The symbol index sets that no operator mixes (module docstring): the
    connected components of the operators' joint support, each as ascending
    indices, ordered by their lowest index."""
    reach = _support(A_ops)
    reach |= reach.T
    np.fill_diagonal(reach, True)
    while True:
        # squaring doubles the path length reach covers
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    lowest = reach.argmax(axis=1)
    return [np.flatnonzero(lowest == i) for i in np.unique(lowest)]


def matrix_frame_errors(A_ops, gains, sym_idx, noise, points, cand_idx,
                        cand_pts, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) over a batch of frames.

    A_ops (P, MN, MN) path operators; gains (F, P); sym_idx (F, MN) indices
    into points; noise (F, MN); hamming (order, order) bit distances.
    cand_idx and cand_pts are not read and may be None: each block's
    candidates are built here.

    Exact ML with ``ml_detect``'s tie rule, by ``independent_blocks`` (module
    docstring):

    - every block one symbol (``symbol_wise``, checked first): the batch
      goes to ``diag_frame_errors`` with ``phi = diag(A_p)`` and unit scale;
    - otherwise one search per block over the lexicographic table of its
      symbols (``modem.candidate_indices``), one block being the joint
      search; building the tables raises ``CapacityError`` when the largest
      block has too many candidates.
    """
    if symbol_wise(A_ops):
        return diag_frame_errors(np.diagonal(A_ops, axis1=1, axis2=2), 1.0,
                                 gains, sym_idx, noise, points, hamming)
    blocks = independent_blocks(A_ops)
    tables = []
    for b in blocks:
        idx = modem.candidate_indices(len(points), len(b))
        tables.append((idx, points[idx]))
    return _block_frame_errors(A_ops, blocks, tables, gains, sym_idx, noise,
                               points, hamming)


def _block_frame_errors(A_ops, blocks, tables, gains, sym_idx, noise, points,
                        hamming) -> tuple:
    """``matrix_frame_errors`` by one search per block: block k holds the
    symbols ``blocks[k]`` and ``tables[k]`` is its (index, symbol) candidate
    table.  One block over all symbols does the arithmetic of a single joint
    search.

    The batch-sized work arrays are carved out of one allocation per call,
    the arrays of successive steps from the same bytes.  Freed, that block
    raises glibc's dynamic mmap threshold above the batch's other
    temporaries, as the joint search's metric block did; as a dozen arrays
    of a few hundred KiB they let glibc trim and regrow its heap on every
    batch, and the page faults cost more than the smaller search saves.
    """
    P, MN, _ = A_ops.shape
    F = len(gains)
    ctype = np.result_type(points, A_ops, gains, noise)
    rtype = np.finfo(ctype).dtype
    itype = tables[0][0].dtype
    smax = max(len(b) for b in blocks)
    n_metric = max(min(_chunk_rows(len(pts)), F) * len(pts) for _, pts in tables)
    kept = [((F, MN), ctype), ((F, P), ctype), ((F, P * P), ctype),
            ((F,), np.intp), ((F, MN), itype)]
    steps = ([((F, MN), points.dtype), ((P, F, MN), ctype)],
             [((F * smax,), ctype), ((F * P * smax,), ctype),
              ((F * 2 * (P * P + P * smax),), rtype), ((n_metric,), rtype),
              ((F * smax,), itype)],
             [((F, MN), hamming.dtype)])
    n_work = max(_nbytes(step) for step in steps)
    arena = np.empty(_nbytes(kept) + n_work, np.uint8)
    y, h, gp, best, det = _carve(arena, kept)
    work = arena[arena.size - n_work:]

    # y = sum_p h_p A_p x + noise
    x, ax = _carve(work, steps[0])
    np.take(points, sym_idx, out=x)
    np.einsum("fp,pfi->fi", gains, np.matmul(x, A_ops.transpose(0, 2, 1), out=ax),
              out=y)
    y += noise
    # features [conj(h_p) h_q, -2 h_p conj(y_i)] of the block's symbols i
    np.conjugate(gains, out=h)
    np.multiply(h[:, :, None], gains[:, None, :], out=gp.reshape(F, P, P))
    np.multiply(-2.0, gains, out=h)
    yb_all, t_all, feat_all, metric_all, db_all = _carve(work, steps[1])
    for b, (cand_idx, cand_pts) in zip(blocks, tables):
        s, C = len(b), len(cand_pts)
        A = A_ops[:, b[:, None], b]
        # metric[f, c] - ||y_f||^2 = Re(feat[f] . W[:, c]) with
        # W[:, c] = [G[p, q, c], (A_p c)_i]
        AC = np.matmul(cand_pts[None], A.transpose(0, 2, 1))
        G = np.einsum("pci,qci->pqc", AC.conj(), AC)
        W = np.concatenate([G.reshape(P * P, C),
                            AC.transpose(0, 2, 1).reshape(P * s, C)])
        # Re(a . b) = [Re a, Im a] . [Re b, -Im b]: one real product per chunk
        W = np.concatenate([W.real, -W.imag])
        yb = np.take(y, b, axis=1, out=yb_all[:F * s].reshape(F, s), mode="clip")
        t = t_all[:F * P * s].reshape(F, P * s)
        np.multiply(h[:, :, None], np.conjugate(yb, out=yb)[:, None, :],
                    out=t.reshape(F, P, s))
        w = P * P + P * s
        feat = feat_all[:F * 2 * w].reshape(F, 2 * w)
        feat[:, :P * P] = gp.real
        feat[:, P * P:w] = t.real
        feat[:, w:w + P * P] = gp.imag
        feat[:, w + P * P:] = t.imag
        rows = _chunk_rows(C)
        metric = metric_all[:min(rows, F) * C].reshape(-1, C)
        for lo in range(0, F, rows):
            n = min(rows, F - lo)
            np.argmin(np.matmul(feat[lo:lo + n], W, out=metric[:n]), axis=1,
                      out=best[lo:lo + n])
        det[:, b] = np.take(cand_idx, best, axis=0,
                            out=db_all[:F * s].reshape(F, s), mode="clip")
    # bit errors per symbol from the flat (decision, sent) index
    det *= len(points)
    det += sym_idx
    errors, = _carve(work, steps[2])
    np.take(hamming.ravel(), det, out=errors, mode="clip")
    return _per_frame_totals(errors.sum(axis=1))


# ---------------------------------------------------------------------------
# Diagonal frames: symbol q sees the flat gain lambda_q = sum_p h_p phi[p, q],
# so ML factorizes into per-symbol nearest-point decisions.  Complex products
# keep the direct formula's operand order (h_p phi_p, (scale lambda) p): with
# fused multiply-adds numpy's complex product is not bitwise commutative.
# ---------------------------------------------------------------------------

# Constellations the symbol-wise kernel decides by the signs of z (module
# docstring), as (table, sign axes): BPSK reads Re z, Gray QPSK Re z and Im z.
_SIGN_SLICED = ((modem.make_constellation("bpsk").points, 1),
                (modem.make_constellation("qpsk").points, 2))


def _diag_rows(mn: int) -> int:
    """Frames per block for mn symbols per frame."""
    return max(1, _DIAG_BLOCK_SYMBOLS // mn)


def _sign_axes(points) -> int:
    """Axes of z the sign slicer reads for these points, 0 for none."""
    for table, axes in _SIGN_SLICED:
        if points.shape == table.shape and np.array_equal(points, table):
            return axes
    return 0


def diag_frame_errors(phi, scale, gains, sym_idx, noise, points, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) for diagonal frames.

    phi (P, MN) the diagonals of the path operators; scale the data-symbol
    amplitude; gains (F, P); sym_idx (F, MN) indices into points;
    noise (F, MN); hamming (order, order) bit distances.  No argument is
    written to.

    Exact ML with ``ml_detect``'s tie rule (module docstring).  When
    ``points`` are exactly ``make_constellation``'s BPSK or Gray QPSK table,
    each symbol is decided by the signs of ``z = conj(scale lambda) y``,
    ``Re z < 0`` or ``2 (Re z < 0) + (Im z < 0)``, a zero going to the lower
    index; decisions equal the distance comparison except where ``|Re z|``
    or ``|Im z|`` is at rounding level.  Any other table takes a running
    minimum of the distances, bit-identical to the direct formula's argmin.
    """
    P, MN = phi.shape
    F = len(gains)
    order = len(points)
    scale = float(scale)
    ham = hamming.ravel()
    axes = _sign_axes(points)
    det_type = np.min_scalar_type(order - 1)
    per_frame = np.empty(F, dtype=np.int64)
    rows = _diag_rows(MN)
    for lo in range(0, F, rows):
        s = slice(lo, lo + rows)
        lam = np.zeros((MN, len(gains[s])), dtype=np.complex128)
        for p in range(P):
            lam += gains[s, p] * phi[p][:, None]
        sl = scale * lam
        # a view of the caller's sym_idx when the block holds one frame
        sym = np.ascontiguousarray(sym_idx[s].T)
        # a call, not `sl * points[sym]`: numpy may evaluate an operator whose
        # right operand is a large temporary with the operands swapped
        y = np.multiply(sl, points[sym]) + np.ascontiguousarray(noise[s].T)
        if axes:
            # z = conj(scale lambda) y, into y: sl and y are this block's own
            z = np.multiply(np.conjugate(sl, out=sl), y, out=y)
            det = (z.real < 0).view(np.uint8)
            if axes == 2:
                det = det << 1
                det |= (z.imag < 0).view(np.uint8)
        else:
            det = np.zeros(sym.shape, dtype=det_type)
            for c in range(order):
                diff = y - sl * points[c]
                dist = diff.real ** 2 + diff.imag ** 2
                if c == 0:
                    best = dist
                    continue
                # c grows, so the last strict improvement is the largest c
                # that improved: the first minimiser, as np.argmin picks it
                np.maximum(det, (dist < best).view(np.uint8) * det_type.type(c),
                           out=det)
                np.minimum(best, dist, out=best)
        per_frame[s] = ham[det.astype(np.intp) * order + sym].sum(axis=0)
    return _per_frame_totals(per_frame)
