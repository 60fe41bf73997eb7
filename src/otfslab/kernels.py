"""Hot Monte Carlo kernels: frame-level ML detection and bit-error counting.

There is one backend, numpy.

Frames of both chains (OTFS and CP-OFDM) see the effective channel
``H = sum_p h_p A_p``, with the path operators ``A_p`` fixed per preset.
Exhaustive ML minimises the expanded metric

    ||y - H c||^2 = ||y||^2 - 2 Re sum_p h_p <y, A_p c>
                    + sum_{p,q} conj(h_p) h_q G[p,q,c]

with ``<u, v> = u^H v`` and ``G[p,q,c] = <A_p c, A_q c>``.  ``||y||^2`` is the
same for every candidate and is dropped.  The metric of a chunk of frames
against all candidates is then one real matrix product: per-frame features
(the gain products ``conj(h_p) h_q`` and ``h_p conj(y)``) times
per-candidate columns (``G`` and ``A_p c``).  No per-frame channel matrix is
formed.

One plan per operator set.  ``plan(A_ops, points)`` decides the route and
builds what it reads: on the symbol-wise route the operators' diagonals, on
the block route each block's symbols, lexicographic candidate table and
real weight matrix.  It is memoized on the contents of its arguments (a
small LRU; a ``CapacityError`` is raised again on every call, never kept),
so ``matrix_frame_errors`` plans a chain on its first batch and looks the
plan up on every later one, and a sweep that plans its chains at set-up
fails there, before any draw.  ``matrix_frame_errors`` keeps its
``cand_idx`` and ``cand_pts`` parameters for the callers that still pass
them; it reads neither.

The block search runs frame-major, out of one arena.  ``y`` is formed as
(MN, F), so each symbol's frames are one contiguous row: ``A_p x`` for
every path in one batched product, scaled by the path's gain row and added
to a copy of the noise.  Each feature column is one 1-D product written into
a row-major (F, w) complex array, and its float64 view, whose rows
interleave real and imaginary parts, times the block's weights (rows
interleaving Re and -Im) is the chunk's (F, C) metric in one dgemm, with
the argmin over contiguous rows.  The batch-sized work arrays are carved out
of a single allocation per call (``_block_frame_errors``).  No kernel writes
to its arguments.

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

Blocks of one symbol are the diagonal case: then ``H = sum_p h_p A_p`` is
diagonal for every gain draw, with ``lambda = sum_p h_p phi_p`` on its
diagonal (``phi_p = diag(A_p)``), and each symbol's lowest minimising point
index is the lexicographically first joint minimiser.  This holds for the
CP-OFDM chain always (the per-symbol DFT diagonalises each path's circulant
delay) and for one path with l = k = kappa = 0, whose operator is the
identity up to the DFT round trip.  Such operators take the symbol-wise
route when ``points`` also equal ``modem.make_constellation``'s BPSK
``[1, -1]`` or Gray QPSK ``[(+-1 +-j)/sqrt 2]`` table exactly (a property
of the input, so no option selects it); with any other table they are
searched as one-symbol blocks, ``order`` candidates per symbol, and ties
still go to the lowest lexicographic index.

The symbol-wise kernel works on ``(MN, frames)`` arrays, frames on the long
contiguous axis, about ``_DIAG_BLOCK_SYMBOLS`` symbols at a time so the
temporaries stay cache-resident.  It forms ``y = (scale lambda) p + noise``
with the operations, and operand order, of the direct ``(F, MN, order)``
formula, and decides each symbol by a sign slicer.  Every point has the same
modulus, so ``|y - (scale lambda) p_c|^2`` is least where
``Re(conj(p_c) z)`` is greatest, with ``z = conj(scale lambda) y``: BPSK
decides ``Re z < 0`` and QPSK ``2 (Re z < 0) + (Im z < 0)``.  A zero, -0.0
included, is not ``< 0``, so a tie goes to the lower point index.  Decisions
equal the distance comparison except where ``|Re z|`` or ``|Im z|`` is at
rounding level.  A decision's bit errors are ``hamming[decision, sent]``;
when ``hamming`` is ``popcount(i ^ j)`` of the two indices
(``make_constellation``'s BPSK and Gray QPSK labels are the indices in
binary), they are counted as the set bits of ``decision ^ sent`` on uint8
arrays instead of gathered.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

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


def _check_no_negative(sym_idx) -> None:
    """Raise IndexError for a negative symbol index.  An index past the
    points raises where the points are gathered, but numpy reads a negative
    one from the end, which would count errors against a wrong symbol."""
    if sym_idx.size and sym_idx.min() < 0:
        raise IndexError(f"symbol index {sym_idx.min()} is negative")


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
    # a block's lowest index is its own lowest; not np.unique, which imports
    # numpy.ma (about 1 MB resident) into runs that plan no other search
    return [np.flatnonzero(lowest == i)
            for i in np.flatnonzero(lowest == np.arange(len(lowest)))]


class _Block(NamedTuple):
    """One block's search: its symbols ``idx`` (ascending), the lexicographic
    (C, s) candidate index table ``cand`` of those symbols, and the real
    (2w, C) weights ``W`` with w = P^2 + P s.  Column c of the complex weights
    is [G[p, q, c] for p, q; (A_p c)_i for p, i], and the rows of ``W``
    interleave (Re, -Im) of each, so that ``feat.view(float64) @ W`` is
    Re(feat . column) for a complex feature row ``feat`` of length w."""

    idx: np.ndarray
    cand: np.ndarray
    W: np.ndarray


class _Plan(NamedTuple):
    """A set of path operators' search: ``phi`` (P, MN), the operators'
    diagonals, on the symbol-wise route (every block one symbol, and a
    sign-sliced table), else None and one ``_Block`` per independent block
    in ``blocks``."""

    phi: np.ndarray | None
    blocks: tuple


def _readonly(a: np.ndarray) -> np.ndarray:
    # every call that finds the plan in the memo shares its arrays
    a.flags.writeable = False
    return a


def _block_search(A_ops, points, blocks) -> tuple:
    """The ``_Block`` of each symbol index set in blocks; raises
    ``CapacityError`` when a block has too many candidates."""
    P = len(A_ops)
    out = []
    for b in blocks:
        b = np.array(b, dtype=np.intp)
        cand = modem.candidate_indices(len(points), len(b))
        C = len(cand)
        # AC[p, c] = A_p c restricted to the block
        AC = np.matmul(points[cand][None], A_ops[:, b[:, None], b].transpose(0, 2, 1))
        G = np.einsum("pci,qci->pqc", AC.conj(), AC)
        Wc = np.concatenate([G.reshape(P * P, C),
                             AC.transpose(0, 2, 1).reshape(P * len(b), C)])
        # Re(a b) = Re a Re b - Im a Im b
        W = np.empty((2 * len(Wc), C))
        W[0::2] = Wc.real
        W[1::2] = -Wc.imag
        out.append(_Block(_readonly(b), cand, _readonly(W)))
    return tuple(out)


# Operator sets whose plans ``plan`` keeps; a sweep runs at most two chains
# at a time.
_PLAN_MEMO = 8


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _memo_plan(shape, dtype, ops_bytes, pshape, pdtype, points_bytes) -> _Plan:
    A_ops = np.frombuffer(ops_bytes, dtype).reshape(shape)
    points = np.frombuffer(points_bytes, pdtype).reshape(pshape)
    blocks = independent_blocks(A_ops)
    if all(len(b) == 1 for b in blocks) and _sign_axes(points):
        return _Plan(_readonly(np.diagonal(A_ops, axis1=1, axis2=2).copy()), ())
    return _Plan(None, _block_search(A_ops, points, blocks))


def plan(A_ops, points) -> _Plan:
    """The ML search of these path operators over these points, built once:
    the route, and on the block route each block's candidate table and
    weights.  Memoized on the arrays' contents (shape, dtype and bytes), at
    most ``_PLAN_MEMO`` operator sets, least recently used out first; raises
    ``CapacityError`` when the largest block has too many candidates, on
    every call, as no failed plan is kept."""
    A_ops, points = np.asarray(A_ops), np.asarray(points)
    return _memo_plan(A_ops.shape, A_ops.dtype.str, A_ops.tobytes(),
                      points.shape, points.dtype.str, points.tobytes())


def matrix_frame_errors(A_ops, gains, sym_idx, noise, points, cand_idx,
                        cand_pts, hamming) -> tuple:
    """(bit errors, sum of squared per-frame errors) over a batch of frames.

    A_ops (P, MN, MN) path operators; gains (F, P); sym_idx (F, MN) indices
    into points; noise (F, MN); hamming (order, order) bit distances.  No
    argument is written to.  cand_idx and cand_pts are not read and may be
    None: the search's candidates come from ``plan(A_ops, points)``.

    Exact ML with ``ml_detect``'s tie rule, by ``independent_blocks`` (module
    docstring), on the route that the memoized ``plan`` holds:

    - every block one symbol and ``points`` the BPSK or Gray QPSK table:
      the batch goes to ``diag_frame_errors`` with ``phi = diag(A_p)`` and
      unit scale;
    - otherwise one search per block over the lexicographic table of its
      symbols (``modem.candidate_indices``), one block being the joint
      search and one-symbol blocks the diagonal case of any other table;
      planning raises ``CapacityError`` when the largest block has too many
      candidates.
    """
    p = plan(A_ops, points)
    if p.phi is not None:
        return diag_frame_errors(p.phi, 1.0, gains, sym_idx, noise, points,
                                 hamming)
    return _block_frame_errors(A_ops, p.blocks, gains, sym_idx, noise, points,
                               hamming)


def _block_frame_errors(A_ops, blocks, gains, sym_idx, noise, points,
                        hamming) -> tuple:
    """``matrix_frame_errors`` by one search per ``_Block`` of blocks, frame-
    major (module docstring).  One block over all symbols does the
    arithmetic of a single joint search.

    The batch-sized work arrays are carved out of one allocation per call,
    the arrays of successive steps from the same bytes.  Freed, that block
    raises glibc's dynamic mmap threshold above the batch's other
    temporaries, as the joint search's metric block did; as a dozen arrays
    of a few hundred KiB they let glibc trim and regrow its heap on every
    batch, and the page faults cost more than the smaller search saves.
    """
    _check_no_negative(sym_idx)
    P, MN, _ = A_ops.shape
    F = len(gains)
    ctype = np.result_type(points, A_ops, gains, noise)
    rtype = np.finfo(ctype).dtype
    n_feat = P * P + P * max(len(blk.idx) for blk in blocks)
    n_metric = max(min(_chunk_rows(blk.W.shape[1]), F) * blk.W.shape[1]
                   for blk in blocks)
    kept = [((MN, F), ctype), ((P, F), ctype), ((F,), np.intp), ((MN, F), np.intp)]
    steps = ([((MN, F), points.dtype), ((P, MN, F), ctype)],
             [((F, n_feat), ctype), ((n_metric,), rtype)],
             [((MN, F), hamming.dtype)])
    n_work = max(_nbytes(step) for step in steps)
    arena = np.empty(_nbytes(kept) + n_work, np.uint8)
    y, g, best, det = _carve(arena, kept)
    work = arena[arena.size - n_work:]

    # y = sum_p h_p A_p x + noise
    x, ax = _carve(work, steps[0])
    np.take(points, sym_idx.T, out=x)
    np.matmul(A_ops, x, out=ax)
    np.copyto(g, gains.T)
    np.copyto(y, noise.T)
    for p in range(P):
        y += np.multiply(ax[p], g[p], out=ax[p])
    # features [conj(h_p) h_q, -2 h_p conj(y_i)]: the gain products of every
    # block, then each block's own columns
    feat_all, metric_all = _carve(work, steps[1])
    for p in range(P):
        hp = np.conjugate(g[p])
        for q in range(P):
            np.multiply(hp, g[q], out=feat_all[:, p * P + q])
    g *= -2.0
    np.conjugate(y, out=y)
    for blk in blocks:
        s, C = len(blk.idx), blk.W.shape[1]
        w = P * P + P * s
        for p in range(P):
            for j, i in enumerate(blk.idx):
                np.multiply(g[p], y[i], out=feat_all[:, P * P + p * s + j])
        # metric[f, c] - ||y_f||^2 = Re(feat[f] . W[:, c]), one real product
        # per chunk of frames
        feat = feat_all[:, :w].view(rtype)
        rows = _chunk_rows(C)
        metric = metric_all[:min(rows, F) * C].reshape(-1, C)
        for lo in range(0, F, rows):
            n = min(rows, F - lo)
            np.argmin(np.matmul(feat[lo:lo + n], blk.W, out=metric[:n]), axis=1,
                      out=best[lo:lo + n])
        for j, i in enumerate(blk.idx):
            np.take(blk.cand[:, j], best, out=det[i], mode="clip")
    # bit errors per symbol from the flat (decision, sent) index
    det *= len(points)
    det += sym_idx.T
    errors, = _carve(work, steps[2])
    np.take(hamming.ravel(), det, out=errors, mode="clip")
    return _per_frame_totals(errors.sum(axis=0))


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

# popcount(i ^ j) for the 2^axes point indices i, j of a sign-sliced table:
# the bit distances when each point's label is its index in binary
_INDEX_BIT_DISTANCES = {
    axes: np.array([[bin(i ^ j).count("1") for j in range(2 ** axes)]
                    for i in range(2 ** axes)])
    for _, axes in _SIGN_SLICED}


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

    Exact ML (module docstring) for ``make_constellation``'s BPSK and Gray
    QPSK tables: each symbol is decided by the signs of
    ``z = conj(scale lambda) y``, ``Re z < 0`` or
    ``2 (Re z < 0) + (Im z < 0)``, and a zero goes to the lower index, so
    ties go to the lowest lexicographic index.  Any other table raises
    ``ValueError``; ``matrix_frame_errors`` searches it.  Bit errors are
    read from ``hamming``, or, with ``hamming[i, j] = popcount(i ^ j)``,
    counted from the index bits.
    """
    axes = _sign_axes(points)
    if not axes:
        raise ValueError("diag_frame_errors decides only the BPSK and Gray "
                         "QPSK tables; matrix_frame_errors searches any other")
    _check_no_negative(sym_idx)
    P, MN = phi.shape
    F = len(gains)
    order = len(points)
    scale = float(scale)
    ham = hamming.ravel()
    # the decision's bits that differ from the sent index's are the errors
    bit_xor = np.array_equal(hamming, _INDEX_BIT_DISTANCES[axes])
    per_frame = np.empty(F, dtype=np.int64)
    rows = _diag_rows(MN)
    for lo in range(0, F, rows):
        s = slice(lo, lo + rows)
        lam = gains[s, 0] * phi[0][:, None]
        for p in range(1, P):
            lam += gains[s, p] * phi[p][:, None]
        sl = scale * lam
        # a view of the caller's sym_idx when the block holds one frame
        sym = np.ascontiguousarray(sym_idx[s].T)
        # a call, not `sl * points[sym]`: numpy may evaluate an operator whose
        # right operand is a large temporary with the operands swapped
        y = np.multiply(sl, points[sym]) + np.ascontiguousarray(noise[s].T)
        # z = conj(scale lambda) y, into y: sl and y are this block's own
        z = np.multiply(np.conjugate(sl, out=sl), y, out=y)
        det = (z.real < 0).view(np.uint8)
        if axes == 2:
            det = det << 1
            det |= (z.imag < 0).view(np.uint8)
        if bit_xor:
            # det is this block's own uint8 array; an error pattern e of
            # QPSK's two bits has e - (e >> 1) of them set
            det ^= sym.astype(np.uint8)
            if axes == 2:
                det -= det >> 1
            per_frame[s] = det.sum(axis=0)
        else:
            per_frame[s] = ham[det.astype(np.intp) * order + sym].sum(axis=0)
    return _per_frame_totals(per_frame)
