"""Batched kernels against per-frame references.

The matrix kernel is checked against the per-frame modem chain
(``otfs_link`` / ``ofdm_link`` + ``ml_detect``) one frame at a time, and
against a direct-metric reference ``argmin ||y - H_f c||^2`` on whole
batches; its counts must not depend on how a batch is split into chunks.
"""

import math

import numpy as np
import pytest

from otfslab import engine, kernels, modem
from otfslab.fading import PathSpec, make_stream, sample_nakagami_gains
from otfslab.modem import DdFrame, OtfsGrid, make_constellation

TWO_PATHS = (PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1))

# name -> (grid, scheme, paths, waveform); "ofdm" is the CP-free shared-H chain
CASES = {
    "otfs-two-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", TWO_PATHS, "otfs"),
    "otfs-fractional-doppler": (OtfsGrid(M=4, N=2), "bpsk",
                                (PathSpec(m=2, omega=1.0, l=1, k=1, kappa=0.3),),
                                "otfs"),
    "ofdm-shared-two-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", TWO_PATHS, "ofdm"),
}
SIGMAS = (1.0, 0.3, 0.05, 0.01, 1e-3)


def path_ops(grid, paths, waveform):
    """Unit-gain path operators from the modem's channel builder."""
    ops = []
    for s in paths:
        ch = modem.build_channel_matrix([(1.0, s.l, s.k, s.kappa)], grid)
        ops.append(ch.H_eff if waveform == "otfs"
                   else modem.ofdm_effective_channel(ch.H, grid))
    return np.stack(ops)


def make_batch(case, seed, sigma, nf):
    """Kernel arguments of one fixed-seed batch, drawn as the engine draws."""
    grid, scheme, paths, waveform = CASES[case]
    const = make_constellation(scheme)
    mn = grid.frame_size
    cand_idx, cand_pts = modem.enumerate_candidates(const, mn)
    rng = make_stream(seed, 0)
    gains = sample_nakagami_gains(paths, rng, nf)
    sym_idx = rng.integers(0, const.order, (nf, mn))
    noise = (rng.standard_normal((nf, mn))
             + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
    return (path_ops(grid, paths, waveform), gains, sym_idx, noise,
            const.points, cand_idx, cand_pts, engine._hamming_table(const))


def direct_metric_errors(ops, gains, sym_idx, noise, points, cand_idx,
                         cand_pts, hamming):
    """Per frame, argmin over candidates of ||y - H_f c||^2 with
    H_f = sum_p h_p A_p; returns the kernel's (errors, errors_sq)."""
    per_frame = []
    for h, s, w in zip(gains, sym_idx, noise):
        H = np.tensordot(h, ops, axes=1)
        y = H @ points[s] + w
        dist = (np.abs(y - cand_pts @ H.T) ** 2).sum(axis=1)
        per_frame.append(hamming[cand_idx[np.argmin(dist)], s].sum())
    per_frame = np.array(per_frame)
    return int(per_frame.sum()), int((per_frame ** 2).sum())


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matrix_kernel_matches_per_frame_chain(case, sigma):
    grid, scheme, paths, waveform = CASES[case]
    const = make_constellation(scheme)
    batch = make_batch(case, 11 + SIGMAS.index(sigma), sigma, 256)
    ops, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming = batch
    got, want = [], []
    for f in range(len(gains)):
        e, e_sq = kernels.matrix_frame_errors(
            ops, gains[f:f + 1], sym_idx[f:f + 1], noise[f:f + 1], points,
            cand_idx, cand_pts, hamming)
        assert e_sq == e * e
        got.append(e)
        channel = modem.build_channel_matrix(
            [(g, s.l, s.k, s.kappa) for g, s in zip(gains[f], paths)], grid)
        frame = DdFrame.from_vector(points[sym_idx[f]], grid)
        if waveform == "otfs":
            y = modem.otfs_link(frame, channel, noise[f], grid, noise_domain="dd")
            det = modem.ml_detect(y, channel.H_eff, const)
        else:
            _, det = modem.ofdm_link(frame, channel, const, noise[f], grid,
                                     noise_domain="tf")
        want.append(int(hamming[det, sym_idx[f]].sum()))
    assert got == want
    if sigma == 1.0:
        assert sum(got) > 0


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("case", sorted(CASES))
def test_matrix_kernel_matches_direct_metric(case, seed):
    for sigma in (1.0, 0.3, 0.05):
        batch = make_batch(case, seed, sigma, 1024)
        assert kernels.matrix_frame_errors(*batch) == direct_metric_errors(*batch)


def test_matrix_kernel_ties_resolve_to_lowest_index():
    # with every gain zero all candidates tie; ml_detect picks candidate 0
    batch = list(make_batch("otfs-two-path-qpsk", 7, 0.3, 64))
    batch[1] = np.zeros_like(batch[1])
    _, _, sym_idx, noise, _, cand_idx, _, hamming = batch
    mn = sym_idx.shape[1]
    det = modem.ml_detect(noise[0], np.zeros((mn, mn)), make_constellation("qpsk"))
    assert not det.any()
    per_frame = hamming[cand_idx[0], sym_idx].sum(axis=1)
    assert kernels.matrix_frame_errors(*batch) == (
        int(per_frame.sum()), int((per_frame ** 2).sum()))


def test_matrix_kernel_counts_do_not_depend_on_chunking(monkeypatch):
    case = "otfs-two-path-qpsk"
    rows = kernels._chunk_rows(len(make_batch(case, 5, 0.3, 1)[6]))
    batch = make_batch(case, 5, 0.3, 2 * rows + 500)
    ops, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming = batch
    split = rows + 37
    assert rows > 1 and split % rows != 0
    whole = kernels.matrix_frame_errors(*batch)
    assert whole[0] > 0
    halves = [kernels.matrix_frame_errors(ops, gains[s], sym_idx[s], noise[s],
                                          points, cand_idx, cand_pts, hamming)
              for s in (slice(0, split), slice(split, None))]
    assert tuple(map(sum, zip(*halves))) == whole
    # one frame per chunk
    monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1)
    assert kernels._chunk_rows(len(cand_pts)) == 1
    assert kernels.matrix_frame_errors(*batch) == whole


def test_active_backend_reports_known_name():
    assert kernels.active_backend() == "numpy"
