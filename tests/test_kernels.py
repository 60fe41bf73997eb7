"""Batched kernels against per-frame references.

The matrix kernel is checked against the per-frame modem chain
(``otfs_link`` + ``ml_detect``) one frame at a time, and against a
direct-metric reference ``argmin ||y - H_f c||^2`` on whole batches; its
counts must not depend on how a batch is split into chunks.

The matrix kernel detects each independent block of symbols on its own.
Diagonal operators (blocks of one symbol) take the symbol-wise route; the
counts of one l = k = 0 path are checked against the same references and
against the joint search on figure-1 batches.  Integer delays split the
frame into several blocks: the figure-2 shape and a 4x2 delayed path run
the per-frame and direct-metric checks, a synthetic operator has blocks of
unequal size, and a spy pins which of the three routes each operator takes.
Each operator set is planned once, in a bounded memo that keeps no plan
that raised CapacityError.

The diagonal kernel is checked on CP-OFDM frames against exhaustive joint ML
over all ``order^MN`` symbol vectors, which tests the per-subcarrier
factorization, one frame at a time, and against the direct
``(F, MN, order)`` argmin formula on whole batches; its counts must not
depend on how a batch is split into blocks.  Its inputs are the CP-OFDM
subcarrier responses built here from the modem's primitives, with the data
amplitude passed as the separate ``scale``; the engine folds that amplitude
into the path operators instead, and the engine tests pin that this moves
no count.  BPSK and Gray QPSK take the sign slicer: its counts are checked
against the direct formula down to sigma = 1e-3, also through the matrix
kernel's symbol-wise route, and on ties built at +0.0 and -0.0.  The
diagonal kernel refuses every other table; the matrix kernel searches it as
one-symbol blocks, checked against the direct formula for 16-QAM, 512-PSK
and the psk tables of orders 2 and 4, which are not the BPSK and QPSK
tables exactly.  Neither kernel writes to its arguments.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from otfslab import cli, engine, kernels, modem
from otfslab.errors import CapacityError
from otfslab.fading import PathSpec, make_stream, sample_nakagami_gains
from otfslab.modem import DdFrame, OtfsGrid, make_constellation

TWO_PATHS = (PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1))
ONE_PATH = (PathSpec(m=1, omega=1.0),)

# name -> (grid, scheme, paths, waveform).  The "ofdm-shared" cases take the
# per-symbol DFT image of the frame-cyclic H that OTFS sees (the H shared
# with OTFS): dense operators that no sweep chain builds, kept to test the
# block kernel beyond the delay-Doppler ones.
CASES = {
    "otfs-two-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", TWO_PATHS, "otfs"),
    "otfs-fractional-doppler": (OtfsGrid(M=4, N=2), "bpsk",
                                (PathSpec(m=2, omega=1.0, l=1, k=1, kappa=0.3),),
                                "otfs"),
    "ofdm-shared-two-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", TWO_PATHS, "ofdm"),
    # one delayed path: blocks {0, 1, 2, 3} and {4, 5, 6, 7} of 16 candidates
    "otfs-delayed-path-bpsk": (OtfsGrid(M=4, N=2), "bpsk",
                               (PathSpec(m=1, omega=1.0, l=1),), "otfs"),
    # one path with l = k = 0: diagonal operators, the symbol-wise route
    "otfs-one-path-bpsk": (OtfsGrid(M=2, N=2), "bpsk", ONE_PATH, "otfs"),
    "otfs-one-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", ONE_PATH, "otfs"),
    "ofdm-shared-one-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", ONE_PATH, "ofdm"),
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


def joint_search(ops, gains, sym_idx, noise, points, cand_idx, cand_pts,
                 hamming):
    """The kernel's search over all candidates at once: one block of every
    symbol, whatever the operators' structure, over the caller's table."""
    blocks = kernels._block_search(ops, points, [np.arange(ops.shape[1])])
    assert np.array_equal(blocks[0].cand, cand_idx)
    assert np.array_equal(points[blocks[0].cand], cand_pts)
    return kernels._block_frame_errors(ops, blocks, gains, sym_idx, noise,
                                       points, hamming)


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
        if waveform == "ofdm":
            H_ofdm = modem.ofdm_effective_channel(channel.H, grid)
            channel = modem.ChannelMatrices(H=H_ofdm, H_eff=H_ofdm)
        y = modem.otfs_link(frame, channel, noise[f], grid, noise_domain="dd")
        det = modem.ml_detect(y, channel.H_eff, const)
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
    # with every gain zero all candidates tie; ml_detect picks candidate 0, on
    # the block route (figure-2 shape) and on the one-block route alike
    for case, n_blocks in (("otfs-two-path-qpsk", 2), ("otfs-fractional-doppler", 1)):
        batch = list(make_batch(case, 7, 0.3, 64))
        batch[1] = np.zeros_like(batch[1])
        ops, _, sym_idx, noise, _, cand_idx, _, hamming = batch
        assert len(kernels.independent_blocks(ops)) == n_blocks
        mn = sym_idx.shape[1]
        det = modem.ml_detect(noise[0], np.zeros((mn, mn)),
                              make_constellation(CASES[case][1]))
        assert not det.any()
        per_frame = hamming[cand_idx[0], sym_idx].sum(axis=1)
        assert per_frame.sum() > 0
        assert kernels.matrix_frame_errors(*batch) == (
            int(per_frame.sum()), int((per_frame ** 2).sum()))


def test_matrix_kernel_rejects_an_out_of_range_symbol_index():
    # a symbol index past the constellation raises, as indexing the points
    # does, and so does a negative one, which numpy would read from the end;
    # on the block, the one-block and the symbol-wise route
    for case in ("otfs-two-path-qpsk", "otfs-fractional-doppler",
                 "otfs-one-path-qpsk"):
        for bad in (make_constellation(CASES[case][1]).order, -1):
            batch = list(make_batch(case, 7, 0.3, 16))
            batch[2] = batch[2].copy()
            batch[2][3, 1] = bad
            with pytest.raises(IndexError):
                kernels.matrix_frame_errors(*batch)


def test_matrix_kernel_counts_do_not_depend_on_chunking(monkeypatch):
    # the figure-2 shape searches 2 blocks of 16 candidates, the fractional
    # Doppler case one block of 256; chunks of 300 rows of the 16-candidate
    # metric (18 of the 256-candidate one), then of one frame
    small = 8 * 16 * 300
    for case in ("otfs-two-path-qpsk", "otfs-fractional-doppler"):
        batch = make_batch(case, 5, 0.3, 1000)
        ops, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming = batch
        whole = kernels.matrix_frame_errors(*batch)
        assert whole[0] > 0
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", small)
        assert 1 < kernels._chunk_rows(len(cand_pts)) <= kernels._chunk_rows(16) == 300
        assert kernels.matrix_frame_errors(*batch) == whole
        split = 337
        halves = [kernels.matrix_frame_errors(ops, gains[s], sym_idx[s], noise[s],
                                              points, cand_idx, cand_pts, hamming)
                  for s in (slice(0, split), slice(split, None))]
        assert tuple(map(sum, zip(*halves))) == whole
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1)
        assert kernels._chunk_rows(len(cand_pts)) == 1
        assert kernels.matrix_frame_errors(*batch) == whole
        monkeypatch.undo()


def test_diagonal_route_counts_equal_the_joint_search():
    # figure-1 batches, drawn as the engine draws them
    errors = 0
    for cfg, _ in cli.figure_config(1, None, None, None):
        const = make_constellation(cfg.scheme, cfg.order)
        mn = cfg.grid.frame_size
        ops = np.stack([engine._path_operator(s, cfg) for s in cfg.paths])
        assert kernels.plan(ops, const.points).phi is not None
        cand_idx, cand_pts = modem.enumerate_candidates(const, mn)
        hamming = engine._hamming_table(const)
        nf = engine.BATCH_FRAMES
        for pt_idx, snr_db in enumerate(cfg.snr_db):
            sigma = math.sqrt(1.0 / 10.0 ** (snr_db / 10.0))
            rng = make_stream(cfg.master_seed, pt_idx, 0)
            gains = sample_nakagami_gains(cfg.paths, rng, nf)
            sym_idx = rng.integers(0, const.order, (nf, mn))
            noise = (rng.standard_normal((nf, mn))
                     + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
            batch = (ops, gains, sym_idx, noise, const.points, cand_idx,
                     cand_pts, hamming)
            got = kernels.matrix_frame_errors(*batch)
            assert got == joint_search(*batch)
            errors += got[0]
    assert errors > 0


def test_diagonal_route_ties_resolve_to_candidate_0():
    # with every gain zero all candidates tie; ml_detect picks candidate 0,
    # and the symbol-wise route picks point 0 on every symbol
    batch = list(make_batch("otfs-one-path-bpsk", 7, 0.3, 64))
    batch[1] = np.zeros_like(batch[1])
    ops, _, sym_idx, _, points, cand_idx, _, hamming = batch
    assert kernels.plan(ops, points).phi is not None
    per_frame = hamming[cand_idx[0], sym_idx].sum(axis=1)
    assert per_frame.sum() > 0
    assert kernels.matrix_frame_errors(*batch) == (
        int(per_frame.sum()), int((per_frame ** 2).sum()))


def test_block_route_counts_equal_the_joint_search():
    # figure-2 batches, drawn as the engine draws them: 2 blocks of 16
    # candidates give the counts of the search over all 256
    errors = 0
    for cfg, _ in cli.figure_config(2, None, None, None):
        const = make_constellation(cfg.scheme, cfg.order)
        ops = np.stack([engine._path_operator(s, cfg) for s in cfg.paths])
        assert [list(b) for b in kernels.independent_blocks(ops)] == [[0, 1], [2, 3]]
        cand_idx, cand_pts = modem.enumerate_candidates(const, cfg.grid.frame_size)
        hamming = engine._hamming_table(const)
        for pt_idx in range(0, len(cfg.snr_db), 2):
            sigma = math.sqrt(1.0 / 10.0 ** (cfg.snr_db[pt_idx] / 10.0))
            rng = make_stream(cfg.master_seed, pt_idx, 0)
            gains = sample_nakagami_gains(cfg.paths, rng, 2048)
            sym_idx = rng.integers(0, const.order, (2048, 4))
            noise = (rng.standard_normal((2048, 4))
                     + 1j * rng.standard_normal((2048, 4))) * (sigma / math.sqrt(2.0))
            batch = (ops, gains, sym_idx, noise, const.points, cand_idx,
                     cand_pts, hamming)
            got = kernels.matrix_frame_errors(*batch)
            assert got == joint_search(*batch)
            errors += got[0]
    assert errors > 0


def unequal_block_batch(seed, sigma, nf):
    """Kernel arguments for two random operators on 6 symbols whose joint
    support splits them into blocks {0, 2, 5}, {1} and {3, 4}; QPSK."""
    rng = np.random.default_rng(seed)
    ops = np.zeros((2, 6, 6), dtype=np.complex128)
    for b in ([0, 2, 5], [1], [3, 4]):
        shape = (2, len(b), len(b))
        ops[(slice(None),) + np.ix_(b, b)] = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # the second path reaches only part of the first block
    ops[1, 0, 2] = ops[1, 2, 0] = 0.0
    const = make_constellation("qpsk")
    cand_idx, cand_pts = modem.enumerate_candidates(const, 6)
    stream = make_stream(seed, 0)
    gains = sample_nakagami_gains(TWO_PATHS, stream, nf)
    sym_idx = stream.integers(0, 4, (nf, 6))
    noise = (stream.standard_normal((nf, 6))
             + 1j * stream.standard_normal((nf, 6))) * (sigma / math.sqrt(2.0))
    return (ops, gains, sym_idx, noise, const.points, cand_idx, cand_pts,
            engine._hamming_table(const))


def test_blocks_of_unequal_size_match_the_direct_metric():
    errors = 0
    for sigma in (1.0, 0.3, 0.05):
        batch = unequal_block_batch(21, sigma, 300)
        assert ([list(b) for b in kernels.independent_blocks(batch[0])]
                == [[0, 2, 5], [1], [3, 4]])
        got = kernels.matrix_frame_errors(*batch)
        assert got == direct_metric_errors(*batch)
        errors += got[0]
    assert errors > 0


def test_integer_paths_split_a_4x4_grid_into_blocks():
    # a delay cycles the delay bins of each Doppler bin, a Doppler shift the
    # Doppler bins of each delay bin; a fractional Doppler joins them all
    grid = OtfsGrid(M=4, N=4)
    runs = np.arange(16).reshape(4, 4)
    for paths, want in (
            ((PathSpec(m=1, omega=1.0, l=1),), runs),
            ((PathSpec(m=1, omega=1.0, k=1),), runs.T),
            ((PathSpec(m=1, omega=0.5, l=1), PathSpec(m=1, omega=0.5, k=1)),
             runs.reshape(1, 16)),
            ((PathSpec(m=1, omega=1.0, l=1, kappa=0.3),), runs.reshape(1, 16))):
        got = kernels.independent_blocks(path_ops(grid, paths, "otfs"))
        assert [list(b) for b in got] == [list(b) for b in want]


GRID_2X2 = OtfsGrid(M=2, N=2)


@pytest.mark.parametrize("ops,route,scheme", [
    pytest.param(path_ops(GRID_2X2, ONE_PATH, "otfs"), "diagonal", "bpsk",
                 id="one-path"),
    pytest.param(np.eye(4)[None] + 1e-6 * (1 - np.eye(4)), "one block", "bpsk",
                 id="off-diagonal-1e-6"),
    pytest.param(path_ops(GRID_2X2, (PathSpec(m=1, omega=1.0, l=1),), "otfs"),
                 "blocks", "bpsk", id="delayed-path"),
    pytest.param(path_ops(GRID_2X2, (PathSpec(m=1, omega=1.0, kappa=0.3),),
                          "otfs"), "blocks", "bpsk", id="fractional-doppler"),
    pytest.param(path_ops(GRID_2X2, ONE_PATH * 2, "otfs"), "diagonal", "bpsk",
                 id="two-paths"),
    pytest.param(path_ops(GRID_2X2, (PathSpec(m=1, omega=0.5),
                                     PathSpec(m=1, omega=0.5, l=1)), "otfs"),
                 "blocks", "bpsk", id="identity-plus-delayed-path"),
    pytest.param(path_ops(GRID_2X2, (PathSpec(m=1, omega=0.5, l=1),
                                     PathSpec(m=1, omega=0.5, k=1)), "otfs"),
                 "one block", "bpsk", id="delayed-and-doppler-paths"),
    pytest.param(path_ops(GRID_2X2, ONE_PATH, "otfs"), "one-symbol blocks",
                 "psk-4", id="one-path-psk-4"),
])
def test_only_one_diagonal_operator_takes_the_symbol_wise_route(
        monkeypatch, ops, route, scheme):
    # every operator diagonal, however many paths, takes the symbol-wise
    # route with the BPSK table, and one-symbol blocks with a table that the
    # sign slicer does not read; operators that split the symbols take one
    # search per block, and one block the search over the full enumeration
    _, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming = make_batch(
        "otfs-one-path-bpsk", 3, 0.3, 256)
    if scheme == "psk-4":
        const = make_constellation("psk", 4)
        sym_idx = make_stream(3, 1).integers(0, const.order, sym_idx.shape)
        points, hamming = const.points, engine._hamming_table(const)
        cand_idx, cand_pts = modem.enumerate_candidates(const, sym_idx.shape[1])
    # distinct phases per path keep the channel of two paths non-singular
    gains = gains * np.exp(1j * np.arange(len(ops)))
    batch = (ops, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming)
    calls = []
    diag, blocks = kernels.diag_frame_errors, kernels._block_frame_errors

    def diag_spy(*args):
        calls.append("diagonal")
        return diag(*args)

    def block_spy(A_ops, parts, *args):
        if len(parts) == 1:
            calls.append("one block")
            assert np.array_equal(parts[0].cand, cand_idx)
            assert np.array_equal(points[parts[0].cand], cand_pts)
        elif all(len(blk.idx) == 1 for blk in parts):
            calls.append("one-symbol blocks")
        else:
            calls.append("blocks")
        return blocks(A_ops, parts, *args)

    monkeypatch.setattr(kernels, "diag_frame_errors", diag_spy)
    monkeypatch.setattr(kernels, "_block_frame_errors", block_spy)
    assert kernels.matrix_frame_errors(*batch) == direct_metric_errors(*batch)
    assert calls == [route]
    assert (kernels.plan(ops, points).phi is not None) == (route == "diagonal")


@pytest.mark.parametrize("case", ["otfs-fractional-doppler", "otfs-two-path-qpsk",
                                  "otfs-one-path-bpsk"])
def test_kernel_reads_no_caller_table(case):
    # one block, several blocks and symbol-wise: the kernel builds every
    # block's candidates itself
    batch = make_batch(case, 5, 0.3, 256)
    ops, gains, sym_idx, noise, points, _, _, hamming = batch
    got = kernels.matrix_frame_errors(ops, gains, sym_idx, noise, points,
                                      None, None, hamming)
    assert got[0] > 0
    assert got == direct_metric_errors(*batch)


def test_block_route_peak_allocation_on_a_figure2_batch():
    # one 2048-frame figure-2 call, its work arrays made afresh in a new
    # thread: 2 searches of 16 candidates peak well below the search over
    # all 256, whose (2048, 256) float64 metric block alone takes 4 MiB
    batch = make_batch("otfs-two-path-qpsk", 3, 0.3, 2048)

    def peak(kernel):
        out = []

        def run():
            tracemalloc.start()
            try:
                kernel(*batch)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
        return out[0]

    assert peak(kernels.matrix_frame_errors) < 2 << 20
    assert peak(joint_search) > 4 << 20


def _spy_blocks(monkeypatch):
    """A list that grows by one each time ``independent_blocks`` runs."""
    calls = []
    blocks = kernels.independent_blocks

    def spy(A_ops):
        calls.append(A_ops.shape)
        return blocks(A_ops)

    monkeypatch.setattr(kernels, "independent_blocks", spy)
    return calls


def test_the_plan_is_built_once_per_operator_set(monkeypatch):
    # several batches over the figure-2 operators, and an equal copy of
    # them in another array, plan the search once
    kernels._memo_plan.cache_clear()
    calls = _spy_blocks(monkeypatch)
    ops, _, _, _, points, *_ = make_batch("otfs-two-path-qpsk", 3, 0.3, 1)
    for seed in range(4):
        batch = make_batch("otfs-two-path-qpsk", seed, 0.3, 64)
        assert kernels.matrix_frame_errors(*batch) == direct_metric_errors(*batch)
    assert kernels.plan(ops.copy(), points.copy()) is kernels.plan(ops, points)
    assert len(calls) == 1
    # other points are another search
    kernels.plan(ops, 2 * points)
    assert len(calls) == 2


def test_the_plan_memo_is_bounded(monkeypatch):
    kernels._memo_plan.cache_clear()
    calls = _spy_blocks(monkeypatch)
    ops, _, _, _, points, *_ = make_batch("otfs-two-path-qpsk", 3, 0.3, 1)
    scaled = [(1.0 + k) * ops for k in range(kernels._PLAN_MEMO + 3)]
    for A in scaled:
        kernels.plan(A, points)
    info = kernels._memo_plan.cache_info()
    assert info.currsize == info.maxsize == kernels._PLAN_MEMO
    assert len(calls) == len(scaled)
    # the least recently used set left the memo, the latest did not
    kernels.plan(scaled[-1], points)
    assert len(calls) == len(scaled)
    kernels.plan(scaled[0], points)
    assert len(calls) == len(scaled) + 1


def test_a_capacity_error_is_raised_on_every_call():
    # a fractional Doppler joins a 4x4 QPSK frame into one block of 4^16
    # candidates; no failed plan is kept, so each call raises again
    kernels._memo_plan.cache_clear()
    ops = path_ops(OtfsGrid(M=4, N=4),
                   (PathSpec(m=1, omega=1.0, l=1, kappa=0.3),), "otfs")
    const = make_constellation("qpsk")
    gains = np.ones((2, 1), dtype=complex)
    sym_idx = np.zeros((2, 16), dtype=np.int64)
    noise = np.zeros((2, 16), dtype=complex)
    for _ in range(2):
        with pytest.raises(CapacityError) as err:
            kernels.matrix_frame_errors(ops, gains, sym_idx, noise, const.points,
                                        None, None, engine._hamming_table(const))
        assert err.value.required == 4 ** 16
        assert kernels._memo_plan.cache_info().currsize == 0


def test_active_backend_reports_known_name():
    assert kernels.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# Diagonal kernel on CP-OFDM frames
# ---------------------------------------------------------------------------

# name -> (grid, scheme, paths) on the CP-OFDM chain
DIAG_CASES = {
    "cp-one-path-bpsk": (OtfsGrid(M=2, N=2), "bpsk", (PathSpec(m=1, omega=1.0),)),
    "cp-two-path-qpsk": (OtfsGrid(M=2, N=2), "qpsk", TWO_PATHS),
    "cp-fractional-doppler": (OtfsGrid(M=4, N=2), "bpsk",
                              (PathSpec(m=2, omega=1.0, l=1, k=1, kappa=0.3),)),
}


def diag_config(case):
    grid, scheme, paths = DIAG_CASES[case]
    return engine.SweepConfig(grid=grid, scheme=scheme,
                              order=make_constellation(scheme).order,
                              paths=paths, waveform="ofdm", ofdm_chain="cp")


def cp_operator(grid, spec):
    """Path ``spec`` on a CP-OFDM frame: kron(Delta_N^(k+kappa), Pi_M^l) seen
    through the per-symbol DFT."""
    return modem.ofdm_effective_channel(
        np.kron(modem.doppler_matrix(grid.N, spec.k + spec.kappa),
                modem.cyclic_shift_matrix(grid.M, spec.l)), grid)


def cp_response(cfg):
    """(phi, scale): the per-path subcarrier responses and the data-symbol
    amplitude sqrt(M / (2M - 1)) of a CP-OFDM config."""
    phi = np.stack([np.diagonal(cp_operator(cfg.grid, s)) for s in cfg.paths])
    return phi, math.sqrt(cfg.grid.M / (2 * cfg.grid.M - 1))


def make_diag_batch(case, seed, sigma, nf):
    """diag_frame_errors arguments of one fixed-seed batch, drawn as the
    engine draws them."""
    cfg = diag_config(case)
    const = make_constellation(cfg.scheme)
    mn = cfg.grid.frame_size
    phi, scale = cp_response(cfg)
    rng = make_stream(seed, 1)
    gains = sample_nakagami_gains(cfg.paths, rng, nf)
    sym_idx = rng.integers(0, const.order, (nf, mn))
    noise = (rng.standard_normal((nf, mn))
             + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
    return (phi, scale, gains, sym_idx, noise, const.points,
            engine._hamming_table(const))


def direct_diag_errors(phi, scale, gains, sym_idx, noise, points, hamming):
    """argmin over points of the (F, MN, order) distance tensor; returns the
    kernel's (errors, errors_sq)."""
    lam = np.zeros((gains.shape[0], phi.shape[1]), dtype=np.complex128)
    for p in range(phi.shape[0]):
        lam += gains[:, p, None] * phi[p]
    scale = float(scale)
    y = scale * lam * points[sym_idx] + noise
    ref = scale * lam[:, :, None] * points[None, None, :]
    diff = y[:, :, None] - ref
    det = np.argmin(diff.real ** 2 + diff.imag ** 2, axis=2)
    per_frame = hamming[det, sym_idx].sum(axis=1)
    return int(per_frame.sum()), int((per_frame ** 2).sum())


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("case", sorted(DIAG_CASES))
def test_diag_kernel_matches_joint_ml(case, sigma):
    const = make_constellation(diag_config(case).scheme)
    batch = make_diag_batch(case, 31 + SIGMAS.index(sigma), sigma, 256)
    phi, scale, gains, sym_idx, noise, points, hamming = batch
    got, want = [], []
    for f in range(len(gains)):
        e, e_sq = kernels.diag_frame_errors(
            phi, scale, gains[f:f + 1], sym_idx[f:f + 1], noise[f:f + 1],
            points, hamming)
        assert e_sq == e * e
        got.append(e)
        H = np.diag(scale * (gains[f] @ phi))
        det = modem.ml_detect(H @ points[sym_idx[f]] + noise[f], H, const)
        want.append(int(hamming[det, sym_idx[f]].sum()))
    assert got == want
    if sigma == 1.0:
        assert sum(got) > 0


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("case", sorted(DIAG_CASES))
def test_diag_kernel_matches_direct_formula(case, seed):
    # more frames than one block, so a partial block is included
    mn = diag_config(case).grid.frame_size
    nf = kernels._diag_rows(mn) + 1001
    for sigma in (1.0, 0.3, 0.05):
        batch = make_diag_batch(case, seed, sigma, nf)
        assert kernels.diag_frame_errors(*batch) == direct_diag_errors(*batch)


def cp_batch(cfg, seed, sigma, nf):
    """matrix_frame_errors arguments of one fixed-seed batch on the engine's
    CP-OFDM operators of cfg, and the (phi, scale) that the direct formula
    reads for the same frames."""
    const = make_constellation(cfg.scheme, cfg.order)
    ops = np.stack([engine._path_operator(s, cfg) for s in cfg.paths])
    mn = cfg.grid.frame_size
    rng = make_stream(*seed)
    gains = sample_nakagami_gains(cfg.paths, rng, nf)
    sym_idx = rng.integers(0, const.order, (nf, mn))
    noise = (rng.standard_normal((nf, mn))
             + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
    return ((ops, gains, sym_idx, noise, const.points, None, None,
             engine._hamming_table(const)), cp_response(cfg))


@pytest.mark.parametrize("scheme,order", [("qam", 16), ("psk", 512)])
def test_diag_kernel_matches_direct_formula_for_large_orders(scheme, order):
    # diagonal operators with a table that is not sign-sliced take the block
    # search, one block of 512 candidates per symbol for 512-PSK
    cfg = engine.SweepConfig(grid=OtfsGrid(M=2, N=2), scheme=scheme, order=order,
                             paths=TWO_PATHS, waveform="ofdm", ofdm_chain="cp")
    batch, (phi, scale) = cp_batch(cfg, (9, order), 0.02 * math.sqrt(2.0), 600)
    ops, gains, sym_idx, noise, points, _, _, hamming = batch
    assert [len(b.idx) for b in kernels.plan(ops, points).blocks] == [1] * 4
    got = kernels.matrix_frame_errors(*batch)
    assert got == direct_diag_errors(phi, scale, gains, sym_idx, noise, points,
                                     hamming)
    assert got[0] > 0


def test_diag_kernel_ties_resolve_to_lowest_index():
    # with every gain zero all points tie on every symbol; point 0 wins
    batch = list(make_diag_batch("cp-two-path-qpsk", 7, 0.3, 64))
    batch[2] = np.zeros_like(batch[2])
    sym_idx, hamming = batch[3], batch[6]
    per_frame = hamming[0, sym_idx].sum(axis=1)
    assert per_frame.sum() > 0
    assert kernels.diag_frame_errors(*batch) == (
        int(per_frame.sum()), int((per_frame ** 2).sum()))


def test_diag_kernel_counts_do_not_depend_on_splits(monkeypatch):
    case = "cp-two-path-qpsk"
    rows = kernels._diag_rows(diag_config(case).grid.frame_size)
    batch = make_diag_batch(case, 5, 0.3, 2 * rows + 501)
    phi, scale, gains, sym_idx, noise, points, hamming = batch
    split = rows + 37
    assert rows > 1 and split % 2 == 1
    whole = kernels.diag_frame_errors(*batch)
    assert whole[0] > 0
    halves = [kernels.diag_frame_errors(phi, scale, gains[s], sym_idx[s],
                                        noise[s], points, hamming)
              for s in (slice(0, split), slice(split, None))]
    assert tuple(map(sum, zip(*halves))) == whole
    # blocks of three frames, then of one
    for symbols in (3 * phi.shape[1], 1):
        monkeypatch.setattr(kernels, "_DIAG_BLOCK_SYMBOLS", symbols)
        assert kernels.diag_frame_errors(*batch) == whole


@pytest.mark.parametrize("sigma", SIGMAS)
def test_sign_slicer_matches_direct_formula(sigma):
    # BPSK and Gray QPSK are decided by the signs of z: on CP-OFDM frames,
    # and on the one-path OTFS frames the matrix kernel sends symbol-wise
    for case in ("cp-one-path-bpsk", "cp-two-path-qpsk"):
        batch = make_diag_batch(case, 41, sigma, 3000)
        assert kernels._sign_axes(batch[5]) == make_constellation(
            DIAG_CASES[case][1]).bits_per_symbol
        assert kernels.diag_frame_errors(*batch) == direct_diag_errors(*batch)
    for case in ("otfs-one-path-bpsk", "otfs-one-path-qpsk"):
        ops, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming = (
            make_batch(case, 42, sigma, 3000))
        assert kernels.plan(ops, points).phi is not None
        assert kernels.matrix_frame_errors(
            ops, gains, sym_idx, noise, points, cand_idx, cand_pts,
            hamming) == direct_diag_errors(
                np.diagonal(ops, axis1=1, axis2=2), 1.0, gains, sym_idx,
                noise, points, hamming)


@pytest.mark.parametrize("labels", ["index-bits", "symbol-errors", "reversed"])
@pytest.mark.parametrize("case", ["cp-one-path-bpsk", "cp-two-path-qpsk"])
def test_sign_slicer_counts_any_bit_distances(case, labels):
    # the engine's Gray tables are popcount(det ^ sent), which the kernel
    # counts from the index bits; any other table is read entry by entry
    batch = list(make_diag_batch(case, 43, 1.0, 3000))
    hamming = batch[6]
    order = len(hamming)
    assert np.array_equal(hamming, kernels._INDEX_BIT_DISTANCES[order.bit_length() - 1])
    if labels == "symbol-errors":
        batch[6] = 1 - np.eye(order, dtype=np.int64)
    elif labels == "reversed":
        batch[6] = 3 * hamming[::-1, ::-1] + np.arange(order)
    got = kernels.diag_frame_errors(*batch)
    assert got[0] > 0
    assert got == direct_diag_errors(*batch)


@pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
def test_sign_slicer_ties_go_to_the_lower_index(scheme):
    # y with one axis exactly 0 makes an axis of z = conj(scale lambda) y
    # +0.0 or -0.0, by the signs of the gain and of y's other axis.  Neither
    # zero is < 0, so that axis decides the lower point index, as the
    # distance comparison's exact tie does; the other axis keeps its sign
    const = make_constellation(scheme)
    points, order = const.points, const.order
    hamming = engine._hamming_table(const)
    frames = [(g, sent, axis, other)
              for g in (1.0, -1.0, 1j, -1j) for sent in range(order)
              for axis in (0, 1) for other in (0.5, -0.5)]
    gains = np.array([[g] for g, *_ in frames], dtype=np.complex128)
    sym_idx = np.array([[sent] for _, sent, *_ in frames])
    target = np.array([[other * 1j if axis == 0 else other]
                       for _, _, axis, other in frames])
    phi = np.ones((1, 1), dtype=np.complex128)
    # the kernel's scale lambda and y, which is 0 exactly on the tied axis
    sl = 1.0 * (np.zeros_like(gains) + gains * phi[0])
    noise = target - np.multiply(sl, points[sym_idx])
    y = np.multiply(sl, points[sym_idx]) + noise
    assert np.all((y.real == 0) == (target.real == 0))
    assert np.all((y.imag == 0) == (target.imag == 0))
    z = np.conjugate(sl) * y
    axes = (z.real, z.imag)[:kernels._sign_axes(points)]
    for part in axes:
        assert np.signbit(part[part == 0]).any()
        assert not np.signbit(part[part == 0]).all()
    det = np.zeros(len(frames), dtype=np.intp)
    for part in axes:
        # a zero goes to the lower index; any other value by its sign
        det = 2 * det + ((part != 0) & (part < 0)).ravel()
    per_frame = hamming[det, sym_idx[:, 0]]
    want = (int(per_frame.sum()), int((per_frame ** 2).sum()))
    batch = (phi, 1.0, gains, sym_idx, noise, points, hamming)
    assert want[0] > 0
    assert kernels.diag_frame_errors(*batch) == want == direct_diag_errors(*batch)


@pytest.mark.parametrize("scheme,order", [("psk", 2), ("psk", 4), ("qam", 16)])
def test_other_tables_take_the_block_search(scheme, order):
    # psk points of orders 2 and 4 are not exactly the BPSK and QPSK tables,
    # so diagonal operators search them as one-symbol blocks, as 16-QAM
    cfg = engine.SweepConfig(grid=OtfsGrid(M=2, N=2), scheme=scheme, order=order,
                             paths=TWO_PATHS, waveform="ofdm", ofdm_chain="cp")
    assert kernels._sign_axes(make_constellation(scheme, order).points) == 0
    errors = 0
    for i, sigma in enumerate((1.0, 0.1, 1e-3)):
        batch, (phi, scale) = cp_batch(cfg, (43, order, i), sigma, 3000)
        ops, gains, sym_idx, noise, points, _, _, hamming = batch
        assert kernels.plan(ops, points).phi is None
        got = kernels.matrix_frame_errors(*batch)
        assert got == direct_diag_errors(phi, scale, gains, sym_idx, noise,
                                         points, hamming)
        errors += got[0]
    assert errors > 0


def test_diag_kernel_refuses_a_table_it_does_not_slice():
    # psk order 4 is QPSK's constellation in another order and labelling
    cfg = engine.SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="psk", order=4,
                             paths=TWO_PATHS, waveform="ofdm", ofdm_chain="cp")
    batch, (phi, scale) = cp_batch(cfg, (43, 4), 0.3, 16)
    _, gains, sym_idx, noise, points, _, _, hamming = batch
    with pytest.raises(ValueError):
        kernels.diag_frame_errors(phi, scale, gains, sym_idx, noise, points,
                                  hamming)


def _copies(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _unchanged(before, after):
    """Every array argument equal byte for byte, every other one equal."""
    return all((a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
               if isinstance(a, np.ndarray) else a == b
               for a, b in zip(before, after))


@pytest.mark.parametrize("frames", ["one", "blocks"])
@pytest.mark.parametrize("case", ["cp-one-path-bpsk", "cp-two-path-qpsk"])
def test_diag_kernel_writes_no_argument(case, frames):
    # one frame makes the transposed symbol block a view of sym_idx
    mn = diag_config(case).grid.frame_size
    nf = 1 if frames == "one" else kernels._diag_rows(mn) + 3
    batch = make_diag_batch(case, 44, 0.3, nf)
    before = _copies(batch)
    kernels.diag_frame_errors(*batch)
    assert _unchanged(before, batch)


@pytest.mark.parametrize("frames", ["one", "2048", "blocks"])
@pytest.mark.parametrize("case", ["otfs-one-path-bpsk", "otfs-one-path-qpsk",
                                  "otfs-two-path-qpsk", "otfs-fractional-doppler",
                                  "ofdm-shared-two-path-qpsk"])
def test_matrix_kernel_writes_no_argument(case, frames):
    # the symbol-wise, block and one-block routes; a one-frame slice of a
    # batch makes each transposed input a view of the caller's array
    mn = CASES[case][0].frame_size
    nf = {"one": 4, "2048": 2048, "blocks": kernels._diag_rows(mn) + 3}[frames]
    batch = make_batch(case, 45, 0.3, nf)
    before = _copies(batch)
    if frames == "one":
        for f in range(nf):
            kernels.matrix_frame_errors(
                *(a[f:f + 1] if i in (1, 2, 3) else a for i, a in enumerate(batch)))
    else:
        kernels.matrix_frame_errors(*batch)
    assert _unchanged(before, batch)


@pytest.mark.parametrize("case", sorted(DIAG_CASES))
def test_cp_subcarrier_response_is_the_cp_ofdm_operator(case):
    # path p acts on a CP-OFDM frame as kron(Delta_N^(k+kappa), Pi_M^l); the
    # per-symbol DFT makes it diagonal, so the engine's operator is exactly
    # diagonal, takes the symbol-wise route, and is sqrt(share) times the
    # subcarrier response
    cfg = diag_config(case)
    grid = cfg.grid
    ops = np.stack([engine._path_operator(s, cfg) for s in cfg.paths])
    assert kernels.plan(ops, make_constellation(cfg.scheme).points).phi is not None
    phi, scale = cp_response(cfg)
    for p, s in enumerate(cfg.paths):
        A = ops[p]
        assert np.array_equal(A, np.diag(np.diagonal(A)))
        assert np.array_equal(np.diagonal(A), scale * phi[p])
        H = cp_operator(grid, s)
        assert np.allclose(H - np.diag(np.diag(H)), 0, rtol=0, atol=1e-12)
        # the modem's diagonal is the closed-form subcarrier response
        n, q = np.divmod(np.arange(grid.frame_size), grid.M)
        want = (np.exp(2j * np.pi * (s.k + s.kappa) * n / grid.N)
                * np.exp(-2j * np.pi * q * s.l / grid.M))
        assert np.allclose(phi[p], want, rtol=0, atol=1e-12)
