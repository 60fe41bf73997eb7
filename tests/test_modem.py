"""Matrix-level transceiver tests: transforms, channel operators, ML detection."""

import math

import numpy as np
import pytest

from otfslab import modem
from otfslab.errors import CapacityError, ConfigError
from otfslab.modem import (ChannelMatrices, DdFrame, OtfsGrid,
                           build_channel_matrix,
                           cyclic_shift_matrix, doppler_matrix,
                           make_constellation, ml_detect, otfs_link)

RNG = np.random.default_rng(42)


def random_frame(grid):
    x = RNG.standard_normal((grid.M, grid.N)) + 1j * RNG.standard_normal((grid.M, grid.N))
    return DdFrame(symbols=x)


class TestGrid:
    def test_dimensions_validated(self):
        with pytest.raises(ConfigError):
            OtfsGrid(M=0, N=2)


class TestTxVector:
    """The transmit map dd_to_time_operator, which build_channel_matrix uses:
    vec(X F_N^dagger), an inverse unitary DFT along Doppler."""

    def test_single_doppler_bin_is_identity(self):
        grid = OtfsGrid(M=4, N=1)
        frame = random_frame(grid)
        s = modem.dd_to_time_operator(grid) @ frame.vectorized
        assert np.allclose(s, frame.vectorized, atol=1e-14)

    def test_energy_preserved(self):
        grid = OtfsGrid(M=2, N=2)
        frame = random_frame(grid)
        s = modem.dd_to_time_operator(grid) @ frame.vectorized
        assert abs(np.linalg.norm(s) - np.linalg.norm(frame.vectorized)) < 1e-12

    def test_matches_dense_kronecker_expansion(self):
        grid = OtfsGrid(M=3, N=2)
        frame = random_frame(grid)
        s = np.fft.ifft(frame.symbols, axis=1, norm="ortho").reshape(-1, order="F")
        kron = modem.dd_to_time_operator(grid)
        assert np.allclose(s, kron @ frame.vectorized, atol=1e-12)


class TestChannelMatrix:
    def test_trivial_path_is_identity(self):
        grid = OtfsGrid(M=2, N=2)
        ch = build_channel_matrix([(1.0, 0, 0, 0.0)], grid)
        assert np.allclose(ch.H, np.eye(4), atol=1e-14)
        assert np.allclose(ch.H_eff, np.eye(4), atol=1e-12)

    def test_unit_delay_is_cyclic_shift(self):
        grid = OtfsGrid(M=2, N=2)
        ch = build_channel_matrix([(1.0, 1, 0, 0.0)], grid)
        expected = np.roll(np.eye(4), 1, axis=0)
        assert np.allclose(ch.H, expected, atol=1e-14)

    def test_unit_doppler_is_quarter_turn_diagonal(self):
        grid = OtfsGrid(M=2, N=2)
        ch = build_channel_matrix([(1.0, 0, 1, 0.0)], grid)
        assert np.allclose(ch.H, np.diag([1, 1j, -1, -1j]), atol=1e-14)

    def test_empty_paths_rejected(self):
        grid = OtfsGrid(M=2, N=2)
        with pytest.raises(ConfigError):
            build_channel_matrix([], grid)

    def test_shift_matrix_group_properties(self):
        mn = 6
        pi = cyclic_shift_matrix(mn)
        acc = np.eye(mn)
        for _ in range(mn):
            acc = pi @ acc
        assert np.allclose(acc, np.eye(mn), atol=1e-14)
        assert np.all((pi == 0) | (pi == 1))
        assert np.all(pi.sum(axis=0) == 1) and np.all(pi.sum(axis=1) == 1)

    def test_doppler_exponent_addition(self):
        mn = 8
        a, b = 0.37, 1.62
        prod = doppler_matrix(mn, a) @ doppler_matrix(mn, b)
        assert np.allclose(prod, doppler_matrix(mn, a + b), atol=1e-13)
        assert np.allclose(np.abs(np.diag(doppler_matrix(mn, a))), 1.0, atol=1e-14)

    def test_receive_transform_unitary(self):
        grid = OtfsGrid(M=3, N=4)
        U = modem.time_to_dd_operator(grid)
        v = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
        assert abs(np.linalg.norm(U @ v) - np.linalg.norm(v)) < 1e-12

    def test_frobenius_energy_conservation(self):
        # distinct delay bins keep the per-path operators orthogonal
        grid = OtfsGrid(M=2, N=2)
        gains = [(0.7 - 0.2j, 0, 0, 0.0), (0.3 + 0.4j, 1, 1, 0.0),
                 (-0.1 + 0.9j, 2, 0, 0.25)]
        for paths in ([gains[0]], gains[:2], gains):
            ch = build_channel_matrix(paths, grid)
            expected = 4 * sum(abs(h) ** 2 for h, *_ in paths)
            assert abs(np.linalg.norm(ch.H, "fro") ** 2 - expected) < 1e-10


class TestOtfsLink:
    def test_noiseless_identity_channel(self):
        grid = OtfsGrid(M=2, N=2)
        frame = random_frame(grid)
        ch = build_channel_matrix([(1.0, 0, 0, 0.0)], grid)
        y = otfs_link(frame, ch, np.zeros(4, complex), grid)
        assert np.allclose(y, frame.vectorized, atol=1e-12)

    def test_noise_variance_preserved(self):
        grid = OtfsGrid(M=2, N=2)
        frame = DdFrame(symbols=np.zeros((2, 2), complex))
        ch = build_channel_matrix([(1.0, 0, 0, 0.0)], grid)
        rng = np.random.default_rng(5)
        noise = (rng.standard_normal((20_000, 4))
                 + 1j * rng.standard_normal((20_000, 4))) / math.sqrt(2)
        var = np.mean([np.mean(np.abs(otfs_link(frame, ch, w, grid)) ** 2)
                       for w in noise])
        assert abs(var - 1.0) < 0.02

    def test_flat_channel_per_sample(self):
        grid = OtfsGrid(M=2, N=2)
        frame = random_frame(grid)
        h = 0.6 - 0.8j
        ch = build_channel_matrix([(h, 0, 0, 0.0)], grid)
        w = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        y = otfs_link(frame, ch, w, grid, noise_domain="dd")
        # independent per-sample oracle: flat channel just scales each symbol
        expected = h * frame.vectorized + w
        assert np.allclose(y, expected, atol=1e-12)

    def test_shape_mismatch(self):
        grid = OtfsGrid(M=2, N=2)
        ch = build_channel_matrix([(1.0, 0, 0, 0.0)], grid)
        with pytest.raises(ConfigError):
            otfs_link(random_frame(grid), ch, np.zeros(3, complex), grid)


class TestMlDetect:
    def test_noiseless_recovery(self):
        grid = OtfsGrid(M=2, N=2)
        const = make_constellation("qpsk")
        ch = build_channel_matrix([(0.9 + 0.1j, 1, 0, 0.0)], grid)
        idx = np.array([0, 3, 1, 2])
        y = ch.H_eff @ const.points[idx]
        assert np.array_equal(ml_detect(y, ch.H_eff, const), idx)

    def test_identity_channel_matches_symbol_slicer(self):
        grid = OtfsGrid(M=2, N=2)
        const = make_constellation("qpsk")
        H = np.eye(4, dtype=complex)
        for _ in range(50):
            y = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
            joint = ml_detect(y, H, const)
            slicer = np.array([int(np.argmin(np.abs(yi - const.points) ** 2))
                               for yi in y])
            assert np.array_equal(joint, slicer)

    def test_capacity_cap(self):
        grid = OtfsGrid(M=4, N=4)
        const = make_constellation("qpsk")
        with pytest.raises(CapacityError) as exc:
            modem.enumerate_candidates(const, grid.frame_size)
        assert exc.value.required == 4 ** 16
        assert exc.value.allowed == 2 ** 20

    def test_global_phase_invariance(self):
        grid = OtfsGrid(M=2, N=2)
        const = make_constellation("qpsk")
        for _ in range(20):
            h = RNG.standard_normal() + 1j * RNG.standard_normal()
            ch = build_channel_matrix([(h, 1, 1, 0.0)], grid)
            y = ch.H_eff @ const.points[RNG.integers(0, 4, 4)] \
                + 0.3 * (RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
            phase = np.exp(1j * RNG.uniform(0, 2 * math.pi))
            a = ml_detect(y, ch.H_eff, const)
            b = ml_detect(phase * y, phase * ch.H_eff, const)
            assert np.array_equal(a, b)


class TestOfdmLink:
    def test_two_path_effective_channels_differ_structurally(self):
        grid = OtfsGrid(M=2, N=2)
        ch = build_channel_matrix([(0.8, 0, 0, 0.0), (0.6, 1, 0, 0.0)], grid)
        H_ofdm = modem.ofdm_effective_channel(ch.H, grid)
        assert not np.allclose(H_ofdm, ch.H_eff, atol=1e-6)

    def test_unknown_noise_domain_rejected(self):
        # otfs_link reads "time" or "dd"; "tf" is no OTFS receive domain
        grid = OtfsGrid(M=2, N=2)
        ch = build_channel_matrix([(1.0, 0, 0, 0.0)], grid)
        frame, w = random_frame(grid), np.zeros(4, complex)
        with pytest.raises(ConfigError):
            otfs_link(frame, ch, w, grid, noise_domain="tf")


class TestConstellations:
    @pytest.mark.parametrize("scheme,order", [("bpsk", 2), ("qpsk", 4),
                                              ("psk", 8), ("qam", 16), ("pam", 4)])
    def test_unit_mean_energy(self, scheme, order):
        c = make_constellation(scheme, order)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
        assert len(c.points) == order
        assert c.bit_labels.shape == (order, c.bits_per_symbol)

    def test_qpsk_gray_adjacency(self):
        c = make_constellation("qpsk")
        # nearest neighbours differ in exactly one bit
        for i in range(4):
            dists = np.abs(c.points - c.points[i])
            for j in np.argsort(dists)[1:3]:
                assert int((c.bit_labels[i] != c.bit_labels[j]).sum()) == 1

    def test_unsupported_scheme_rejected(self):
        with pytest.raises(ConfigError):
            make_constellation("fsk", 4)

    def test_frame_vectorization_round_trip(self):
        grid = OtfsGrid(M=3, N=2)
        frame = random_frame(grid)
        back = DdFrame.from_vector(frame.vectorized, grid)
        assert np.allclose(back.symbols, frame.symbols, atol=0)
