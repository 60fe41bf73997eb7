"""Nakagami-m sampling statistics, EVA placement, and stream determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from otfslab import fading
from otfslab.errors import ConfigError, DomainError
from otfslab.fading import PathSpec, make_stream
from otfslab.modem import OtfsGrid


class TestPathSpec:
    def test_rejects_invalid_shape_and_power(self):
        with pytest.raises(DomainError):
            PathSpec(m=0, omega=1.0)
        with pytest.raises(DomainError):
            PathSpec(m=1, omega=0.0)
        with pytest.raises(DomainError):
            PathSpec(m=1, omega=-2.0)

    def test_fractional_doppler_range(self):
        PathSpec(m=1, omega=1.0, kappa=-0.5)
        with pytest.raises(DomainError):
            PathSpec(m=1, omega=1.0, kappa=0.5)


class TestNakagamiSampling:
    def test_mean_power_law_of_large_numbers(self):
        rng = make_stream(11, 0)
        spec = PathSpec(m=1, omega=0.7)
        gains = fading.sample_nakagami_gains([spec], rng, 1_000_000)[:, 0]
        mean_p = float(np.mean(np.abs(gains) ** 2))
        assert abs(mean_p - 0.7) < 0.01 * 0.7

    def test_power_variance_matches_gamma(self):
        # |h|^2 ~ Gamma(2, 1/2) has variance 2 * (1/2)^2 = 1/2
        rng = make_stream(12, 0)
        spec = PathSpec(m=2, omega=1.0)
        p = np.abs(fading.sample_nakagami_gains([spec], rng, 1_000_000)[:, 0]) ** 2
        assert abs(float(np.var(p)) - 0.5) < 0.02 * 0.5

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_power_distribution_ks(self, m):
        rng = make_stream(13, m)
        spec = PathSpec(m=m, omega=1.0)
        p = np.abs(fading.sample_nakagami_gains([spec], rng, 100_000)[:, 0]) ** 2
        res = stats.kstest(p, "gamma", args=(m, 0.0, 1.0 / m))
        assert res.pvalue > 0.01

    def test_phase_uniformity_ks(self):
        rng = make_stream(14, 0)
        spec = PathSpec(m=2, omega=1.0)
        gains = fading.sample_nakagami_gains([spec], rng, 100_000)[:, 0]
        phases = np.mod(np.angle(gains), 2 * math.pi)
        res = stats.kstest(phases, "uniform", args=(0.0, 2 * math.pi))
        assert res.pvalue > 0.01

    def test_phase_independent_of_magnitude(self):
        rng = make_stream(15, 0)
        spec = PathSpec(m=2, omega=1.0)
        gains = fading.sample_nakagami_gains([spec], rng, 200_000)[:, 0]
        corr = np.corrcoef(np.abs(gains), np.mod(np.angle(gains), 2 * math.pi))[0, 1]
        assert abs(corr) < 0.01


class TestGenerateChannel:
    """Whole-channel draws: one gain per path and frame, keyed by stream."""

    def test_single_path_moments(self):
        # 2000 distinct streams of 10 frames, as sweep batches are keyed
        powers = [np.abs(fading.sample_nakagami_gains(
            [PathSpec(m=1, omega=1.0)], make_stream(16, i), 10)) ** 2
            for i in range(2000)]
        assert abs(np.mean(powers) - 1.0) < 0.03

    def test_total_power_split(self):
        rng = make_stream(17, 0)
        specs = [PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1)]
        gains = fading.sample_nakagami_gains(specs, rng, 400_000)
        total = float(np.mean((np.abs(gains) ** 2).sum(axis=1)))
        assert abs(total - 1.0) < 0.01

    def test_identical_stream_reproduces_bits(self):
        specs = [PathSpec(m=2, omega=1.0), PathSpec(m=1, omega=0.5, l=1)]
        a = fading.sample_nakagami_gains(specs, make_stream(21, 5), 64)
        b = fading.sample_nakagami_gains(specs, make_stream(21, 5), 64)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
        c = fading.sample_nakagami_gains(specs, make_stream(21, 6), 64)
        assert not np.any(a == c)


# P = 1, 2, 3, mixed shapes and non-integer shapes
POWER_SPEC_SETS = {
    "p1": (PathSpec(m=1, omega=1.0),),
    "p2-mixed": (PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1)),
    "p3-mixed": (PathSpec(m=3, omega=0.5), PathSpec(m=1, omega=0.3, l=1),
                 PathSpec(m=2, omega=0.2, l=2)),
    "p3-non-integer": (PathSpec(m=0.5, omega=0.2), PathSpec(m=1.5, omega=0.5, l=1),
                       PathSpec(m=3.7, omega=0.3, l=2)),
}


def drawn_in_order(specs, rng, size):
    """(powers, gains) drawn path by path: Gamma power, then uniform phase."""
    powers, gains = [], []
    for spec in specs:
        power = rng.gamma(spec.m, spec.omega / spec.m, size)
        phase = rng.uniform(0.0, 2.0 * math.pi, size)
        powers.append(power)
        gains.append(np.sqrt(power) * np.exp(1j * phase))
    return np.stack(powers, axis=1), np.stack(gains, axis=1)


class TestTotalPower:
    """sample_total_power reads the stream exactly as sample_nakagami_gains."""

    @pytest.mark.parametrize("name", sorted(POWER_SPEC_SETS))
    def test_stream_stays_aligned(self, name):
        specs = POWER_SPEC_SETS[name]
        a, b = make_stream(31, 4), make_stream(31, 4)
        fading.sample_total_power(specs, a, 257)
        fading.sample_nakagami_gains(specs, b, 257)
        assert np.array_equal(a.random(8), b.random(8))

    @pytest.mark.parametrize("name", sorted(POWER_SPEC_SETS))
    def test_equals_summed_squared_magnitudes(self, name):
        specs = POWER_SPEC_SETS[name]
        total = fading.sample_total_power(specs, make_stream(32, 1), 4096)
        gains = fading.sample_nakagami_gains(specs, make_stream(32, 1), 4096)
        ref = (np.abs(gains) ** 2).sum(axis=1)
        # sqrt, cos/sin, hypot and the squares each round once: about 4 eps
        # relative at worst (3.9 seen over 100k draws per set)
        assert np.all(np.abs(total - ref) <= 8 * np.finfo(float).eps * ref)

    @pytest.mark.parametrize("name", sorted(POWER_SPEC_SETS))
    def test_draw_order_is_power_then_phase_per_path(self, name):
        specs = POWER_SPEC_SETS[name]
        powers, gains = drawn_in_order(specs, make_stream(33, 2), 1024)
        total = fading.sample_total_power(specs, make_stream(33, 2), 1024)
        drawn = fading.sample_nakagami_gains(specs, make_stream(33, 2), 1024)
        assert np.array_equal(total, powers.sum(axis=1))
        assert np.array_equal(drawn.view(np.int64), gains.view(np.int64))


class TestEvaPlacement:
    def test_max_doppler_value(self):
        # 4 GHz carrier at 120 km/h
        nu = fading.max_doppler_hz(4e9, 120 / 3.6)
        assert abs(nu - 444.4) < 0.1

    def test_doppler_quantizes_to_zero_at_bench_parameters(self):
        grid = OtfsGrid(M=2, N=2, delta_f=15e3)
        # Doppler bin width 1/(N T) = 7.5 kHz dwarfs the 444 Hz physical shift
        for trial in range(50):
            specs = fading.eva_grid_placement(grid, 4e9, 120 / 3.6, 2,
                                              make_stream(22, trial))
            assert all(s.k == 0 for s in specs)
            assert all(s.kappa == 0.0 for s in specs)

    def test_single_tap_is_unit_power(self):
        grid = OtfsGrid(M=2, N=2)
        specs = fading.eva_grid_placement(grid, 4e9, 120 / 3.6, 1, make_stream(23, 0))
        assert len(specs) == 1
        assert abs(specs[0].omega - 1.0) < 1e-12
        assert specs[0].l == 0

    def test_two_taps_use_strongest_profile_entries(self):
        grid = OtfsGrid(M=2, N=2)
        specs = fading.eva_grid_placement(grid, 4e9, 120 / 3.6, 2, make_stream(24, 0))
        assert [s.l for s in specs] == [0, 1]
        # strongest two EVA taps are 0 dB and -0.6 dB
        expected = np.array([1.0, 10 ** (-0.06)])
        expected = expected / expected.sum()
        assert np.allclose([s.omega for s in specs], expected, rtol=1e-12)

    def test_too_many_paths_rejected(self):
        grid = OtfsGrid(M=2, N=2)
        with pytest.raises(ConfigError):
            fading.eva_grid_placement(grid, 4e9, 33.3, 3, make_stream(25, 0))
