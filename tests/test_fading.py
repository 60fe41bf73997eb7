"""Nakagami-m sampling statistics and stream determinism."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from otfslab import fading
from otfslab.errors import DomainError
from otfslab.fading import PathSpec, make_stream


class TestPathSpec:
    def test_rejects_invalid_shape_and_power(self):
        with pytest.raises(DomainError):
            PathSpec(m=0, omega=1.0)
        with pytest.raises(DomainError):
            PathSpec(m=1, omega=0.0)
        with pytest.raises(DomainError):
            PathSpec(m=1, omega=-2.0)

    def test_rejects_negative_delay(self):
        PathSpec(m=1, omega=1.0, l=0)
        with pytest.raises(DomainError, match="delay bin"):
            PathSpec(m=1, omega=1.0, l=-1)

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
    "p1-non-integer": (PathSpec(m=2.5, omega=1.0),),
    "p2-mixed": (PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1)),
    "p2-non-integer": (PathSpec(m=0.7, omega=0.6), PathSpec(m=1.3, omega=0.4, l=1)),
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


class TestGainDraw:
    """The gains are written part by part into their columns."""

    @pytest.mark.parametrize("name", sorted(POWER_SPEC_SETS))
    def test_bits_of_sqrt_power_times_exp_phase(self, name):
        # magnitude times cos and sin of the phase, written into the real and
        # imaginary parts, against the complex exponential they replace
        specs = POWER_SPEC_SETS[name]
        for seed in range(8):
            for size in (1, 7, 8192):
                _, want = drawn_in_order(specs, make_stream(38, seed, size), size)
                got = fading.sample_nakagami_gains(specs, make_stream(38, seed, size),
                                                   size)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
                    seed, size)

    def test_draws_into_the_gains(self):
        # beside the (size, P) gains, three float arrays of size: power,
        # phase and one cos/sin; a complex temporary would add two more
        size = 100_000
        for name in ("p1", "p3-mixed"):
            specs = POWER_SPEC_SETS[name]
            tracemalloc.start()
            try:
                fading.sample_nakagami_gains(specs, make_stream(39, 0), size)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 16 * size * len(specs) + 3.25 * 8 * size, name


# each size leaves a different remainder in Philox's 4-word block
ALIGN_SIZES = (1, 2, 3, 4, 5, 257, 4099)


class TestTotalPower:
    """sample_total_power leaves the stream where sample_nakagami_gains does."""

    @pytest.mark.parametrize("name", sorted(POWER_SPEC_SETS))
    def test_stream_stays_aligned(self, name):
        # the caller first reads 0..3 doubles, so the skip starts at every
        # buffer position too
        specs = POWER_SPEC_SETS[name]
        for size in ALIGN_SIZES:
            for lead in range(4):
                a, b = make_stream(31, size, lead), make_stream(31, size, lead)
                for rng in (a, b):
                    rng.random(lead)
                fading.sample_total_power(specs, a, size)
                fading.sample_nakagami_gains(specs, b, size)
                assert np.array_equal(a.random(9), b.random(9)), (size, lead)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 4099])
    def test_a_pending_int32_half_word_is_kept(self, size):
        # an int32 draw leaves the other half of its word in has_uint32 and
        # uinteger.  On these streams sizes 1-4 skip no whole block, while 5
        # and 4099 go through Philox.advance, which zeroes both, so the skip
        # puts them back
        specs = POWER_SPEC_SETS["p2-mixed"]
        a, b = make_stream(35, size), make_stream(35, size)
        for rng in (a, b):
            rng.integers(0, 1000, dtype=np.int32)
        assert a.bit_generator.state["has_uint32"] == 1
        fading.sample_total_power(specs, a, size)
        fading.sample_nakagami_gains(specs, b, size)
        assert np.array_equal(a.integers(0, 1000, 9, dtype=np.int32),
                              b.integers(0, 1000, 9, dtype=np.int32))
        assert np.array_equal(a.random(9), b.random(9))

    def test_a_non_philox_stream_raises_before_drawing(self):
        rng = np.random.Generator(np.random.PCG64(36))
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match="Philox"):
            fading.sample_total_power(POWER_SPEC_SETS["p1"], rng, 16)
        assert rng.bit_generator.state == before

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

    @pytest.mark.parametrize("name", ["p1", "p2-mixed", "p3-non-integer"])
    def test_chunks_read_the_stream_as_one_draw(self, name):
        # every path, the first included, is drawn fading._POWER_CHUNK at a
        # time: sizes on and about the chunk edges give one draw's powers and
        # stream position
        specs = POWER_SPEC_SETS[name]
        chunk = fading._POWER_CHUNK
        for size in (chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
            a, b = make_stream(37, size), make_stream(37, size)
            total = fading.sample_total_power(specs, a, size)
            powers, _ = drawn_in_order(specs, b, size)
            assert np.array_equal(total, powers.sum(axis=1)), size
            assert np.array_equal(a.random(9), b.random(9)), size

    def test_draws_in_place(self):
        # every path adds one chunk of fading._POWER_CHUNK (0.08 of the sums
        # here) into the sums.  A scratch array of the sums' size peaks at two
        # arrays, and a draw that allocated per path (powers, then phases,
        # beside the sums) at five
        size = 200_000
        for name in ("p1", "p2-mixed", "p3-mixed"):
            tracemalloc.start()
            try:
                fading.sample_total_power(POWER_SPEC_SETS[name], make_stream(34, 0), size)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 8 * size, name

