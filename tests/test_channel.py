import math
from fractions import Fraction

import numpy as np
import pytest

from longwire import (
    DeviceProfile,
    Geometry,
    MeasurementConfig,
    Orientation,
    drift_step,
    expected_count,
    expected_delta_rc,
    simulate_counts,
    simulate_trace,
    simulate_window,
)
from longwire.channel import CountTrace, TraceSample, trace_from_csv, trace_to_csv
from longwire.exfil import ExfilChannel, KeyBits, measure_windows_noisy, window_hw_oracle
from longwire.patterns import PatternSpec, window_stimulus
from longwire.stats import ks_two_sample


def drc(profile, **kw):
    return expected_delta_rc(profile, Geometry(**kw))


class TestExpectedDeltaRC:
    def test_zero_beyond_distance_two(self, profile):
        for vt, vr in [(1, 1), (2, 5), (Fraction(1, 3), 2)]:
            assert drc(profile, v_t=vt, v_r=vr, d=3) == 0.0
            assert drc(profile, v_t=vt, v_r=vr, d=7) == 0.0

    def test_constant_over_fractions_of_a_long(self, profile):
        values = {drc(profile, v_t=vt, v_r=2) for vt in (Fraction(1, 3), Fraction(2, 3), 1)}
        assert len(values) == 1

    def test_zero_coupling_kills_effect(self):
        profile = DeviceProfile(coupling_alpha=0.0, local_static_epsilon=0.0)
        for vt in (1, 3, Fraction(2, 3)):
            for vr in (1, 2, 5):
                assert drc(profile, v_t=vt, v_r=vr) == 0.0

    def test_distance_two_is_twenty_times_weaker_exactly(self, profile):
        for vt, vr in [(2, 2), (5, 5), (1, 3)]:
            close = drc(profile, v_t=vt, v_r=vr, d=1)
            far = drc(profile, v_t=vt, v_r=vr, d=2)
            assert far == 0.05 * close

    def test_linear_in_integer_vt_below_vr(self, profile):
        unit = drc(profile, v_t=1, v_r=5)
        for k in (2, 3, 4, 5):
            assert drc(profile, v_t=k, v_r=5) == pytest.approx(k * unit, rel=1e-12)
        # strictly increasing across the linear segment
        seg = [drc(profile, v_t=k, v_r=5) for k in range(1, 6)]
        assert all(a < b for a, b in zip(seg, seg[1:]))

    def test_constant_for_vt_beyond_vr(self, profile):
        base = drc(profile, v_t=3, v_r=3)
        for vt in (4, 5, 9, Fraction(11, 3)):
            assert drc(profile, v_t=vt, v_r=3) == base

    def test_decreasing_in_vr_above_vt_increasing_below(self, profile):
        # fixed transmitter, growing receiver: effect dilutes
        above = [drc(profile, v_t=3, v_r=vr) for vr in range(3, 8)]
        assert all(a > b for a, b in zip(above, above[1:]))
        # receiver shorter than transmitter: effect grows with receiver
        below = [drc(profile, v_t=6, v_r=vr) for vr in range(1, 7)]
        assert all(a < b for a, b in zip(below, below[1:]))

    def test_geometry_metadata_is_irrelevant(self, profile):
        base = drc(profile, v_t=5, v_r=2)
        for offset in (0, 1, 2, 3):
            for orientation in Orientation:
                for location in ("center", "top_left", "bottom_right"):
                    geom = Geometry(
                        v_t=5, v_r=2, d=1,
                        offset=offset, orientation=orientation, location=location,
                    )
                    assert expected_delta_rc(profile, geom) == base

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=0)
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=2, d=0)
        with pytest.raises(ValueError):
            Geometry(v_t=0, v_r=1)


class TestGeometry:
    def test_offset_bounds(self):
        # max offset = max(v_t, v_r) - min(ceil(v_t), v_r)
        Geometry(v_t=5, v_r=2, offset=3)
        with pytest.raises(ValueError):
            Geometry(v_t=5, v_r=2, offset=4)
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=2, offset=1)

    def test_lengths_snap_to_thirds(self):
        assert Geometry(v_t="1/3", v_r=1).v_t == Fraction(1, 3)
        assert Geometry(v_t=Fraction(4, 3), v_r=2).v_t == Fraction(4, 3)
        with pytest.raises(ValueError):
            Geometry(v_t=0.4, v_r=1)

    def test_coupling_values(self):
        Geometry(v_t=2, v_r=2, coupling="local")
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=2, coupling="wireless")


class TestProfileInvariants:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(base_rate=0.0)
        with pytest.raises(ValueError):
            DeviceProfile(stage_beta=0.0)
        with pytest.raises(ValueError):
            DeviceProfile(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            DeviceProfile(local_static_epsilon=1e-3)  # not << coupling_alpha

    def test_attenuation_must_be_non_increasing_and_cut_off(self):
        with pytest.raises(ValueError):
            DeviceProfile(distance_atten={1: 0.5, 2: 0.9})
        with pytest.raises(ValueError):
            DeviceProfile(distance_atten={1: 1.0, 2: 0.05, 3: 0.01})
        DeviceProfile(distance_atten={1: 1.0, 2: 0.05, 3: 0.0})


class TestMeasurementConfig:
    def test_window_arithmetic(self):
        cfg = MeasurementConfig(log2_ticks=13)
        assert cfg.ticks_per_window == 8192
        assert cfg.window_seconds == pytest.approx(81.92e-6)

    def test_bounds(self):
        for bad in (0, 33):
            with pytest.raises(ValueError):
                MeasurementConfig(log2_ticks=bad)


class TestDriftStep:
    def test_no_noise_no_state(self, quiet_profile):
        rng = np.random.default_rng(0)
        assert drift_step(0.0, quiet_profile, rng) == 0.0

    def test_deterministic_decay(self):
        profile = DeviceProfile(drift_rate=0.0, drift_reversion=0.1, drift_bound=0.02)
        rng = np.random.default_rng(0)
        assert drift_step(0.01, profile, rng) == pytest.approx(0.009)

    def test_stays_within_bound_over_long_runs(self):
        profile = DeviceProfile(drift_rate=1e-3, drift_reversion=0.001, drift_bound=5e-3)
        rng = np.random.default_rng(123)
        state = 0.0
        for _ in range(100_000):
            state = drift_step(state, profile, rng)
            assert abs(state) <= profile.drift_bound


class TestSimulateWindow:
    def test_baseline_count(self, quiet_profile, cfg13, geom22):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = simulate_window(quiet_profile, cfg13, geom22, 0.0, 0.0, 0.0, rng)
            assert abs(c - 24576) <= 1

    def test_calibrated_full_swing(self, quiet_profile, cfg13, geom22):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = simulate_window(quiet_profile, cfg13, geom22, 1.0, 0.0, 0.0, rng)
            assert abs(c - 24580) <= 1

    def test_count_difference_scales_with_window(self, quiet_profile, geom22):
        d13 = expected_count(quiet_profile, MeasurementConfig(log2_ticks=13), geom22, 1.0) - \
            expected_count(quiet_profile, MeasurementConfig(log2_ticks=13), geom22, 0.0)
        d15 = expected_count(quiet_profile, MeasurementConfig(log2_ticks=15), geom22, 1.0) - \
            expected_count(quiet_profile, MeasurementConfig(log2_ticks=15), geom22, 0.0)
        assert d15 == 4.0 * d13

    def test_rejects_bad_duty(self, profile, cfg13, geom22):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_window(profile, cfg13, geom22, 1.5, 0.0, 0.0, rng)
        with pytest.raises(ValueError):
            simulate_window(profile, cfg13, geom22, -0.1, 0.0, 0.0, rng)

    def test_expected_count_monotone_in_duty(self, profile, cfg13):
        for geom in (Geometry(v_t=2, v_r=2), Geometry(v_t=2, v_r=2, coupling="local")):
            counts = [expected_count(profile, cfg13, geom, duty) for duty in np.linspace(0, 1, 11)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_long_path_ignores_toggle_rate(self, profile, cfg13, geom22):
        a = expected_count(profile, cfg13, geom22, 0.5, toggle_rate=0.0)
        b = expected_count(profile, cfg13, geom22, 0.5, toggle_rate=0.25)
        assert a == b

    def test_local_path_penalizes_toggle_rate(self, profile, cfg13):
        geom = Geometry(v_t=2, v_r=2, coupling="local")
        a = expected_count(profile, cfg13, geom, 0.5, toggle_rate=0.0)
        b = expected_count(profile, cfg13, geom, 0.5, toggle_rate=0.25)
        assert b < a


class TestSimulateTrace:
    def test_alternating_duties(self, profile, cfg13, geom22):
        trace = simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 4, seed=0)
        assert [s.duty for s in trace.samples] == [0.0, 1.0, 0.0, 1.0]
        assert [s.tx_bit for s in trace.samples] == [0, 1, 0, 1]

    def test_rejects_empty_request(self, profile, cfg13, geom22):
        with pytest.raises(ValueError):
            simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 0, seed=0)

    def test_deterministic_per_seed(self, profile, cfg13, geom22):
        a = simulate_trace(profile, cfg13, geom22, PatternSpec.lfsr(), 64, seed=99)
        b = simulate_trace(profile, cfg13, geom22, PatternSpec.lfsr(), 64, seed=99)
        c = simulate_trace(profile, cfg13, geom22, PatternSpec.lfsr(), 64, seed=100)
        assert a == b
        assert a != c

    def test_same_hamming_weight_codes_agree_in_law(self, profile, cfg21, geom22):
        # 1100 and 1010 have the same duty; the long path ignores switching
        assert expected_count(profile, cfg21, geom22, 0.5, 1 / 8) == \
            expected_count(profile, cfg21, geom22, 0.5, 1 / 4)
        a = simulate_trace(profile, cfg21, geom22, PatternSpec.dynamic4("1100"), 2048, seed=11)
        b = simulate_trace(profile, cfg21, geom22, PatternSpec.dynamic4("1010"), 2048, seed=12)
        _, p = ks_two_sample(a.counts, b.counts)
        assert p > 0.05

    def test_linearity_in_time_with_noise(self, profile, geom22):
        def mean_dc(log2_ticks, seed):
            cfg = MeasurementConfig(log2_ticks=log2_ticks)
            trace = simulate_trace(profile, cfg, geom22, PatternSpec.alternating(), 2048, seed)
            counts = trace.counts
            return np.mean([counts[i + 1] - counts[i] for i in range(0, len(counts), 2)])

        ratio = mean_dc(15, seed=3) / mean_dc(13, seed=4)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_linearity_in_time_noise_free(self, quiet_profile, geom22):
        def mean_dc(log2_ticks):
            cfg = MeasurementConfig(log2_ticks=log2_ticks)
            trace = simulate_trace(quiet_profile, cfg, geom22, PatternSpec.alternating(), 1000, 5)
            counts = trace.counts
            return np.mean([counts[i + 1] - counts[i] for i in range(0, len(counts), 2)])

        assert abs(mean_dc(15) - 4 * mean_dc(13)) <= 2.0

    def test_counts_saturate_at_zero(self, cfg13, geom22):
        profile = DeviceProfile(noise_sigma=1e6)
        trace = simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 256, seed=8)
        assert all(s.count >= 0 for s in trace.samples)


def replica_counts(profile, cfg, geom, stimuli, seed):
    """Stream version 2 one window at a time: three blocks drawn up front
    (drift innovations, noise, counter phase), then a scalar window loop."""
    n = len(stimuli)
    rng = np.random.default_rng(seed)
    innovations = rng.normal(0.0, profile.drift_rate, n).tolist()
    noise = rng.normal(0.0, profile.noise_sigma_for(cfg.ticks_per_window), n).tolist()
    phase = rng.uniform(-1.0, 1.0, n).tolist()
    drift, counts, clipped = 0.0, [], 0
    for (duty, toggle), e, z, u in zip(stimuli, innovations, noise, phase):
        drift = drift * (1.0 - profile.drift_reversion) + e
        if abs(drift) > profile.drift_bound:
            drift = math.copysign(profile.drift_bound, drift)
            clipped += 1
        counts.append(max(0, round(expected_count(profile, cfg, geom, duty, toggle, drift) + z + u)))
    return counts, clipped


class TestStreamOracle:
    """simulate_trace and measure_windows_noisy equal a scalar replica of the stream."""

    CLIPPING = DeviceProfile(drift_rate=1e-4, drift_bound=2e-4)
    NOISELESS = DeviceProfile(noise_sigma=0.0)

    @pytest.mark.parametrize(
        "pattern, coupling",
        [
            (PatternSpec.alternating(), "long"),
            (PatternSpec.lfsr(), "long"),
            (PatternSpec.dynamic4("1010"), "local"),
            (PatternSpec.custom((1, 1, 0, 1, 0)), "long"),
        ],
        ids=["alternating", "lfsr", "dynamic4-local", "custom"],
    )
    @pytest.mark.parametrize("profile_name", ["default", "clipping", "noiseless"])
    def test_trace_equals_replica(self, pattern, coupling, profile_name, cfg13):
        profile = {"default": DeviceProfile(), "clipping": self.CLIPPING, "noiseless": self.NOISELESS}[profile_name]
        geom = Geometry(v_t=2, v_r=2, coupling=coupling)
        stimuli = [window_stimulus(pattern, i) for i in range(300)]
        expected, clipped = replica_counts(profile, cfg13, geom, [(s.duty, s.toggle_rate) for s in stimuli], 17)
        assert (clipped > 0) == (profile is self.CLIPPING)
        trace = simulate_trace(profile, cfg13, geom, pattern, 300, seed=17)
        assert trace.counts == expected
        assert all(type(c) is int for c in trace.counts)
        assert [(s.window, s.duty, s.toggle_rate, s.tx_bit) for s in trace.samples] == [
            (i, s.duty, s.toggle_rate, s.bit) for i, s in enumerate(stimuli)
        ]

    @pytest.mark.parametrize("repeats", [1, 4])
    @pytest.mark.parametrize("profile_name", ["default", "clipping"])
    def test_noisy_windows_equal_replica(self, repeats, profile_name):
        profile = {"default": DeviceProfile(), "clipping": self.CLIPPING}[profile_name]
        chan = ExfilChannel(profile, MeasurementConfig(log2_ticks=15), Geometry(), seed=23, repeats=repeats)
        key = KeyBits.from_int(0x9E3779B97F4A7C15, 64)
        w = 10
        duties = [window_hw_oracle(key, pos, w) / w for pos in range(len(key) - w + 1)]
        stimuli = [(duty, 0.0) for duty in duties for _ in range(repeats)]
        counts, _ = replica_counts(profile, chan.cfg, chan.geom, stimuli, chan.seed)
        expected = [sum(counts[i : i + repeats]) / repeats for i in range(0, len(counts), repeats)]
        assert measure_windows_noisy(key, w, chan) == expected

    def test_counts_validate_stimulus(self, profile, cfg13, geom22):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duty"):
            simulate_counts(profile, cfg13, geom22, [0.0, 1.5], 0.0, rng)
        with pytest.raises(ValueError, match="duty"):
            simulate_counts(profile, cfg13, geom22, [np.nan], 0.0, rng)
        with pytest.raises(ValueError, match="toggle_rate"):
            simulate_counts(profile, cfg13, geom22, [0.5, 0.5], [0.0, -0.25], rng)

    def test_window_keeps_scalar_draw_order(self, profile, cfg13, geom22):
        drift = 3e-6
        rng = np.random.default_rng(4)
        noise, phase = rng.normal(0.0, profile.noise_sigma_for(cfg13.ticks_per_window)), rng.uniform(-1.0, 1.0)
        expected = max(0, round(expected_count(profile, cfg13, geom22, 0.5, 0.0, drift) + noise + phase))
        assert simulate_window(profile, cfg13, geom22, 0.5, 0.0, drift, np.random.default_rng(4)) == expected


class TestTraceCSV:
    def test_round_trip(self, profile, cfg13, geom22):
        trace = simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 8, seed=2)
        again = trace_from_csv(trace_to_csv(trace))
        assert again.samples == trace.samples

    def test_header_and_blank_bit(self):
        trace = CountTrace((TraceSample(0, 10, 0.5, 0.125, None),))
        text = trace_to_csv(trace)
        assert text.splitlines()[0] == "window,count,duty,toggle_rate,tx_bit"
        assert text.splitlines()[1].endswith(",")
        assert trace_from_csv(text).samples[0].tx_bit is None

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            trace_from_csv("a,b,c\n1,2,3\n")

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            CountTrace((TraceSample(1, 5, 0.0, 0.0, 0), TraceSample(1, 5, 0.0, 0.0, 0)))
        with pytest.raises(ValueError):
            CountTrace((TraceSample(0, -1, 0.0, 0.0, 0),))
        with pytest.raises(ValueError):
            CountTrace((TraceSample(0, 5, 1.5, 0.0, 0),))


def test_noise_sigma_scales_with_sqrt_window():
    profile = DeviceProfile()
    assert profile.noise_sigma_for(1 << 13) == pytest.approx(0.8)
    assert profile.noise_sigma_for(1 << 15) == pytest.approx(1.6)
    assert profile.noise_sigma_for(1 << 21) == pytest.approx(12.8)
