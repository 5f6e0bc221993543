import copy
import csv
import dataclasses
import io
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from longwire import (
    DeviceProfile,
    Geometry,
    MeasurementConfig,
    expected_count,
    expected_delta_rc,
    simulate_counts,
    simulate_trace,
)
from longwire.channel import TRACE_CSV_HEADER, CountTrace, as_longs, trace_from_csv, trace_to_csv
from longwire import channel, codec, exfil
from longwire.errors import InconsistentMeasurements
from longwire.exfil import ExfilChannel, KeyBits, measure_windows_noisy, single_window_recover, window_hw_oracle
from longwire.patterns import DYNAMIC4_CODES, PatternSpec, stimulus_columns
from longwire.stats import ks_two_sample
from conftest import stimulus_oracle


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

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=0)
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=2, d=0)
        with pytest.raises(ValueError):
            Geometry(v_t=0, v_r=1)


class TestGeometry:
    def test_lengths_snap_to_thirds(self):
        assert Geometry(v_t="1/3", v_r=1).v_t == Fraction(1, 3)
        assert Geometry(v_t=Fraction(4, 3), v_r=2).v_t == Fraction(4, 3)
        with pytest.raises(ValueError):
            Geometry(v_t=0.4, v_r=1)
        for bad in ("1/0", math.inf, math.nan):
            with pytest.raises(ValueError):
                Geometry(v_t=bad, v_r=1)
        for bad in (None, 1 + 0j, [1]):
            with pytest.raises(ValueError, match=f"^wire length must be a multiple of 1/3 > 0, got {re.escape(repr(bad))}$"):
                as_longs(bad)

    def test_coupling_values(self):
        Geometry(v_t=2, v_r=2, coupling="local")
        with pytest.raises(ValueError):
            Geometry(v_t=2, v_r=2, coupling="wireless")

    @pytest.mark.parametrize(
        "field, value",
        [("d", 1.5), ("d", 1.0), ("d", True), ("d", "1"), ("d", None), ("d", 0), ("d", np.int64(-1)),
         ("v_r", 2.5), ("v_r", 2.0), ("v_r", True), ("v_r", False), ("v_r", Fraction(2)), ("v_r", 0)],
    )
    def test_receiver_length_and_distance_must_be_ints(self, field, value):
        # d = 1.5 used to pass and read no attenuation entry, so the coupling came out 0
        with pytest.raises(ValueError, match=f"^{field} must be an int >= 1, got "):
            Geometry(**{"v_t": 2, "v_r": 2, "d": 1, field: value})

    @pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.uint8])
    def test_numpy_ints_count_as_ints(self, cast, profile):
        geom = Geometry(v_t=2, v_r=cast(3), d=cast(2))
        assert geom.v_r == 3 and geom.d == 2
        assert drc(profile, v_t=2, v_r=cast(3), d=cast(2)) == drc(profile, v_t=2, v_r=3, d=2) > 0

    @pytest.mark.parametrize("v_t", [Fraction(2), Fraction(1, 3), Fraction(5, 3), 2, "4/3", 1.0 / 3.0])
    def test_normalised_lengths_are_kept(self, v_t):
        geom = Geometry(v_t=v_t, v_r=2)
        assert type(geom.v_t) is Fraction and geom.v_t == as_longs(v_t)
        if isinstance(v_t, Fraction):
            assert geom.v_t is v_t

    @pytest.mark.parametrize("v_t", [Fraction(0), Fraction(-1, 3), Fraction(-2), Fraction(2, 5), Fraction(1, 6)])
    def test_fraction_lengths_are_checked(self, v_t):
        message = f"wire length must be a multiple of 1/3 > 0, got {v_t!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Geometry(v_t=v_t, v_r=2)


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(coupling_alpha=-1e-6), "coupling_alpha must be a finite number >= 0, got -1e-06"),
            (dict(drift_reversion=1.5), "drift_reversion must be a finite number in [0, 1], got 1.5"),
            (dict(drift_rate=-1e-9), "drift_rate must be a finite number >= 0, got -1e-09"),
            (dict(drift_bound=-1e-9), "drift_bound must be a finite number >= 0, got -1e-09"),
            (dict(local_switch_penalty=-1e-9), "local_switch_penalty must be a finite number >= 0, got -1e-09"),
            (dict(local_static_epsilon=-1e-12), "local_static_epsilon must be a finite number >= 0, got -1e-12"),
            (dict(distance_atten={0: 1.0}), "distance_atten key must be an int >= 1, got 0"),
            (dict(distance_atten={1: 1.0, 2: -0.05}),
             "distance_atten multiplier for d=2 must be a finite number >= 0, got -0.05"),
        ],
    )
    def test_each_rule_states_its_message(self, fields, message):
        with pytest.raises(ValueError) as err:
            DeviceProfile(**fields)
        assert str(err.value) == message

    def test_attenuation_must_be_non_increasing_and_cut_off(self):
        with pytest.raises(ValueError):
            DeviceProfile(distance_atten={1: 0.5, 2: 0.9})
        with pytest.raises(ValueError):
            DeviceProfile(distance_atten={1: 1.0, 2: 0.05, 3: 0.01})
        DeviceProfile(distance_atten={1: 1.0, 2: 0.05, 3: 0.0})
        with pytest.raises(ValueError, match="^distance must be an int >= 1, got 0$"):
            DeviceProfile().attenuation(0)

    @pytest.mark.parametrize("atten, key", [({1: 1.0, 1.2: 0.05}, 1.2), ({True: 1.0}, True), ({1.0: 1.0}, 1.0)])
    def test_distance_keys_must_be_ints(self, atten, key):
        # int(d) used to read 1.2 as 1, so the adjacent-wire multiplier became 0.05
        with pytest.raises(ValueError, match=rf"^distance_atten key must be an int >= 1, got {re.escape(repr(key))}$"):
            DeviceProfile(distance_atten=atten)
        assert DeviceProfile(distance_atten={np.int64(1): 1.0}).distance_atten == {1: 1.0}

    @pytest.mark.parametrize("d", [1.5, True, 1.0, "1"])
    def test_attenuation_distance_must_be_an_int(self, d):
        # 1.5 used to read 0.0 and True 1.0
        with pytest.raises(ValueError, match=rf"^distance must be an int >= 1, got {re.escape(repr(d))}$"):
            DeviceProfile().attenuation(d)
        assert DeviceProfile().attenuation(np.int64(2)) == 0.05

    @pytest.mark.parametrize(
        "write",
        [
            lambda m: m.__setitem__(3, 1.0),
            lambda m: m.__delitem__(2),
            lambda m: m.__ior__({3: 1.0}),
            lambda m: m.update({3: 1.0}),
            lambda m: m.setdefault(3, 1.0),
            lambda m: m.pop(2),
            lambda m: m.popitem(),
            lambda m: m.clear(),
        ],
        ids=["setitem", "delitem", "ior", "update", "setdefault", "pop", "popitem", "clear"],
    )
    def test_attenuation_is_read_only(self, write):
        profile = DeviceProfile()
        with pytest.raises(TypeError, match="read-only"):
            write(profile.distance_atten)
        assert profile.distance_atten == {1: 1.0, 2: 0.05}
        assert expected_delta_rc(profile, Geometry(d=3)) == 0.0

    def test_repr_and_equality(self):
        profile = DeviceProfile(distance_atten={1: 1.0, 2: 0.5})
        assert "distance_atten={1: 1.0, 2: 0.5}," in repr(profile)
        assert profile == DeviceProfile(distance_atten={1: 1.0, 2: 0.5})
        assert profile != DeviceProfile()

    def test_hash(self):
        assert hash(DeviceProfile()) == hash(DeviceProfile(distance_atten={2: 0.05, 1: 1.0}))
        assert len({DeviceProfile(), DeviceProfile(), DeviceProfile(noise_sigma=0.5)}) == 2

    def test_replace(self):
        profile = DeviceProfile(distance_atten={1: 1.0, 2: 0.5})
        quieter = dataclasses.replace(profile, noise_sigma=0.1)
        assert quieter.distance_atten == profile.distance_atten and quieter.noise_sigma == 0.1
        with pytest.raises(TypeError):
            quieter.distance_atten[3] = 1.0

    @pytest.mark.parametrize(
        "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_pickle_and_deepcopy(self, clone):
        profile = DeviceProfile(distance_atten={1: 1.0, 2: 0.5})
        other = clone(profile)
        assert other == profile and hash(other) == hash(profile)
        with pytest.raises(TypeError):
            other.distance_atten[3] = 1.0


class TestMeasurementConfig:
    def test_window_arithmetic(self):
        cfg = MeasurementConfig(log2_ticks=13)
        assert cfg.ticks_per_window == 8192
        assert cfg.window_seconds == pytest.approx(81.92e-6)

    def test_bounds(self):
        for bad in (0, 33, 13.5, True, "13"):
            with pytest.raises(ValueError, match=rf"^log2_ticks must be an int in \[1, 32\], got {re.escape(repr(bad))}$"):
                MeasurementConfig(log2_ticks=bad)
        for bad in (0.0, -1e6):
            message = rf"^f_clk_hz must be a finite number > 0, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=message):
                MeasurementConfig(f_clk_hz=bad)


class TestSimulateWindow:
    def test_baseline_count(self, quiet_profile, cfg13, geom22):
        counts = simulate_counts(quiet_profile, cfg13, geom22, np.zeros(50), 0.0, np.random.default_rng(0))
        assert (np.abs(counts - 24576) <= 1).all()

    def test_calibrated_full_swing(self, quiet_profile, cfg13, geom22):
        counts = simulate_counts(quiet_profile, cfg13, geom22, np.ones(50), 0.0, np.random.default_rng(0))
        assert (np.abs(counts - 24580) <= 1).all()

    def test_count_difference_scales_with_window(self, quiet_profile, geom22):
        d13 = expected_count(quiet_profile, MeasurementConfig(log2_ticks=13), geom22, 1.0) - \
            expected_count(quiet_profile, MeasurementConfig(log2_ticks=13), geom22, 0.0)
        d15 = expected_count(quiet_profile, MeasurementConfig(log2_ticks=15), geom22, 1.0) - \
            expected_count(quiet_profile, MeasurementConfig(log2_ticks=15), geom22, 0.0)
        assert d15 == 4.0 * d13

    def test_rejects_bad_duty(self, profile, cfg13, geom22):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_counts(profile, cfg13, geom22, [1.5], 0.0, rng)
        with pytest.raises(ValueError):
            simulate_counts(profile, cfg13, geom22, [-0.1], 0.0, rng)

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
        assert trace.duty.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert trace.tx_bits == [0, 1, 0, 1]
        assert trace.window.tolist() == [0, 1, 2, 3]

    def test_rejects_empty_request(self, profile, cfg13, geom22):
        with pytest.raises(ValueError):
            simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 0, seed=0)

    @pytest.mark.parametrize("num_windows", [2.5, True, 4.0, "4", None], ids=repr)
    def test_num_windows_must_be_an_int(self, profile, cfg13, geom22, num_windows):
        with pytest.raises(ValueError, match=rf"^num_windows must be an int >= 1, got {re.escape(repr(num_windows))}$"):
            simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), num_windows, seed=0)

    def test_numpy_int_num_windows_accepted(self, profile, cfg13, geom22):
        for num_windows in (np.int64(4), np.uint8(4), np.int32(4)):
            trace = simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), num_windows, seed=0)
            assert trace.samples == simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 4, seed=0).samples

    def test_deterministic_per_seed(self, profile, cfg13, geom22):
        a = simulate_trace(profile, cfg13, geom22, PatternSpec.lfsr(), 64, seed=99)
        b = simulate_trace(profile, cfg13, geom22, PatternSpec.lfsr(), 64, seed=99)
        c = simulate_trace(profile, cfg13, geom22, PatternSpec.lfsr(), 64, seed=100)
        assert a.samples == b.samples
        assert a.samples != c.samples

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
            counts = simulate_trace(profile, cfg, geom22, PatternSpec.alternating(), 2048, seed).counts
            return np.mean(counts[1::2] - counts[0::2])

        ratio = mean_dc(15, seed=3) / mean_dc(13, seed=4)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_linearity_in_time_noise_free(self, quiet_profile, geom22):
        def mean_dc(log2_ticks):
            cfg = MeasurementConfig(log2_ticks=log2_ticks)
            counts = simulate_trace(quiet_profile, cfg, geom22, PatternSpec.alternating(), 1000, 5).counts
            return np.mean(counts[1::2] - counts[0::2])

        assert abs(mean_dc(15) - 4 * mean_dc(13)) <= 2.0

    def test_counts_saturate_at_zero(self, cfg13, geom22):
        profile = DeviceProfile(noise_sigma=1e6)
        trace = simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 256, seed=8)
        assert (trace.counts >= 0).all()
        assert (trace.counts == 0).any()


def replica_counts(profile, cfg, geom, stimuli, seed):
    """Stream version 2 one window at a time: three blocks drawn up front
    (drift innovations, noise, counter phase), then a scalar window loop.
    Returns the counts and the indices of the windows whose drift was clipped."""
    n = len(stimuli)
    rng = np.random.default_rng(seed)
    innovations = rng.normal(0.0, profile.drift_rate, n).tolist()
    noise = rng.normal(0.0, profile.noise_sigma_for(cfg.ticks_per_window), n).tolist()
    phase = rng.uniform(-1.0, 1.0, n).tolist()
    drift, counts, clipped = 0.0, [], []
    for i, ((duty, toggle), e, z, u) in enumerate(zip(stimuli, innovations, noise, phase)):
        drift = drift * (1.0 - profile.drift_reversion) + e
        if abs(drift) > profile.drift_bound:
            drift = math.copysign(profile.drift_bound, drift)
            clipped.append(i)
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
        stimuli = [stimulus_oracle(pattern, i) for i in range(300)]
        expected, clipped = replica_counts(profile, cfg13, geom, [(duty, toggle) for duty, toggle, _ in stimuli], 17)
        assert bool(clipped) == (profile is self.CLIPPING)
        trace = simulate_trace(profile, cfg13, geom, pattern, 300, seed=17)
        assert trace.counts.dtype == np.int64 and trace.duty.dtype == trace.toggle_rate.dtype == np.float64
        assert trace.counts.tolist() == expected
        assert trace.samples == tuple((i, c, *stim) for i, (c, stim) in enumerate(zip(expected, stimuli)))
        assert all(type(s.count) is int and type(s.duty) is float for s in trace.samples)

    # Drift large enough to move counts by tens, so that the drift pass shows in them.
    WANDER = {"drift_rate": 1e-4, "drift_bound": 1.0}

    @pytest.mark.parametrize(
        "overrides, windows, first_clip",
        [
            (WANDER, 4099, None),
            (WANDER, 1, None),
            (WANDER, 64, None),
            (WANDER, 65, None),
            ({**WANDER, "drift_reversion": 1.0}, 4099, None),
            ({**WANDER, "drift_reversion": 0.0}, 4099, None),
            ({"drift_rate": 1e-4, "drift_bound": 2.5e-3}, 4099, 500),
            ({"drift_rate": 1e-4, "drift_bound": 2e-4}, 4099, 0),
            (WANDER, 4096, None),
            (WANDER, 45056, None),
            (WANDER, 55, None),
            (WANDER, 220, None),
        ],
        ids=["long", "single", "one-block", "block-and-one", "keep-0", "keep-1", "late-clip", "clipping",
             "whole-blocks", "block-ends-on-a-strided-view", "attack-repeats-1", "attack-repeats-4"],
    )
    def test_counts_equal_replica(self, overrides, windows, first_clip, cfg13, geom22):
        profile = DeviceProfile(**overrides)
        stimuli = [(float(i % 2), 0.0) for i in range(windows)]
        expected, clipped = replica_counts(profile, cfg13, geom22, stimuli, 31)
        if first_clip is None:
            assert not clipped
        else:
            assert clipped[0] >= first_clip
        counts = simulate_counts(profile, cfg13, geom22, [d for d, _ in stimuli], 0.0, np.random.default_rng(31))
        assert counts.tolist() == expected

    @pytest.mark.parametrize("repeats", [1, 4])
    @pytest.mark.parametrize("profile_name", ["default", "clipping", "noiseless", "wander"])
    def test_noisy_windows_equal_replica(self, repeats, profile_name, monkeypatch):
        """The window means, of measure_windows_noisy and of the attack's classifier input, on 20 random keys;
        the wander profile's linear drift pass moves the counts at the attack's 55 and 220 windows."""
        profile = {"default": DeviceProfile(), "clipping": self.CLIPPING, "noiseless": self.NOISELESS,
                   "wander": DeviceProfile(**self.WANDER)}[profile_name]
        attack_counts, classify = [], exfil._classify

        def record(counts, *args):
            attack_counts.append(counts)
            return classify(counts, *args)

        monkeypatch.setattr(exfil, "_classify", record)
        rng = np.random.default_rng(repeats)
        cases = [(10, 0x9E3779B97F4A7C15, 23)]  # the case this test first pinned, then 20 random keys
        for w in (3, 10):
            cases += [(w, int.from_bytes(rng.bytes(8), "little"), int(rng.integers(0, 2**31))) for _ in range(10)]
        for w, value, seed in cases:
            key = KeyBits.from_int(value, 64)
            chan = ExfilChannel(profile, MeasurementConfig(log2_ticks=15), Geometry(), seed, repeats)
            duties = [window_hw_oracle(key, pos, w) / w for pos in range(len(key) - w + 1)]
            stimuli = [(duty, 0.0) for duty in duties for _ in range(repeats)]
            counts, _ = replica_counts(profile, chan.cfg, chan.geom, stimuli, chan.seed)
            expected = [sum(counts[i : i + repeats]) / repeats for i in range(0, len(counts), repeats)]
            assert measure_windows_noisy(key, w, chan) == expected
            try:
                single_window_recover(key, w, chan)
            except InconsistentMeasurements:
                pass
            assert attack_counts.pop().tolist() == expected

    @pytest.mark.parametrize("coupling", ["long", "local"])
    def test_scalar_toggle_equals_toggle_column(self, coupling, cfg13):
        profile, geom = DeviceProfile(), Geometry(v_t=2, v_r=2, coupling=coupling)
        duty = [float(i % 2) for i in range(300)]
        expected, _ = replica_counts(profile, cfg13, geom, [(d, 0.25) for d in duty], 41)
        scalar = simulate_counts(profile, cfg13, geom, duty, 0.25, np.random.default_rng(41))
        column = simulate_counts(profile, cfg13, geom, duty, np.full(300, 0.25), np.random.default_rng(41))
        assert scalar.tolist() == column.tolist() == expected

    def test_counts_validate_stimulus(self, profile, cfg13, geom22):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duty"):
            simulate_counts(profile, cfg13, geom22, [0.0, 1.5], 0.0, rng)
        with pytest.raises(ValueError, match="duty"):
            simulate_counts(profile, cfg13, geom22, [np.nan], 0.0, rng)
        with pytest.raises(ValueError, match="toggle_rate"):
            simulate_counts(profile, cfg13, geom22, [0.5, 0.5], [0.0, -0.25], rng)
        for duty, toggle in [([[0.5, 0.5]], 0.0), (0.5, 0.0), ([0.5, 0.5], [[0.0, 0.0]]),
                             ([0.0, 1.0, 0.5], [0.0, 0.25]), ([0.0, 1.0, 0.5], [0.0] * 4), ([0.0, 1.0, 0.5], [])]:
            with pytest.raises(ValueError, match="^duty and toggle_rate must be one value per window$"):
                simulate_counts(profile, cfg13, geom22, duty, toggle, rng)

    @pytest.mark.parametrize(
        "duty, toggle, name",
        [
            (["0.5", "1"], 0.0, "duty"),
            ([b"1", b"0"], 0.0, "duty"),
            ("1", 0.0, "duty"),
            (b"\x00\x01", 0.0, "duty"),
            ([0.5, "1"], 0.0, "duty"),
            ([Fraction(1, 2), b"1"], 0.0, "duty"),
            (np.array(["0", "1"]), 0.0, "duty"),
            ([0.5, 1.0], "0.1", "toggle_rate"),
            ([0.5, 1.0], b"0.1", "toggle_rate"),
            ([0.5, 1.0], ["0.1", "0.2"], "toggle_rate"),
            ([0.5, 1.0], [0.1, np.str_("0.2")], "toggle_rate"),
            ([0.5, 1.0], np.array([b"0", b"0"]), "toggle_rate"),
        ],
        ids=["str-list", "bytes-list", "str", "bytes", "mixed", "fraction-and-bytes", "str-array",
             "str-toggle", "bytes-toggle", "str-toggles", "np-str-toggle", "bytes-array-toggles"],
    )
    def test_counts_refuse_text(self, profile, cfg13, geom22, duty, toggle, name):
        with pytest.raises(ValueError, match=f"^{name} must be numbers, not text$"):
            simulate_counts(profile, cfg13, geom22, duty, toggle, np.random.default_rng(0))

    NUMBER_COLUMNS = {"window": [0, 1], "counts": [10, 12], "duty": [0.5, 1.0], "toggle_rate": [0.0, 0.25]}

    @pytest.mark.parametrize("name", list(NUMBER_COLUMNS))
    @pytest.mark.parametrize("text", [["0", "1"], [b"0", b"1"], [1, "1"], np.array(["0", "1"])],
                             ids=["str-list", "bytes-list", "mixed", "str-array"])
    def test_trace_refuses_text(self, name, text):
        with pytest.raises(ValueError, match=f"^{name} must be numbers, not text$"):
            CountTrace(**{**self.NUMBER_COLUMNS, name: text}, tx_bits=[None, None])

    def test_trace_checks_its_columns_in_order(self):
        with pytest.raises(ValueError, match="^window must be numbers, not text$"):
            CountTrace(["0"], ["10"], ["0.5"], [b"0"], [None])

    def test_counts_take_every_numeric_type(self, profile, cfg13, geom22):
        expected = simulate_counts(profile, cfg13, geom22, [0.5, 1.0], 0.25, np.random.default_rng(0)).tolist()
        for duty, toggle in [
            ([Fraction(1, 2), 1], Fraction(1, 4)),
            ([np.float32(0.5), np.int8(1)], np.float16(0.25)),
            (np.array([0.5, 1.0], dtype=np.float32), [0.25, 0.25]),
            ((0.5, True), np.array([0.25, 0.25], dtype=object)),
        ]:
            assert simulate_counts(profile, cfg13, geom22, duty, toggle, np.random.default_rng(0)).tolist() == expected


STIMULUS_ENTRIES = {
    "expected_count": lambda p, c, g, duty, toggle: expected_count(p, c, g, duty, toggle),
    "simulate_counts_scalar": lambda p, c, g, duty, toggle: simulate_counts(p, c, g, [duty], toggle, np.random.default_rng(0)),
    "simulate_counts": lambda p, c, g, duty, toggle: simulate_counts(p, c, g, [duty], [toggle], np.random.default_rng(0)),
    "CountTrace": lambda p, c, g, duty, toggle: CountTrace([0], [10], [duty], [toggle], [None]),
}


@pytest.mark.parametrize(
    "duty, toggle, message",
    [(d, 0.0, "duty must be in [0, 1]") for d in (-0.1, 1.1, math.nan)]
    + [(0.5, t, "toggle_rate must be finite and >= 0") for t in (-1e-9, math.inf, math.nan)],
)
def test_every_entry_states_the_one_stimulus_rule(duty, toggle, message, profile, cfg13, geom22):
    for name, entry in STIMULUS_ENTRIES.items():
        with pytest.raises(ValueError) as err:
            entry(profile, cfg13, geom22, duty, toggle)
        assert str(err.value) == message, name


@pytest.mark.parametrize("toggle", [math.nan, math.inf, -0.1])
@pytest.mark.parametrize("entry", ["simulate_counts", "simulate_counts_scalar", "expected_count", "trace_from_csv"])
def test_toggle_rate_must_be_finite_and_non_negative(entry, toggle, profile, cfg13, geom22):
    with pytest.raises(ValueError, match="toggle_rate"):
        if entry == "simulate_counts":
            simulate_counts(profile, cfg13, geom22, [0.5, 0.5], [toggle, 0.0], np.random.default_rng(0))
        elif entry == "simulate_counts_scalar":
            simulate_counts(profile, cfg13, geom22, [0.5, 0.5], toggle, np.random.default_rng(0))
        elif entry == "expected_count":
            expected_count(profile, cfg13, geom22, 0.5, toggle)
        else:
            trace_from_csv(f"window,count,duty,toggle_rate,tx_bit\n0,10,0.5,0,1\n1,10,0.5,{toggle},1\n")


class TestTraceCSV:
    def test_round_trip(self, profile, cfg13, geom22):
        trace = simulate_trace(profile, cfg13, geom22, PatternSpec.alternating(), 8, seed=2)
        again = trace_from_csv(trace_to_csv(trace))
        assert again.samples == trace.samples

    def test_header_and_blank_bit(self):
        trace = CountTrace([0], [10], [0.5], [0.125], [None])
        text = trace_to_csv(trace)
        assert text.splitlines()[0] == "window,count,duty,toggle_rate,tx_bit"
        assert text.splitlines()[1].endswith(",")
        assert trace_from_csv(text).tx_bits == [None]

    def test_dynamic4_round_trip(self, profile, cfg13, geom22):
        trace = simulate_trace(profile, cfg13, geom22, PatternSpec.dynamic4("1010"), 8, seed=2)
        assert trace.tx_bits == [None] * 8
        again = trace_from_csv(trace_to_csv(trace))
        assert again.samples == trace.samples
        assert again.tx_bits == [None] * 8

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            trace_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("row", ["0,10,0.5,0.0", "0,10,0.5,0.0,1,7"], ids=["short", "long"])
    def test_rejects_wrong_field_count(self, row):
        with pytest.raises(ValueError, match="line 3: expected 5 fields"):
            trace_from_csv(f"window,count,duty,toggle_rate,tx_bit\n1,10,1,0,1\n{row}\n")

    def test_rejects_unparsable_value(self):
        with pytest.raises(ValueError, match="invalid literal for int"):
            trace_from_csv("window,count,duty,toggle_rate,tx_bit\n0,ten,1,0,1\n")

    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    def test_names_first_unparsable_value_in_file_order(self, column):
        bad = ["zeta", "alpha", "mu", "beta", "pi", "chi", "eta", "rho"]
        rows = [[str(w), "5", "1", "0", "1"] for w in range(len(bad) + 1)]
        for row, value in zip(rows[1:], bad):
            row[column] = value
        text = "window,count,duty,toggle_rate,tx_bit\n" + "".join(",".join(r) + "\n" for r in rows)
        with pytest.raises(ValueError, match="'zeta'"):
            trace_from_csv(text)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CountTrace([1, 1], [5, 5], [0.0, 0.0], [0.0, 0.0], [0, 0])
        with pytest.raises(ValueError, match="counts must be >= 0"):
            CountTrace([0], [-1], [0.0], [0.0], [0])
        with pytest.raises(ValueError, match="duty"):
            CountTrace([0], [5], [1.5], [0.0], [0])

    @pytest.mark.parametrize(
        "columns, match",
        [
            (([0, 1], [5, 5], [0.0, 1.0], [0.0, 0.0], [0]), "equal length"),
            (([0, 1], [5], [0.0, 1.0], [0.0, 0.0], [0, 1]), "equal length"),
            (([[0, 1]], [[5, 5]], [[0.0, 1.0]], [[0.0, 0.0]], [[0, 1]]), "one-dimensional"),
            (([0, 1], [5, 5], [0.0, math.nan], [0.0, 0.0], [0, 1]), "duty"),
            (([0, 3, 2], [5, 5, 5], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0, 1, 0]), "strictly increasing"),
            (([0, 1], [100, 99], [1.0, 0.5], [0.0, 0.0], [7, -3]), "^tx bit must be 0 or 1, got 7$"),
            (([0, 1], [5, 5], [0.0, 1.0], [0.0, 0.0], [None, 2]), "^tx bit must be 0 or 1, got 2$"),
            (([0, 1], [5, 5], [0.0, 1.0], [0.0, 0.0], [0.5, 1]), "^tx bit must be 0 or 1, got 0.5$"),
            (([0, 1], [5, 5], [0.0, 1.0], [0.0, 0.0], ["1", 0]), "^tx bit must be 0 or 1, got '1'$"),
            (([None, 1], [5, 5], [0.0, 1.0], [0.0, 0.0], [0, 1]), "^window must be whole numbers$"),
            (([0, 1], [5, math.nan], [0.0, 1.0], [0.0, 0.0], [0, 1]), "^counts must be whole numbers$"),
            (([0, 1.5], [5, 5], [0.0, 1.0], [0.0, 0.0], [0, 1]), "^window must be whole numbers$"),
            (([0, 1], [5, math.inf], [0.0, 1.0], [0.0, 0.0], [0, 1]), "^counts must be whole numbers$"),
            (([0, 1], [5, 2**63], [0.0, 1.0], [0.0, 0.0], [0, 1]), "^counts must be whole numbers$"),
            (([0, 2**70], [5, 5], [0.0, 1.0], [0.0, 0.0], [0, 1]), "^window must be whole numbers$"),
        ],
        ids=["short-bits", "short-counts", "two-dimensional", "nan-duty", "decreasing-window", "bits-7-3",
             "bit-2", "bit-half", "bit-string", "none-window", "nan-count", "half-window", "inf-count",
             "count-2-63", "window-2-70"],
    )
    def test_rejects_bad_columns(self, columns, match):
        with pytest.raises(ValueError, match=match):
            CountTrace(*columns)

    def test_csv_rejects_bad_bits(self):
        with pytest.raises(ValueError, match="^tx bit must be 0 or 1, got 7$"):
            trace_from_csv("window,count,duty,toggle_rate,tx_bit\n0,100,1,0,7\n1,99,0.5,0,-3\n")

    @pytest.mark.parametrize("bits", [[True, np.int64(0), None, 1.0], [True, np.int64(0), np.uint8(1), False]],
                             ids=["some-none", "all-sent"])
    def test_bits_are_stored_as_ints(self, bits):
        trace = CountTrace([0, 1, 2, 3], [5, 5, 5, 5], [1.0, 0.0, 0.5, 1.0], [0.0] * 4, bits)
        assert trace.tx_bits == bits and {type(b) for b in trace.tx_bits} <= {int, type(None)}
        assert trace_from_csv(trace_to_csv(trace)).tx_bits == trace.tx_bits

    def test_columns_are_typed_arrays(self):
        trace = CountTrace(range(3), (7, 8, 9), [0, 1, 0], [0, 0, 0], (0, 1, 0))
        assert [c.dtype for c in (trace.window, trace.counts, trace.duty, trace.toggle_rate)] == [
            np.int64, np.int64, np.float64, np.float64
        ]
        assert trace.tx_bits == [0, 1, 0] and len(trace) == 3
        assert trace.samples[1] == (1, 8, 1.0, 0.0, 1)
        assert CountTrace([], [], [], [], []).samples == ()

    def test_columns_are_read_only_copies(self):
        counts = np.array([7, 8])
        trace = CountTrace([0, 1], counts, [0.0, 1.0], [0.0, 0.0], [0, 1])
        counts[0] = -1
        assert trace.counts.tolist() == [7, 8]
        with pytest.raises(ValueError):
            trace.counts[0] = -1


def csv_writer_reference(trace):
    """The trace as CSV, one csv.writer row per TraceSample: the row-at-a-time form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_CSV_HEADER)
    for s in trace.samples:
        bit = "" if s.tx_bit is None else s.tx_bit
        writer.writerow([s.window, s.count, f"{s.duty:.6g}", f"{s.toggle_rate:.6g}", bit])
    return buf.getvalue()


def simulated(pattern, windows, coupling="long", seed=3):
    return simulate_trace(DeviceProfile(), MeasurementConfig(log2_ticks=15),
                          Geometry(v_t=2, v_r=2, coupling=coupling), pattern, windows, seed)


CSV_TRACES = {
    "alternating": lambda: simulated(PatternSpec.alternating(), 64),
    "longruns": lambda: simulated(PatternSpec.long_runs(5), 64),
    "lfsr": lambda: simulated(PatternSpec.lfsr(), 300),
    "custom": lambda: simulated(PatternSpec.custom((1, 1, 0)), 64),
    **{f"dynamic4-{code}": (lambda code=code: simulated(PatternSpec.dynamic4(code), 16))
       for code in ("0000", "1010", "1110")},
    "alternating-local": lambda: simulated(PatternSpec.alternating(), 64, coupling="local"),
    "dynamic4-local": lambda: simulated(PatternSpec.dynamic4("1100"), 16, coupling="local"),
    "fractional-duty": lambda: CountTrace(
        [0, 1, 2, 5, 6, 9, 10, 11],
        [0, 7, 123456789, 5, 5, 6, 2**40, 5],
        [1 / 3, 0.1234567, 1e-7, -0.0, 0.0, 1.0, 2 / 3, 1 / 3],
        [1 / 16, 0.0, 1e6, 1 / 8, 123456.7, 0.0, 2.5e-300, 1 / 16],
        [None, 0, 1, None, 1, 0, None, 1],
    ),
    "none-bits": lambda: CountTrace([0, 1, 2], [3, 4, 5], [0.5, 0.5, 0.25], [0.125] * 3, [None] * 3),
    "one-window": lambda: simulated(PatternSpec.lfsr(), 1),
    "one-window-none": lambda: CountTrace([7], [10], [0.75], [0.0625], [None]),
    "empty": lambda: CountTrace([], [], [], [], []),
}


@pytest.mark.parametrize("make", CSV_TRACES.values(), ids=CSV_TRACES.keys())
class TestTraceCSVColumns:
    def test_matches_csv_writer(self, make):
        trace = make()
        assert trace_to_csv(trace) == csv_writer_reference(trace)

    def test_round_trip(self, make):
        trace = make()
        text = trace_to_csv(trace)
        again = trace_from_csv(text)
        assert again.window.tolist() == trace.window.tolist()
        assert again.counts.tolist() == trace.counts.tolist()
        assert again.tx_bits == trace.tx_bits
        # the CSV keeps 6 significant digits of duty and toggle rate, sign of zero included
        for column in ("duty", "toggle_rate"):
            parsed, sent = getattr(again, column).tolist(), getattr(trace, column).tolist()
            assert list(map(repr, parsed)) == [repr(float(f"{v:.6g}")) for v in sent]
        assert trace_to_csv(again) == text


def test_trace_from_csv_reads_quoted_fields_and_blank_lines():
    text = (
        "window,count,duty,toggle_rate,tx_bit\n"
        '"0","10","0.5","0.125",""\n'
        "\n"
        '1,"11",1,0,"1"\n'
    )
    trace = trace_from_csv(text)
    assert trace.samples == ((0, 10, 0.5, 0.125, None), (1, 11, 1.0, 0.0, 1))


def test_trace_from_csv_counts_blank_lines_in_the_line_number():
    with pytest.raises(ValueError, match="^line 4: expected 5 fields, got 3$"):
        trace_from_csv("window,count,duty,toggle_rate,tx_bit\n0,10,1,0,1\n\n1,10,1\n")


def test_trace_from_csv_names_the_header():
    with pytest.raises(ValueError, match="^expected header window,count,duty,toggle_rate,tx_bit$"):
        trace_from_csv("")


def test_noise_sigma_scales_with_sqrt_window():
    profile = DeviceProfile()
    assert profile.noise_sigma_for(1 << 13) == pytest.approx(0.8)
    assert profile.noise_sigma_for(1 << 15) == pytest.approx(1.6)
    assert profile.noise_sigma_for(1 << 21) == pytest.approx(12.8)


def float_arrays_at_peak(call, size):
    """Peak memory that call() allocates, in float64 arrays of ``size`` values, after a first call that
    takes numpy's and the decay matrix's one-off allocations out of the count."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * size)
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The count engine draws each block when it uses it and holds at most two float64 arrays of the
    trace beyond its duty input: the innovations and their drift path, then the mean and one block.
    The carry between blocks is added in pieces, the clip test is a boolean mask and integer duty is
    not copied to float64; a trace-size temporary of any of them takes the engine past three arrays.
    A ragged trace adds its zero-padded copy of the innovations."""

    LIMIT = 3.0
    RAGGED_LIMIT = 3.5

    @pytest.mark.parametrize("windows, dtype, limit", [(1 << 16, float, LIMIT), (1 << 16, np.uint8, LIMIT),
                                                       (20000, float, RAGGED_LIMIT)],
                             ids=["whole-blocks", "uint8-duty", "ragged"])
    def test_simulate_counts(self, windows, dtype, limit, profile, cfg13, geom22):
        duty = (np.arange(windows) % 2).astype(dtype)
        arrays = float_arrays_at_peak(
            lambda: simulate_counts(profile, cfg13, geom22, duty, 0.0, np.random.default_rng(1)), windows)
        assert arrays <= limit

    def test_covert_transfer(self, profile, cfg13, geom22):
        """The framed transfer's 22,528 Manchester bits: 45,056 windows, sent as uint8 symbols."""
        bits = np.random.default_rng(0).integers(0, 2, 22528).tolist()
        arrays = float_arrays_at_peak(lambda: codec._covert_transfer(bits, profile, cfg13, geom22, 1), 2 * len(bits))
        assert arrays <= self.LIMIT

    def test_batch(self, profile, cfg13, geom22):
        duty = np.random.default_rng(0).random((35, 1024))

        def batch():
            rngs = [np.random.default_rng(s) for s in range(35)]
            return channel._count_engine(profile, cfg13, channel._terms(profile, cfg13, (geom22,)), duty, 0.0, rngs)

        assert float_arrays_at_peak(batch, duty.size) <= self.LIMIT


class TestBatchEngine:
    """One count-engine call over rows of traces gives each row the counts simulate_counts gives it alone."""

    WANDER = {"drift_rate": 1e-4, "drift_bound": 1.0}
    PROFILES = {
        "default": {},
        "clipping": {"drift_rate": 1e-4, "drift_bound": 2e-4},
        "late-clip": {"drift_rate": 1e-4, "drift_bound": 2.5e-3},
        "keep-1": {**WANDER, "drift_reversion": 0.0},
        "keep-0": {**WANDER, "drift_reversion": 1.0},
    }
    GEOMETRIES = [Geometry(v_t=2, v_r=2), Geometry(v_t=Fraction(1, 3), v_r=5, coupling="local"),
                  Geometry(v_t=5, v_r=3, d=2), Geometry(v_t=1, v_r=1, coupling="local")]

    @pytest.mark.parametrize("windows", [1, 55, 64, 65, 220, 1024, 4099])
    @pytest.mark.parametrize("profile_name", list(PROFILES))
    def test_rows_equal_simulate_counts(self, windows, profile_name, cfg13):
        profile = DeviceProfile(**self.PROFILES[profile_name])
        rng = np.random.default_rng(windows)
        duty = rng.random((len(self.GEOMETRIES), windows))
        toggle = rng.random((len(self.GEOMETRIES), windows)) * 0.25
        seeds = [3, 17, 3, 91]  # a seed used twice draws the same row twice
        batch = channel._count_engine(profile, cfg13, channel._terms(profile, cfg13, self.GEOMETRIES), duty, toggle,
                                      [np.random.default_rng(s) for s in seeds])
        assert batch.shape == duty.shape and batch.dtype == np.float64  # whole numbers; simulate_counts gives int64
        for geom, d, t, seed, row in zip(self.GEOMETRIES, duty, toggle, seeds, batch):
            assert row.tolist() == simulate_counts(profile, cfg13, geom, d, t, np.random.default_rng(seed)).tolist()

    @pytest.mark.parametrize("windows", [1, 55, 65, 1024])
    @pytest.mark.parametrize("coupling", ["long", "local"])
    def test_one_draw_row_serves_every_duty_row(self, windows, coupling, cfg13):
        profile, geom = DeviceProfile(**self.PROFILES["late-clip"]), Geometry(coupling=coupling)
        columns = [stimulus_columns(PatternSpec.dynamic4(code), windows) for code in DYNAMIC4_CODES]
        duty, toggle = np.array([c[0] for c in columns]), np.array([c[1] for c in columns])
        terms = channel._terms(profile, cfg13, (geom,))
        batch = channel._count_engine(profile, cfg13, terms, duty, toggle, (np.random.default_rng(6),))
        for d, t, row in zip(duty, toggle, batch):
            assert row.tolist() == simulate_counts(profile, cfg13, geom, d, t, np.random.default_rng(6)).tolist()

    def test_one_duty_row_serves_every_draw_row(self, cfg13):
        """The alternating studies: one duty column, one geometry and one generator per row."""
        profile = DeviceProfile()
        duty = np.arange(300) % 2.0
        seeds = [4, 5, 1004, 1005]
        batch = channel._count_engine(profile, cfg13, channel._terms(profile, cfg13, self.GEOMETRIES), duty[None], 0.0,
                                      [np.random.default_rng(s) for s in seeds])
        for geom, seed, row in zip(self.GEOMETRIES, seeds, batch):
            alone = simulate_counts(profile, cfg13, geom, duty, 0.0, np.random.default_rng(seed))
            assert row.tolist() == alone.tolist()

    @pytest.mark.parametrize("windows", [1, 55, 64, 65, 220, 1024, 4096, 4099, 45056])
    @pytest.mark.parametrize("profile_name", list(PROFILES))
    def test_drift_rows_equal_the_one_row_path_to_the_bit(self, windows, profile_name):
        profile = DeviceProfile(**self.PROFILES[profile_name])
        innovations = np.random.default_rng(windows).normal(0.0, profile.drift_rate, (5, windows))
        batch = channel._drift_path(profile, innovations.copy())
        for steps, row in zip(innovations, batch):
            assert np.array_equal(row, channel._drift_path(profile, steps.copy()))

    def test_a_row_clips_from_its_own_first_clipped_window(self):
        profile = DeviceProfile(**self.PROFILES["late-clip"])
        keep, bound = 1.0 - profile.drift_reversion, profile.drift_bound
        innovations = np.random.default_rng(2).normal(0.0, profile.drift_rate, (8, 1024))
        firsts = []
        for steps in innovations:  # the scalar recursion, row by row
            path, state = [], 0.0
            for e in steps.tolist():
                state = min(max(state * keep + e, -bound), bound)
                path.append(state)
            clipped = np.flatnonzero(np.abs(np.array(path)) >= bound)
            firsts.append(int(clipped[0]) if len(clipped) else None)
        assert None in firsts and len({f for f in firsts if f is not None}) > 1  # rows that clip, at different windows
        batch = channel._drift_path(profile, innovations.copy())
        for steps, row in zip(innovations, batch):
            assert np.array_equal(row, channel._drift_path(profile, steps.copy()))


class TestDutyDtypes:
    """A 0/1 duty gives the same counts whatever its dtype: int, uint and bool duty is used uncopied and
    float32 is copied to float64, and each gives every window the float64 duty's value to the bit."""

    @pytest.mark.parametrize("windows", [55, 220, 45056])
    @pytest.mark.parametrize("profile_name", ["default", "clipping"])
    def test_counts_equal_float64_duty(self, windows, profile_name, cfg13, geom22):
        profile = DeviceProfile(**TestBatchEngine.PROFILES[profile_name])
        # the generator's first block is the drift innovations: only the clipping profile leaves the bound
        innovations = np.random.default_rng(7).normal(0.0, profile.drift_rate, windows)
        linear = channel._linear_ar1(innovations, 1.0 - profile.drift_reversion)
        assert bool((np.abs(linear) > profile.drift_bound).any()) == (profile_name == "clipping")
        duty = np.random.default_rng(windows).integers(0, 2, windows).astype(float)
        expected = simulate_counts(profile, cfg13, geom22, duty, 0.0, np.random.default_rng(7)).tolist()
        for dtype in (np.int64, np.uint8, bool, np.float32):
            counts = simulate_counts(profile, cfg13, geom22, duty.astype(dtype), 0.0, np.random.default_rng(7))
            assert counts.tolist() == expected, dtype
