import copy
import csv
import dataclasses
import io
import math
import pickle
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
from longwire import exfil
from longwire.errors import InconsistentMeasurements
from longwire.exfil import ExfilChannel, KeyBits, measure_windows_noisy, single_window_recover, window_hw_oracle
from longwire.patterns import PatternSpec
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
        with pytest.raises(ValueError, match="v_t must be > 0|multiple of 1/3"):
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

    def test_attenuation_must_be_non_increasing_and_cut_off(self):
        with pytest.raises(ValueError):
            DeviceProfile(distance_atten={1: 0.5, 2: 0.9})
        with pytest.raises(ValueError):
            DeviceProfile(distance_atten={1: 1.0, 2: 0.05, 3: 0.01})
        DeviceProfile(distance_atten={1: 1.0, 2: 0.05, 3: 0.0})

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
            with pytest.raises(ValueError, match="log2_ticks must be in"):
                MeasurementConfig(log2_ticks=bad)


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
        ],
        ids=["long", "single", "one-block", "block-and-one", "keep-0", "keep-1", "late-clip", "clipping"],
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
    @pytest.mark.parametrize("profile_name", ["default", "clipping", "noiseless"])
    def test_noisy_windows_equal_replica(self, repeats, profile_name, monkeypatch):
        """The window means, of measure_windows_noisy and of the attack's classifier input, on 20 random keys."""
        profile = {"default": DeviceProfile(), "clipping": self.CLIPPING, "noiseless": self.NOISELESS}[profile_name]
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
        ],
        ids=["short-bits", "short-counts", "two-dimensional", "nan-duty", "decreasing-window"],
    )
    def test_rejects_bad_columns(self, columns, match):
        with pytest.raises(ValueError, match=match):
            CountTrace(*columns)

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
